"""Differential tests for the machine-phase kernels.

The row-block dominance kernel, the packed covering graph, the
column-blocked dominating sets, the packed ``DS(t)`` rows and ``DS(t)``
in evaluation order are pinned against the straightforward formulations
kept here as specs: the 3-D broadcast dominance matrix,
``~M.any(axis=0)``, one submatrix reduction per tuple, one column scan
per tuple, bit arithmetic on Python ints and a ``(|DS(s)|, s)`` key
sort.
Relations up to 200 rows cross the 64- and 128-bit word boundaries of
the packed rows; the duplicate-heavy, tie-dense grids of
``known_matrices`` are where dominance code breaks. The whole-matrix
readers work in blocks of a module constant, patched small here so
that drawn relations also cross block boundaries. Fixed relations put
the covering graph's rank-ordered greedy where it could go wrong: a
long chain, a fan-out across three words, indices that run against
dominance, and AK-equal twins inside a chain.
"""

from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.engine import build_context
from repro.data.synthetic import Distribution, generate_synthetic
from repro.skyline import dominating, layers
from repro.skyline.dominance import dominance_matrix, skyline_mask
from repro.skyline.dominating import (
    FrequencyOracle,
    dominating_sets_from_matrix,
    packed_bool_rows,
)
from repro.skyline.layers import covering_graph_from_matrix
from repro.skyline.sharded import local_skyline_mask
from tests.conftest import make_relation
from tests.strategies import known_matrices

KERNEL_SETTINGS = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)

#: Block sizes that split 200 rows unevenly, plus one above them.
BLOCK_SIZES = (1, 7, 64, 512)
BLOCKS = st.sampled_from(BLOCK_SIZES)


@contextmanager
def blocks_of(rows):
    """Run the whole-matrix readers in blocks of ``rows``."""
    with mock.patch.object(dominating, "_BLOCK_ROWS", rows), \
            mock.patch.object(layers, "_BLOCK_ROWS", rows):
        yield


def spec_dominance_matrix(data):
    """``M[i, j] = data[i] ≺ data[j]`` as one ``(n, n, d)`` broadcast."""
    data = np.asarray(data, dtype=float)
    pairs_le = data[:, None, :] <= data[None, :, :]
    pairs_lt = data[:, None, :] < data[None, :, :]
    return pairs_le.all(axis=2) & pairs_lt.any(axis=2)


def spec_covering_graph(matrix):
    """``c(t)``: the dominators of ``t`` that dominate no other one."""
    cover = {}
    for t in range(matrix.shape[0]):
        dominators = np.flatnonzero(matrix[:, t])
        sub = matrix[np.ix_(dominators, dominators)]
        cover[t] = {int(s) for s in dominators[~sub.any(axis=1)]}
    return cover


def spec_dominating_sets(matrix, removed=()):
    """``DS(t)`` one column at a time, without ``removed``."""
    return [
        {int(s) for s in np.flatnonzero(matrix[:, t]) if s not in removed}
        for t in range(matrix.shape[0])
    ]


def spec_ds_in_eval_order(dominating, t):
    return sorted(dominating[t], key=lambda s: (len(dominating[s]), s))


def spec_packed_rows(sets, n):
    """Bit ``i`` of a set's row at word ``i >> 6``, bit ``i & 63``."""
    words = max(1, (n + 63) >> 6)
    rows = [[0] * words for _ in sets]
    for row, members in zip(rows, sets):
        for i in members:
            row[i >> 6] |= 1 << (i & 63)
    return np.array(rows, dtype=np.uint64).reshape(len(sets), words)


def assert_kernels_match(data, removed=(), block=512):
    matrix = spec_dominance_matrix(data)
    assert np.array_equal(dominance_matrix(data, chunk_size=block), matrix)
    assert np.array_equal(
        skyline_mask(data, chunk_size=block), ~matrix.any(axis=0)
    )
    assert np.array_equal(
        local_skyline_mask(data, block_size=block)[0], ~matrix.any(axis=0)
    )
    with blocks_of(block):
        assert covering_graph_from_matrix(matrix) == spec_covering_graph(
            matrix
        )
        ds = dominating_sets_from_matrix(matrix, removed)
        assert ds == spec_dominating_sets(matrix, removed)
        assert_packed_columns_match(matrix, removed, ds)


def assert_packed_columns_match(matrix, removed, ds):
    """Columns of ``matrix`` masked by ``~removed`` and packed, as
    ``parallel._disjoint_batches`` builds its rows, are the bits of
    each ``DS(t)``."""
    n = matrix.shape[0]
    dropped = np.zeros(n, dtype=bool)
    dropped[sorted(removed)] = True
    assert np.array_equal(
        packed_bool_rows(matrix.T & ~dropped), spec_packed_rows(ds, n)
    )


@KERNEL_SETTINGS
@given(known_matrices(max_rows=200), BLOCKS, st.data())
def test_kernels_match_specs(data, block, draw):
    n = data.shape[0]
    removed = draw.draw(st.sets(st.integers(0, n - 1), max_size=8))
    assert_kernels_match(data, removed, block)


@pytest.mark.parametrize("d", [0, 1, 3])
@pytest.mark.parametrize("n", [0, 1, 63, 64, 65])
def test_kernels_match_specs_at_word_boundaries(n, d):
    data = np.random.default_rng(n * 10 + d).integers(0, 3, (n, d))
    removed = set(range(0, n, 5))
    for block in (1, 64, 512):
        assert_kernels_match(data.astype(float), removed, block)


@pytest.mark.parametrize("n", [255, 256, 257, 513])
def test_shipped_blocks_match_specs_at_block_boundaries(n):
    """The readers' own block size, around its first two boundaries."""
    data = np.random.default_rng(n).integers(0, 6, (n, 2)).astype(float)
    matrix = spec_dominance_matrix(data)
    removed = set(range(0, n, 7))
    assert covering_graph_from_matrix(matrix) == spec_covering_graph(matrix)
    ds = dominating_sets_from_matrix(matrix, removed)
    assert ds == spec_dominating_sets(matrix, removed)
    assert_packed_columns_match(matrix, removed, ds)


def assert_cover_matches_spec(data):
    """``c(t)`` equals the spec under every patched block size; returns
    it."""
    matrix = spec_dominance_matrix(data)
    expected = spec_covering_graph(matrix)
    for block in BLOCK_SIZES:
        with blocks_of(block):
            assert covering_graph_from_matrix(matrix) == expected, block
    return expected


def chain_cover(values):
    """``c(t)`` when ``t`` is dominated exactly by the tuples of smaller
    value: the tuples of the next smaller value cover it."""
    values = np.asarray(values)
    return {
        t: {int(s) for s in np.flatnonzero(values == values[values < v].max())}
        if (values < v).any() else set()
        for t, v in enumerate(values)
    }


@pytest.mark.parametrize("n", [65, 300])
def test_cover_of_a_chain(n):
    """Out-degree 1 and depth n, in shuffled index order: each block
    runs one pass, and every edge crosses the rank relabelling."""
    values = np.random.default_rng(n).permutation(n)
    data = np.column_stack([values, values]).astype(float)
    assert assert_cover_matches_spec(data) == chain_cover(values)


def test_cover_of_a_fan_out_across_three_words():
    """One tuple covers 130 others, which rank 1 to 130 and so fill
    bits of three packed words. The tuple has the last index."""
    width = 130
    antichain = [(1.0 + i, float(width - i)) for i in range(width)]
    data = np.array(antichain + [(0.0, 0.0)])
    cover = assert_cover_matches_spec(data)
    assert cover == {**{t: {width} for t in range(width)}, width: set()}


def test_cover_when_indices_run_against_dominance():
    """A 12 x 12 grid listed from its worst corner, so every dominator
    has a higher index than the tuples it dominates. A kernel that took
    a row's lowest-index successor as direct would pick the far corner."""
    side = 12
    data = np.array(
        [(a, b) for a in reversed(range(side)) for b in reversed(range(side))],
        dtype=float,
    )
    matrix = spec_dominance_matrix(data)
    assert not np.triu(matrix).any()
    cover = assert_cover_matches_spec(data)
    assert max(len(c) for c in cover.values()) == 2


def test_cover_of_twins_inside_a_chain():
    """AK-equal twins tie in rank and are incomparable: every twin of a
    chain level covers every tuple of the next level."""
    rng = np.random.default_rng(11)
    values = rng.permutation(np.repeat(np.arange(40), rng.integers(1, 4, 40)))
    data = np.column_stack([values, values]).astype(float)
    assert assert_cover_matches_spec(data) == chain_cover(values)


@KERNEL_SETTINGS
@given(
    known_matrices(min_rows=2, max_rows=150, kinds=("duplicate_heavy",))
)
def test_context_reads_ds_off_the_matrix(known):
    """``build_context`` drops the preprocessed duplicates from every
    ``DS(t)``, ``ds_in_eval_order`` gathers it as an int64 array sorted
    by ``(|DS(s)|, s)``, and ``eval_order`` follows the same key.

    Distinct crowd values make one tuple of every duplicate group
    dominate the others, so ``removed`` is never empty."""
    n = known.shape[0]
    relation = make_relation(
        [tuple(row) for row in known], [(t,) for t in range(n)]
    )
    context = build_context(relation)
    assert context.removed
    expected = spec_dominating_sets(
        spec_dominance_matrix(known), context.removed
    )
    assert context.ds_sizes == [len(ds) for ds in expected]
    for t in range(n):
        members = context.ds_in_eval_order(t)
        assert members.dtype == np.int64
        assert members.tolist() == spec_ds_in_eval_order(expected, t)
    kept = [t for t in range(n) if t not in context.removed]
    assert context.eval_order() == sorted(
        kept, key=lambda t: (len(expected[t]), t)
    )


def test_float_frequency_products_equal_int64_products():
    """``freq_matrix`` and ``quantiles`` take their product in float64;
    every entry is a count below 2**53, so both equal the int64
    product exactly."""
    data = generate_synthetic(
        300, 2, 1, Distribution.ANTI_CORRELATED, seed=7
    ).known_matrix()
    matrix = dominance_matrix(data)
    oracle = FrequencyOracle(matrix)
    counts = matrix.astype(np.int64)
    members = list(range(0, 300, 3))
    freq = oracle.freq_matrix(members)
    assert freq.dtype == np.int64
    assert np.array_equal(freq, counts[members] @ counts[members].T)
    co_domination = counts @ counts.T
    values = co_domination[np.triu_indices(300, k=1)]
    values = values[values > 0]
    probabilities = [0.3, 0.7]
    assert oracle.quantiles(probabilities) == [
        float(np.quantile(values, p)) for p in probabilities
    ]
