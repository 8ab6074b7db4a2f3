"""Perf smoke and committed-record pins for the closure layer.

A scaled-down replay (n=128) of the ``benchmarks/closure_cases``
workloads checks that the numpy backend computes the reference's
relations on every mix. numpy's closure maintenance work is pinned
exactly: the edge-insert path by the committed ``crowd-scale`` bench
record, the tie-merge path by closed-form and hand-counted sequences.
Its memory is pinned to two packed matrices, and reading it keeps
nothing. The dominance kernel must not be slower than the re-allocating
3-D broadcast, and the packed covering graph must beat the per-tuple
spec.

Run via ``make test-perf-core``. The closure replay itself is timed by
the ``closure_numpy_n*`` ids of ``crowdsky bench`` (docs/profiling.md).
"""

import sys
import time
from pathlib import Path

import pytest

from repro.core.preference import (
    NumpyPreferenceGraph,
    ReferencePreferenceGraph,
)
from repro.experiments.bench import (
    DEFAULT_BASELINES,
    _closure_updates,
    load_baseline,
)
from repro.questions import Preference

ROOT = Path(__file__).parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

from closure_cases import (  # noqa: E402
    make_workloads,
    run_workload,
    tie_heavy_ops,
)

pytestmark = [pytest.mark.perf, pytest.mark.pref]

SMOKE_N = 128
WORKLOADS = make_workloads(SMOKE_N)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_numpy_checksum_matches_reference(workload):
    """The numpy graph computes identical relations on every mix.

    No timing assertion at this size: the packed-bit broadcast pays a
    fixed numpy dispatch cost per *scalar* op, which only amortizes once
    the bulk kernels come into play (the `crowd-scale` suite is where
    the numpy graph's curve is measured and its closure work pinned)."""
    ops = WORKLOADS[workload]
    assert run_workload(ops, SMOKE_N, NumpyPreferenceGraph) == run_workload(
        ops, SMOKE_N, ReferencePreferenceGraph
    ), f"numpy graph disagrees on {workload}"


@pytest.mark.parametrize("n", [512, 2048])
def test_numpy_closure_updates_match_committed_record(n):
    """numpy's ``closure_updates`` on the seeded ``random_dag`` replay
    equals the committed ``crowd-scale`` record, so a change to the
    closure update path that alters its work fails here first."""
    record = load_baseline("crowd-scale", ROOT / DEFAULT_BASELINES)
    pinned = {
        entry["id"]: entry["median_s"] for entry in record["results"]
    }[f"crowd_closure_updates_numpy_n{n}"]
    assert _closure_updates(n, NumpyPreferenceGraph) == pinned


@pytest.mark.parametrize("n", [128, 512])
def test_numpy_closure_updates_on_tie_merges(n):
    """The ``tie_heavy`` mix reaches the merge path, so its count is
    pinned in closed form. With ``m = n/2`` evens, backbone edge ``k``
    writes the ``k + 1`` rows at or above its source (the evens ``0, 2,
    ..., 2k``). Merge ``j`` folds odd ``2j + 1`` into even ``2j``: it
    writes the ``j`` rows above ``2j`` plus the kept row (nothing is above
    the odd tuple). So the backbone writes ``m(m - 1)/2`` rows, the merges
    ``m(m + 1)/2``, and the whole mix ``m²``. The probes do no closure
    work."""
    graph = NumpyPreferenceGraph(n)
    for op in tie_heavy_ops(n):
        if op[0] == "answer":
            graph.add_answer(*op[1:])
    m = n // 2
    backbone = sum(k + 1 for k in range(m - 1))
    merges = sum(j + 1 for j in range(m))
    assert graph.closure_updates == backbone + merges == m * m


def test_numpy_closure_updates_hand_counted():
    """Edge inserts, tie merges, a redundant answer, rejected
    contradictions, an insert from a class that absorbed another and an
    insert into a merged class, each step's written rows counted by
    hand."""
    L, E = Preference.LEFT, Preference.EQUAL
    steps = [
        ((0, 1, L), 1),  # row {0}: nothing above 0
        ((2, 3, L), 2),  # row {2}
        ((1, 2, E), 4),  # 2 folds into 1: {0} above 1, kept row 1
        ((3, 0, L), 4),  # contradicts 0 < 3: rejected, no work
        ((4, 3, E), 7),  # 4 folds into 3: {0, 1} above 3, kept row 3
        ((0, 4, L), 7),  # already derivable: no work
        ((2, 0, E), 7),  # contradicts 0 < 2: rejected, no work
        ((4, 5, L), 10),  # source class 3 absorbed 4: {0, 1} above, row 3
        ((6, 1, L), 11),  # into class {1, 2}: row {6}, nothing above 6
    ]
    graph = NumpyPreferenceGraph(7)
    for (u, v, answer), expected in steps:
        graph.add_answer(u, v, answer)
        assert graph.closure_updates == expected, (u, v, answer)
    assert graph.rejected_answers == 2
    # Retired rows 2 and 4 stay zero: no later sweep wrote them.
    assert not graph._desc[[2, 4]].any()
    assert graph.relation(6, 2) is Preference.LEFT
    assert graph.relation(5, 0) is Preference.RIGHT
    assert graph.relation(0, 6) is None


def test_numpy_graph_allocates_two_packed_matrices():
    """Building ``NumpyPreferenceGraph(n)`` allocates the class and
    descendant matrices, ``2 · n · ceil(n/64)`` words, and O(n) more: a
    third packed matrix (another 2 MiB at n = 4096) fails the bound."""
    import tracemalloc

    n = 4096
    matrices = 2 * n * ((n + 63) // 64) * 8
    NumpyPreferenceGraph(8)  # import-time and first-call allocations
    tracemalloc.start()
    try:
        NumpyPreferenceGraph(n)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= matrices + 128 * n, (peak, matrices)


def test_closure_reads_keep_nothing():
    """Reading the closure allocates nothing that outlives the read.

    Two numpy graphs over n = 300 take 600 seeded verdicts drawn from a
    hidden weak order, then every ordered pair is resolved (89,700) and
    5,000 more pairs are read one at a time. Once the results are
    dropped, traced memory is within 64 KiB of where it started; a
    per-pair memo kept 15.3 MB here. The reference graph caches
    descendant sets by design, so it is left out."""
    import gc
    import random
    import tracemalloc

    from repro.core.preference import PreferenceSystem

    n = 300
    rng = random.Random(7)
    ranks = [[rng.randrange(n // 3) for _ in range(n)] for _ in range(2)]
    verdicts = []
    for _ in range(600):
        u, v = rng.sample(range(n), 2)
        attribute = rng.randrange(2)
        a, b = ranks[attribute][u], ranks[attribute][v]
        answer = (
            Preference.LEFT if a < b
            else Preference.RIGHT if a > b
            else Preference.EQUAL
        )
        verdicts.append((u, v, attribute, answer))
    system = PreferenceSystem(n, 2)
    assert system.apply_verdicts(verdicts) == 600
    pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
    reads = [tuple(rng.sample(range(n), 2)) for _ in range(5000)]
    system.pair_relations(0, 1)  # first-call allocations
    tracemalloc.start()
    try:
        # A full collection empties the interpreter's free lists, which
        # would otherwise hold up to 2,000 dropped tuples of each size.
        gc.collect()
        before, _ = tracemalloc.get_traced_memory()
        resolved = system.resolve_pairs(pairs)
        relations = [system.pair_relations(u, v) for u, v in reads]
        assert (len(resolved), len(relations)) == (89_700, 5_000)
        del resolved, relations
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept <= 64 * 1024, kept


def _realloc_dominance_matrix(data, chunk_size=64):
    """The pre-hoisting kernel: fresh comparison buffers every chunk.

    Kept here (not in the library) purely as the perf yardstick for
    the buffer-reuse fix in ``repro.skyline.dominance``.
    """
    import numpy as np

    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    result = np.zeros((n, n), dtype=bool)
    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        block = data[start:stop, None, :]
        le = np.all(block <= data[None, :, :], axis=2)
        lt = np.any(block < data[None, :, :], axis=2)
        result[start:stop] = le & lt
    return result


def test_dominance_matrix_buffer_hoisting_not_slower():
    """Perf smoke for the hoisted comparison buffers: the shipped
    kernel must match the re-allocating variant bit-for-bit and not be
    meaningfully slower (the 1.15x slack absorbs CI noise; on an idle
    machine the hoisted kernel wins). The two kernels alternate within
    each repeat, so a slow spell of the host lands on both sides."""
    import numpy as np

    from repro.skyline.dominance import dominance_matrix

    data = np.random.default_rng(12).random((1024, 4))
    assert np.array_equal(
        dominance_matrix(data, chunk_size=64),
        _realloc_dominance_matrix(data),
    )

    kernels = (dominance_matrix, _realloc_dominance_matrix)
    fastest = [float("inf")] * len(kernels)
    for _ in range(5):
        for index, kernel in enumerate(kernels):
            start = time.perf_counter()
            kernel(data, chunk_size=64)
            elapsed = time.perf_counter() - start
            fastest[index] = min(fastest[index], elapsed)
    hoisted, realloc = fastest
    assert hoisted <= realloc * 1.15, (
        f"hoisted dominance kernel slower than the re-allocating one: "
        f"{hoisted * 1000:.2f}ms vs {realloc * 1000:.2f}ms"
    )


def _best_of(repeats, kernel, *args):
    """Fastest of ``repeats`` timed calls, and the last call's result."""
    fastest = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        result = kernel(*args)
        fastest = min(fastest, time.perf_counter() - start)
    return fastest, result


def test_covering_graph_packed_kernel_beats_per_tuple_spec():
    """The packed rank-ordered covering greedy equals the per-tuple
    submatrix spec on the ``sl-ant-noisy`` relation shape and is at
    least 5x faster, best of 3 (about 130x on an idle 2-core x86 VM;
    the margin absorbs a 2x drift in that VM's speed)."""
    from repro.data.synthetic import Distribution, generate_synthetic
    from repro.skyline.dominance import dominance_matrix
    from repro.skyline.layers import covering_graph_from_matrix
    from tests.test_machine_kernels import spec_covering_graph

    relation = generate_synthetic(
        1500, 2, 1, Distribution.ANTI_CORRELATED, seed=7
    )
    matrix = dominance_matrix(relation.known_matrix())
    packed_s, packed = _best_of(3, covering_graph_from_matrix, matrix)
    spec_s, spec = _best_of(3, spec_covering_graph, matrix)
    assert packed == spec
    assert packed_s * 5 <= spec_s, (
        f"packed covering graph {packed_s * 1000:.1f}ms is not 5x "
        f"faster than the per-tuple spec {spec_s * 1000:.1f}ms"
    )


def test_serial_walk_scalar_pair_reads():
    """The serial walk's scalar closure reads, counted without a timer.

    ``crowdsky(generate_synthetic(400, 2, 2, seed=7))`` on the numpy
    backend calls ``PreferenceSystem.pair_relations`` 1,485 times: the
    probe ladders hold only the pairs the closure has not settled. A
    walk that reads every pair of every ``DS(t)`` again, as before the
    ladders were built from open pairs, makes 6,449 calls for the same
    1,340 questions."""
    from unittest import mock

    from repro.core.crowdsky import crowdsky
    from repro.core.preference import PreferenceSystem
    from repro.data.synthetic import generate_synthetic

    reads = 0
    pair_relations = PreferenceSystem.pair_relations

    def counting(system, u, v):
        nonlocal reads
        reads += 1
        return pair_relations(system, u, v)

    relation = generate_synthetic(400, 2, 2, seed=7)
    with mock.patch.object(PreferenceSystem, "pair_relations", counting):
        result = crowdsky(relation)
    assert result.stats.questions == 1340
    assert reads == 1485
