"""Perf smoke and committed-record pins for the closure layer.

A scaled-down replay (n=128) of the ``benchmarks/closure_cases``
workloads checks that the numpy backend computes the reference's
relations on every mix. numpy's closure maintenance work is pinned
exactly: the edge-insert path by the committed ``crowd-scale`` bench
record, the tie-merge path by closed-form and hand-counted sequences.
The dominance kernel must not be slower than the re-allocating 3-D
broadcast, and the packed covering graph must beat the per-tuple spec.

Run via ``make test-perf-core``. The closure replay itself is timed by
the ``closure_numpy_n*`` ids of ``crowdsky bench`` (docs/profiling.md).
"""

import sys
import time
from pathlib import Path

import pytest

from repro.core.preference import PreferenceGraph
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
    """The numpy backend computes identical relations on every mix.

    No timing assertion at this size: the packed-bit broadcast pays a
    fixed numpy dispatch cost per *scalar* op, which only amortizes once
    the bulk kernels come into play (the `crowd-scale` suite is where
    the numpy backend's speedup is measured and pinned)."""
    ops = WORKLOADS[workload]
    assert run_workload(ops, SMOKE_N, "numpy") == run_workload(
        ops, SMOKE_N, "reference"
    ), f"numpy backend disagrees on {workload}"


@pytest.mark.parametrize("n", [512, 2048])
def test_numpy_closure_updates_match_committed_record(n):
    """numpy's ``closure_updates`` on the seeded ``random_dag`` replay
    equals the committed ``crowd-scale`` record, so a change to the
    closure update path that alters its work fails here first."""
    record = load_baseline("crowd-scale", ROOT / DEFAULT_BASELINES)
    pinned = {
        entry["id"]: entry["median_s"] for entry in record["results"]
    }[f"crowd_closure_updates_numpy_n{n}"]
    assert _closure_updates(n, "numpy") == pinned


@pytest.mark.parametrize("n", [128, 512])
def test_numpy_closure_updates_on_tie_merges(n):
    """The ``tie_heavy`` mix reaches the merge path, so its count is
    pinned in closed form. With ``m = n/2`` evens, backbone edge ``k``
    sweeps the ``k + 1`` representatives at or above its source plus its
    target (``k + 2`` rows), and each of the ``m`` merges of an odd
    tuple into its even neighbour sweeps the ``m - 1`` other evens. The
    probes do no closure work."""
    graph = PreferenceGraph(n, backend="numpy")
    for op in tie_heavy_ops(n):
        if op[0] == "answer":
            graph.add_answer(*op[1:])
    m = n // 2
    backbone = sum(k + 2 for k in range(m - 1))
    assert graph.closure_updates == backbone + m * (m - 1)


def test_numpy_closure_updates_hand_counted():
    """Edge inserts, tie merges, a redundant answer and rejected
    contradictions, each step's swept rows counted by hand."""
    L, E = Preference.LEFT, Preference.EQUAL
    steps = [
        ((0, 1, L), 2),  # rows {0} above, {1} below
        ((2, 3, L), 4),  # rows {2} above, {3} below
        ((1, 2, E), 6),  # 2 folds into 1: {0} above, {3} below
        ((3, 0, L), 6),  # contradicts 0 < 3: rejected, no work
        ((4, 3, E), 8),  # 4 folds into 3: live reps {0, 1} above
        ((0, 4, L), 8),  # already derivable: no work
        ((2, 0, E), 8),  # contradicts 0 < 2: rejected, no work
    ]
    graph = PreferenceGraph(5, backend="numpy")
    for (u, v, answer), expected in steps:
        graph.add_answer(u, v, answer)
        assert graph.closure_updates == expected, (u, v, answer)
    assert graph.rejected_answers == 2


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
    """The packed ``M & ~(M∘M)`` covering graph equals the per-tuple
    submatrix spec on the ``sl-ant-noisy`` relation shape and is at
    least 5x faster, best of 3 (about 30x on an idle 2-core x86 VM;
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
