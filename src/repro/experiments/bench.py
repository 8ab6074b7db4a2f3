"""The benchmark-trajectory harness (``crowdsky bench``).

Runs a pinned suite of benchmarks — closure maintenance at n=512, the
fig6a sweep cold and warm, and end-to-end CrowdSky — ``repeats`` times
each, and appends one machine-fingerprinted *trajectory record* to
``BENCH_trajectory.json`` (a JSON array; every append rewrites the file
atomically through :mod:`repro.io.atomic`, so a crash never tears it).
The committed reference records live in
``benchmarks/baselines/bench_trajectory.json`` keyed by suite;
:func:`repro.obs.perf.regress` diffs a fresh record against them with
tolerance bands and an absolute noise floor, which is what the CI
``bench`` job gates on. See ``docs/profiling.md``.

Five suites, sharing benchmark ids only where the workload is
byte-identical (records are only comparable per id):

* ``smoke`` — seconds; the CI gate and the default.
* ``ci`` — the ISSUE-pinned trio (closure n=512, fig6a ci-scale
  cold/warm, crowdsky n=1000); tens of seconds per repeat.
* ``paper`` — ``ci`` plus crowdsky n=10000; minutes.
* ``scale`` — the sharded machine-phase curve (docs/sharding.md):
  serial vs sharded skyline at n=10k/100k/1M, plus the legacy
  quadratic kernel at n=10k as a reference point. The shipped-
  candidate counts ride along as ``machine_shipped_n*`` pseudo-
  benchmarks (deterministic counts, not seconds), so the committed
  baseline also pins merge traffic at O(skyline).
* ``crowd-scale`` — the crowd-phase curve (docs/performance.md):
  end-to-end CrowdSky at n=1k/5k/10k/20k, plus deterministic
  ``crowd_closure_updates_*`` pseudo-benchmarks pinning the closure
  maintenance work of both closure graphs — tens of minutes per
  repeat.

Workload determinism: every benchmark is seeded, so two runs on one
machine time the *same* computation. The only wall-clock reads are the
monotonic ``perf_counter`` timings; calendar timestamps come from
:func:`repro.obs.perf.utc_timestamp` (the obs layer owns the clock —
see RA001).
"""

from __future__ import annotations

import json
import os
import random
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, Optional, Sequence, Tuple, Type, Union,
)

import numpy as np

from repro.core.crowdsky import crowdsky
from repro.core.preference import (
    NumpyPreferenceGraph,
    ReferencePreferenceGraph,
    _BasePreferenceGraph,
)
from repro.questions import Preference
from repro.data.synthetic import generate_synthetic
from repro.exceptions import ExperimentError
from repro.experiments.registry import run_experiment
from repro.experiments.sweep import SweepCache
from repro.io.atomic import atomic_write_text
from repro.skyline.dominance import skyline_mask
from repro.skyline.sharded import local_skyline_mask, sharded_skyline_mask
from repro.obs.perf import (
    Regression,
    machine_fingerprint,
    regress,
    same_machine,
    utc_timestamp,
)

#: Default home of the appended trajectory (repo root in CI).
DEFAULT_TRAJECTORY = "BENCH_trajectory.json"

#: Committed per-suite reference records the gate compares against.
DEFAULT_BASELINES = "benchmarks/baselines/bench_trajectory.json"

BENCH_RECORD_SCHEMA = "crowdsky.bench_record/1"

#: Per-mutation pair probes, mirroring ``benchmarks/closure_cases.py``
#: (the schedulers check about this many candidate pairs per answer).
QUERIES_PER_ANSWER = 8

#: Fresh replays per closure sample; the sample is the fastest, as in
#: ``timeit``: a slower closure path slows every replay, a busy
#: neighbour only some, so the regression gate's band sees the code.
CLOSURE_REPLAYS = 10


# ---------------------------------------------------------------------------
# Workloads (seeded, self-contained)
# ---------------------------------------------------------------------------


def _closure_ops(n: int, seed: int = 0) -> List[Tuple]:
    """The ``random_dag`` closure mix: answers consistent with a hidden
    total order, each followed by seeded pair probes — the closest
    synthetic stand-in for what the schedulers generate."""
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    rank = {t: i for i, t in enumerate(order)}
    ops: List[Tuple] = []
    for _ in range(2 * n):
        u, v = rng.sample(range(n), 2)
        answer = Preference.LEFT if rank[u] < rank[v] else Preference.RIGHT
        ops.append(("answer", u, v, answer))
        for _ in range(QUERIES_PER_ANSWER):
            a, b = rng.sample(range(n), 2)
            ops.append(("query", a, b))
    return ops


def _replay_closure(ops: Sequence[Tuple], n: int) -> float:
    """Replay a closure workload on the numpy graph; returns seconds."""
    graph = NumpyPreferenceGraph(n)
    start = time.perf_counter()
    for op in ops:
        if op[0] == "answer":
            graph.add_answer(op[1], op[2], op[3])
        else:
            graph.relation(op[1], op[2])
    return time.perf_counter() - start


def _time_closure(n: int, seed: int = 0) -> Dict[str, float]:
    ops = _closure_ops(n, seed)
    best = min(_replay_closure(ops, n) for _ in range(CLOSURE_REPLAYS))
    return {"closure_numpy_n%d" % n: best}


def _time_fig6a(scale: str) -> Dict[str, float]:
    """Cold then warm fig6a sweep against a fresh content-addressed
    cache — the pair prices the sweep engine and the cache hit path."""
    directory = tempfile.mkdtemp(prefix="crowdsky-bench-")
    try:
        cache = SweepCache(directory)
        start = time.perf_counter()
        run_experiment("fig6a", scale=scale, cache=cache)
        cold = time.perf_counter() - start
        start = time.perf_counter()
        run_experiment("fig6a", scale=scale, cache=cache)
        warm = time.perf_counter() - start
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    return {
        "fig6a_%s_cold" % scale: cold,
        "fig6a_%s_warm" % scale: warm,
    }


def _time_crowdsky(n: int) -> Dict[str, float]:
    relation = generate_synthetic(n, 2, 2, seed=7)
    start = time.perf_counter()
    crowdsky(relation)
    return {"crowdsky_e2e_n%d" % n: time.perf_counter() - start}


def _time_crowd_e2e(n: int) -> Dict[str, float]:
    """End-to-end serial CrowdSky at one ``n``.

    Same seeded workload as ``crowdsky_e2e_n*`` (so the numbers are
    directly comparable with the historical trajectory). The id keeps
    the ``numpy`` name of the closure graph every run is built on.
    """
    relation = generate_synthetic(n, 2, 2, seed=7)
    start = time.perf_counter()
    crowdsky(relation)
    return {"crowd_e2e_numpy_n%d" % n: time.perf_counter() - start}


def _closure_updates(n: int, graph_class: Type[_BasePreferenceGraph]) -> int:
    """``closure_updates`` of one closure graph after replaying the
    seeded ``random_dag`` closure mix (seed 3) at ``n``."""
    graph = graph_class(n)
    for op in _closure_ops(n, seed=3):
        if op[0] == "answer":
            graph.add_answer(op[1], op[2], op[3])
        else:
            graph.relation(op[1], op[2])
    return graph.closure_updates


def _count_closure_updates(n: int) -> Dict[str, float]:
    """Deterministic closure-update counts per graph (pseudo-bench).

    Records each graph's :func:`_closure_updates` in the ``median_s``
    slot — a count, not seconds, so the committed baseline pins closure
    maintenance *work* exactly (machine-independent).
    """
    return {
        "crowd_closure_updates_%s_n%d" % (graph.backend, n): float(
            _closure_updates(n, graph)
        )
        for graph in (NumpyPreferenceGraph, ReferencePreferenceGraph)
    }


#: ``scale`` suite shape: shard count, worker processes (capped by the
#: machine — the fingerprint's ``cpus`` field keeps records comparable),
#: attribute count and the shipped-candidate ceiling.
SCALE_SHARDS = 8
SCALE_JOBS = max(1, min(SCALE_SHARDS, os.cpu_count() or 1))
SCALE_DIMENSIONS = 4
#: Merge traffic above this multiple of the skyline size fails the run
#: outright — the communication-cost contract, enforced at bench time.
SCALE_SHIPPED_FACTOR = 32


def _scale_data(n: int, seed: int = 17) -> np.ndarray:
    return np.random.default_rng(seed).random((n, SCALE_DIMENSIONS))


def _time_scale(n: int, matrix_kernel: bool = False) -> Dict[str, float]:
    """Serial vs sharded machine-phase skyline at one ``n``.

    Every repeat re-checks that the two masks are identical and that
    ``tuples_shipped`` stays within :data:`SCALE_SHIPPED_FACTOR` of the
    skyline size — a bench run that breaks the sharding contract fails
    instead of silently recording a nonsense timing. The shipped count
    is recorded as a ``machine_shipped_n*`` pseudo-benchmark
    (a deterministic count in the ``median_s`` slot), pinning merge
    traffic in the committed baseline.
    """
    data = _scale_data(n)
    out: Dict[str, float] = {}
    if matrix_kernel:
        # The O(n^2) matrix kernel — only affordable at the small end;
        # kept as the reference point the curve is measured against.
        start = time.perf_counter()
        skyline_mask(data)
        out["machine_sky_matrix_n%d" % n] = time.perf_counter() - start
    start = time.perf_counter()
    serial_mask, _ = local_skyline_mask(data)
    out["machine_sky_serial_n%d" % n] = time.perf_counter() - start
    start = time.perf_counter()
    sharded_mask, stats = sharded_skyline_mask(
        data, SCALE_SHARDS, "hash", jobs=SCALE_JOBS
    )
    out["machine_sky_sharded_n%d" % n] = time.perf_counter() - start
    if not np.array_equal(serial_mask, sharded_mask):
        raise ExperimentError(
            f"sharded skyline diverged from serial at n={n}"
        )
    skyline_size = int(np.count_nonzero(serial_mask))
    if stats.tuples_shipped > SCALE_SHIPPED_FACTOR * max(skyline_size, 1):
        raise ExperimentError(
            f"sharded merge shipped {stats.tuples_shipped} candidates "
            f"for a skyline of {skyline_size} at n={n} — merge traffic "
            f"is no longer O(skyline)"
        )
    out["machine_shipped_n%d" % n] = float(stats.tuples_shipped)
    return out


#: suite name -> ordered benchmark thunks, each returning {id: seconds}.
SUITES: Dict[str, List[Callable[[], Dict[str, float]]]] = {
    "smoke": [
        lambda: _time_closure(512),
        lambda: _time_fig6a("smoke"),
        lambda: _time_crowdsky(200),
    ],
    "ci": [
        lambda: _time_closure(512),
        lambda: _time_fig6a("ci"),
        lambda: _time_crowdsky(1000),
    ],
    "paper": [
        lambda: _time_closure(512),
        lambda: _time_fig6a("ci"),
        lambda: _time_crowdsky(1000),
        lambda: _time_crowdsky(10000),
    ],
    "scale": [
        lambda: _time_scale(10_000, matrix_kernel=True),
        lambda: _time_scale(100_000),
        lambda: _time_scale(1_000_000),
    ],
    "crowd-scale": [
        lambda: _count_closure_updates(512),
        lambda: _count_closure_updates(2048),
        lambda: _time_crowd_e2e(1_000),
        lambda: _time_crowd_e2e(5_000),
        lambda: _time_crowd_e2e(10_000),
        lambda: _time_crowd_e2e(20_000),
    ],
}


# ---------------------------------------------------------------------------
# Records and the trajectory file
# ---------------------------------------------------------------------------


def run_suite(
    suite: str = "smoke",
    repeats: int = 3,
    progress: Optional[Callable[[str], None]] = None,
) -> Dict[str, Any]:
    """Run one suite ``repeats`` times; returns the trajectory record.

    Noise handling happens at record time: every benchmark keeps all of
    its per-repeat timings (``runs_s``) plus their median, which is
    what :func:`repro.obs.perf.regress` compares.
    """
    thunks = SUITES.get(suite)
    if thunks is None:
        raise ExperimentError(
            f"unknown bench suite {suite!r}; pick one of {sorted(SUITES)}"
        )
    if repeats < 1:
        raise ExperimentError("bench repeats must be >= 1")
    runs: Dict[str, List[float]] = {}
    order: List[str] = []
    for repeat in range(repeats):
        for thunk in thunks:
            for bench_id, seconds in thunk().items():
                if bench_id not in runs:
                    runs[bench_id] = []
                    order.append(bench_id)
                runs[bench_id].append(seconds)
                if progress is not None:
                    progress(
                        f"[{repeat + 1}/{repeats}] {bench_id}: "
                        f"{seconds:.4f}s"
                    )
    return {
        "schema": BENCH_RECORD_SCHEMA,
        "suite": suite,
        "recorded_at": utc_timestamp(),
        "fingerprint": machine_fingerprint(),
        "repeats": repeats,
        "results": [
            {
                "id": bench_id,
                "runs_s": runs[bench_id],
                "median_s": statistics.median(runs[bench_id]),
            }
            for bench_id in order
        ],
    }


def load_trajectory(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """The recorded trajectory (oldest first); [] when absent/empty."""
    path = Path(path)
    if not path.exists():
        return []
    text = path.read_text().strip()
    if not text:
        return []
    records = json.loads(text)
    if not isinstance(records, list):
        raise ExperimentError(
            f"{path}: trajectory must be a JSON array of records"
        )
    return records


def append_record(
    record: Dict[str, Any], path: Union[str, Path] = DEFAULT_TRAJECTORY
) -> int:
    """Append one record to the trajectory file (atomic rewrite).

    Returns the new trajectory length. The file is a growing JSON array
    rather than JSONL so it stays directly loadable by plotting
    notebooks; rewriting through ``repro.io.atomic`` keeps the append
    crash-safe (RA012 covers this module).
    """
    records = load_trajectory(path)
    records.append(record)
    atomic_write_text(
        str(path), json.dumps(records, indent=2, sort_keys=True) + "\n"
    )
    return len(records)


def load_baseline(
    suite: str, path: Union[str, Path] = DEFAULT_BASELINES
) -> Optional[Dict[str, Any]]:
    """The committed reference record for ``suite``, or None."""
    path = Path(path)
    if not path.exists():
        return None
    document = json.loads(path.read_text())
    return document.get("suites", {}).get(suite)


def check_against_baseline(
    record: Dict[str, Any],
    baseline_path: Union[str, Path] = DEFAULT_BASELINES,
    tolerance: float = 0.30,
    min_seconds: float = 0.005,
    ignore_fingerprint: bool = False,
) -> Tuple[Optional[List[Regression]], str]:
    """Gate one record against the committed baseline of its suite.

    Returns ``(findings, message)``: findings is None when no baseline
    exists or the machines differ (callers must not fail on that — an
    incomparable record is a skip, not a pass), else the regression
    list (possibly empty).
    """
    baseline = load_baseline(record["suite"], baseline_path)
    if baseline is None:
        return None, (
            f"no committed baseline for suite {record['suite']!r} "
            f"in {baseline_path}; gate skipped"
        )
    if not ignore_fingerprint and not same_machine(
        record.get("fingerprint"), baseline.get("fingerprint")
    ):
        return None, (
            "baseline was recorded on a different machine; gate skipped "
            "(pass ignore_fingerprint to force the comparison)"
        )
    findings = regress(
        record,
        baseline,
        tolerance=tolerance,
        min_seconds=min_seconds,
        ignore_fingerprint=True,
    )
    if findings:
        lines = "\n".join("  " + f.describe() for f in findings)
        return findings, f"{len(findings)} regression(s):\n{lines}"
    return [], (
        f"no regressions vs baseline "
        f"(tolerance {1.0 + tolerance:.2f}x, floor {min_seconds}s)"
    )
