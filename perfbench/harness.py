"""Closed-loop measurement of one workload: one client, one process,
each query sent after the previous one returns.

Three passes, each apart from the others:

* :func:`timed_run` — tracing off; query wall times in reference
  seconds (see :mod:`speed`) and the paper's cost, latency and
  accuracy metrics (the end-to-end metrics).
* :func:`traced_run` — the same queries with and without the layer
  wrappers of :mod:`layers`, alternating which goes first; per-layer
  self times, tallies and the tracing overhead.
* :func:`memory_pass` — ``build_context`` alone under ``tracemalloc``,
  which distorts time and so never overlaps a timed query.

Output checks (ground truth, precision/recall) run outside every timed
interval. A query that raises or fails a check counts as failed and
contributes no timing.
"""

from __future__ import annotations

import math
import statistics
import sys
import time
import tracemalloc
import traceback
from pathlib import Path
from typing import Dict, List, Tuple

from repro import AccuracyReport, CrowdSkylineResult, Relation
from repro.core.engine import build_context
from repro.metrics.accuracy import ground_truth_skyline, precision_recall

import speed
from layers import SPANS, LayerTrace, traced
from workloads import Query, Workload

#: Relation size of the warm-up query that pays lazy imports and
#: first-call costs during set-up.
WARMUP_N = 200
#: Relations measured by the memory pass.
MEMORY_RELATIONS = 2
#: Queries per second of ``--seconds``. About one query per second of
#: query time at the reference machine's nominal speed (1.1 s to 1.9 s
#: per query), leaving room for checks, set-up and a slower machine.
QUERIES_PER_SECOND = 0.8
#: Speed-probe kernels run before each timed query (about 0.1 s).
PROBE_KERNELS = 10


def query_count(seconds: float, per_query: int = 1) -> int:
    """Queries (or traced pairs, ``per_query=2``) in a run of
    ``seconds``; at least two. The count depends on nothing else, so
    every run of one seed executes the same queries on every commit."""
    return max(2, math.ceil(QUERIES_PER_SECOND * seconds / per_query))


def setup(
    workload: Workload, seed: int, queries: int, scratch: Path
) -> List[Query]:
    """Generate the run's relations, build their crowds and run one
    small warm-up query of the same workload."""
    warmup = Query(
        workload, workload.relation(seed, n=WARMUP_N), seed, scratch
    )
    try:
        workload.scheduler(warmup.relation, warmup.crowd)
    finally:
        warmup.close()
    return [
        Query(workload, workload.relation(seed + i), seed + i, scratch)
        for i in range(queries)
    ]


def timed_query(
    workload: Workload, query: Query
) -> Tuple[CrowdSkylineResult, float]:
    start = time.perf_counter()
    result = workload.scheduler(query.relation, query.crowd)
    return result, time.perf_counter() - start


def check(
    workload: Workload, relation: Relation, result: CrowdSkylineResult
) -> List[str]:
    """Problems with one query's output; empty when it is correct.

    A perfect crowd's skyline must equal the ground truth exactly.
    """
    problems = []
    if len(result.question_log) != result.stats.questions:
        problems.append(
            f"question log holds {len(result.question_log)} questions, "
            f"stats count {result.stats.questions}"
        )
    keys = [question.key() for _, question, _ in result.question_log]
    if len(set(keys)) != len(keys):
        problems.append("a question was asked twice")
    if not workload.noisy and result.skyline != ground_truth_skyline(
        relation
    ):
        problems.append("skyline differs from the ground truth")
    return problems


def accuracy(
    workload: Workload, relation: Relation, result: CrowdSkylineResult
) -> AccuracyReport:
    """``precision_recall`` of a checked result. A perfect crowd's
    skyline has already matched the ground truth, which scores 1.0 on
    both by definition, so its second ground-truth pass is skipped."""
    if workload.noisy:
        return precision_recall(result.skyline, relation)
    return AccuracyReport(precision=1.0, recall=1.0, predicted_new=0,
                          truth_new=0)


def _report_failure(index: int, exc: BaseException) -> None:
    print(f"query {index} failed: {exc}", file=sys.stderr)
    traceback.print_exception(type(exc), exc, exc.__traceback__)


class QueryFailed(Exception):
    """A query's output failed a check."""


def timed_run(workload: Workload, queries: List[Query]) -> Dict[str, float]:
    """Run every query untraced; return the end-to-end metrics other
    than ``setup_s`` and ``peak_rss_bytes``, plus ``attempted``,
    ``failed`` and, for information, ``first_query_ratio`` (the first
    query's time over the median), the run's ``slowdown`` and
    ``raw_query_p50_s`` (not normalised).

    A speed probe runs before each query; query times are divided by
    the run's slowdown.
    """
    walls: List[float] = []
    probes: List[float] = []
    questions = rounds = 0
    cost = 0.0
    correct = predicted = truth_new = 0
    failed = 0
    for index, query in enumerate(queries):
        probes.append(speed.probe(PROBE_KERNELS))
        try:
            result, wall = timed_query(workload, query)
            problems = check(workload, query.relation, result)
            if problems:
                raise QueryFailed("; ".join(problems))
            report = accuracy(workload, query.relation, result)
        except Exception as exc:  # one bad query must not end the run
            failed += 1
            _report_failure(index, exc)
            continue
        finally:
            query.close()
        walls.append(wall)
        questions += result.stats.questions
        rounds += result.stats.rounds
        cost += result.stats.hit_cost()
        correct += round(report.precision * report.predicted_new)
        predicted += report.predicted_new
        truth_new += report.truth_new
    ok = len(walls)
    if not ok:
        raise RuntimeError("no query of the run succeeded")
    slowdown = speed.slowdown(probes)
    raw_p50 = statistics.median(walls)
    return {
        "attempted": len(queries),
        "failed": failed,
        "queries_per_s": ok * slowdown / sum(walls),
        "query_p50_s": raw_p50 / slowdown,
        "questions_per_query": questions / ok,
        "rounds_per_query": rounds / ok,
        "cost_usd_per_query": cost / ok,
        "precision": correct / predicted if predicted else 1.0,
        "recall": correct / truth_new if truth_new else 1.0,
        "success_ratio": ok / len(queries),
        "first_query_ratio": walls[0] / raw_p50,
        "slowdown": slowdown,
        "raw_query_p50_s": raw_p50,
    }


def _same_output(a: CrowdSkylineResult, b: CrowdSkylineResult) -> bool:
    return a.skyline == b.skyline and a.question_log == b.question_log


def traced_run(
    workload: Workload,
    seed: int,
    pairs: int,
    scratch: Path,
) -> Dict[str, float]:
    """Run each relation untraced and traced, alternating which goes
    first; return the per-layer metrics, plus ``attempted`` and
    ``failed``.

    Per-layer values are means over the traced queries that returned.
    The traced output must equal the untraced one, so the wrappers
    provably change nothing.
    """
    relations = [workload.relation(seed + i) for i in range(pairs)]
    trace = LayerTrace()
    traced_walls: List[float] = []
    ratios: List[float] = []
    failed = 0
    for index, relation in enumerate(relations):
        results: Dict[bool, Tuple[CrowdSkylineResult, float]] = {}
        try:
            for with_trace in ((False, True) if index % 2 == 0
                               else (True, False)):
                query = Query(workload, relation, seed + index, scratch)
                try:
                    if with_trace:
                        with traced(trace):
                            results[True] = timed_query(workload, query)
                        traced_walls.append(results[True][1])
                        _tally_query(trace, results[True][0], query)
                    else:
                        results[False] = timed_query(workload, query)
                finally:
                    query.close()
            problems = check(workload, relation, results[False][0])
            if not _same_output(results[False][0], results[True][0]):
                problems.append("traced output differs from untraced")
            if problems:
                raise QueryFailed("; ".join(problems))
        except Exception as exc:  # one bad query must not end the run
            failed += 1
            _report_failure(index, exc)
            continue
        ratios.append(results[True][1] / results[False][1])
    if not ratios:
        raise RuntimeError("no traced query of the run succeeded")
    metrics = layer_metrics(trace, traced_walls)
    metrics["trace.overhead_ratio"] = statistics.median(ratios) - 1.0
    metrics["attempted"] = 2 * len(relations)
    metrics["failed"] = 2 * failed
    return metrics


def _tally_query(
    trace: LayerTrace, result: CrowdSkylineResult, query: Query
) -> None:
    """Fold one traced query's end-of-run state into the trace."""
    counts = trace.counts
    prefs = trace.prefs
    if prefs is not None:
        counts["pref.memo_hits"] += prefs.cache_hits
        counts["pref.memo_misses"] += prefs.cache_misses
        counts["pref.closure_updates"] += prefs.closure_updates()
        trace.prefs = None
    stats = result.stats
    counts["crowd.postings"] += len(result.cost_records)
    counts["crowd.worker_assignments"] += stats.worker_assignments
    counts["crowd.cached"] += stats.cached_hits
    counts["crowd.questions"] += stats.questions
    counts["journal.bytes"] += query.close()


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(
    trace: LayerTrace, walls: List[float]
) -> Dict[str, float]:
    """Per-query means of the traced run's self times and tallies.

    The ``*.self_s`` values plus ``scheduler.self_s`` sum to
    ``trace.query_wall_s``.
    """
    q = len(walls)
    counts = trace.counts
    metrics = {f"{span}.self_s": trace.self_s[span] / q for span in SPANS}
    metrics["scheduler.self_s"] = (sum(walls) - trace.wrapped_s()) / q
    metrics["trace.query_wall_s"] = sum(walls) / q
    metrics["engine.build_context.s"] = (
        trace.total_s["engine.build_context"] / q
    )
    for span in ("pref.resolve_pairs", "pref.sky_ac",
                 "pref.apply_verdicts", "tasks.advance"):
        metrics[f"{span}.calls"] = trace.calls[span] / q
    for name in ("skyline.ds_members", "skyline.cover_edges",
                 "pref.pairs_resolved", "pref.verdicts",
                 "pref.closure_updates", "tasks.requests",
                 "crowd.postings", "crowd.worker_assignments",
                 "journal.fsyncs", "journal.bytes"):
        metrics[name] = counts[name] / q
    metrics["pref.memo_hit_ratio"] = _ratio(
        counts["pref.memo_hits"],
        counts["pref.memo_hits"] + counts["pref.memo_misses"],
    )
    metrics["pref.accepted_ratio"] = _ratio(
        counts["pref.accepted"], counts["pref.verdicts"]
    )
    metrics["crowd.cache_served_ratio"] = _ratio(
        counts["crowd.cached"],
        counts["crowd.cached"] + counts["crowd.questions"],
    )
    metrics["journal.bytes_per_question"] = _ratio(
        counts["journal.bytes"], counts["crowd.questions"]
    )
    return metrics


def memory_pass(
    workload: Workload, seed: int, scratch: Path
) -> Dict[str, float]:
    """Bytes allocated by ``build_context`` that its context retains,
    and its allocation peak, under ``tracemalloc`` (means over
    :data:`MEMORY_RELATIONS` relations)."""
    retained: List[int] = []
    peaks: List[int] = []
    for index in range(MEMORY_RELATIONS):
        query = Query(
            workload, workload.relation(seed + index), seed + index, scratch
        )
        try:
            tracemalloc.start()
            try:
                context = build_context(query.relation, query.crowd)
                current, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            del context
        finally:
            query.close()
        retained.append(current)
        peaks.append(peak)
    return {
        "engine.build_context.retained_bytes": statistics.mean(retained),
        "engine.build_context.peak_bytes": statistics.mean(peaks),
    }
