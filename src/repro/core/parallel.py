"""Parallel question scheduling (paper §4).

Two schedulers reduce the number of rounds by asking independent
questions together, both built on the same per-tuple state machine and
pruning rules as serial CrowdSky (so they preserve its correctness,
paper §4.2):

* :func:`parallel_dset` (§4.1) — partitions tuples into groups of equal
  ``|DS(t)|`` (tuples within a group cannot dominate each other, Lemma 3,
  so (C1) dependencies cannot cross the group), processes groups
  sequentially, and runs tuples of a group in lockstep when their
  dominating sets are pairwise disjoint (no (C2) dependency). Each
  tuple's own question sequence stays sequential ((C3)).
* :func:`parallel_sl` (§4.2, Algorithm 2) — computes skyline layers and
  the covering graph; a tuple becomes active as soon as every direct
  dominator ``c(t)`` is complete. (C2) dependencies are deliberately
  violated — overlapping dominating sets may probe the same pair in one
  round — which the paper accepts for ~10% extra questions and a
  two-orders-of-magnitude round reduction. Duplicates inside a round are
  merged by the platform, and the extra questions emerge naturally from
  concurrent evaluation.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Set, Tuple as TupleT

import numpy as np

from repro.core.crowdsky import CrowdSkyConfig
from repro.core.engine import (
    ExecutionContext,
    ask_batch,
    build_context,
    ensure_run_header,
    record_pref_stats,
    record_tuple,
    request_unresolved,
    tuple_trace,
)
from repro.core.result import CrowdSkylineResult
from repro.core.tasks import PairRequest, TaskOutcome, TupleTask
from repro.crowd.platform import SimulatedCrowd
from repro.data.relation import Relation
from repro.exceptions import CrowdSkyError
from repro.obs import phase, run_span
from repro.skyline.dominating import packed_bool_rows
from repro.skyline.layers import covering_graph_from_matrix


def _make_task(
    context: ExecutionContext, t: int, config: CrowdSkyConfig
) -> TupleTask:
    level = config.pruning
    return TupleTask(
        t,
        context.ds_in_eval_order(t),
        context.prefs,
        context.frequency,
        use_p1=level.use_p1,
        use_p2=level.use_p2,
        use_p3=level.use_p3,
        probe_ascending=config.probe_ascending,
        multiway=config.multiway,
    )


def _finalize(
    context: ExecutionContext,
    task: TupleTask,
    skyline: Set[int],
    complete_non_skyline: np.ndarray,
) -> None:
    if task.outcome is TaskOutcome.NON_SKYLINE:
        complete_non_skyline[task.t] = True
    else:
        skyline.add(task.t)
    record_tuple(context, tuple_trace(), task.t, task.outcome.value)


def _result(
    context: ExecutionContext, skyline: Set[int], algorithm: str
) -> CrowdSkylineResult:
    record_pref_stats(context)
    return CrowdSkylineResult(
        skyline=skyline,
        stats=context.crowd.stats,
        question_log=list(context.crowd.question_log),
        algorithm=algorithm,
        rejected_answers=context.prefs.total_rejected(),
        degraded=context.degraded,
        unresolved_pairs=sorted(context.unresolved_pairs),
        fault_stats=context.crowd.fault_stats,
        budget_exhausted=context.crowd.budget_degraded,
        metrics=context.crowd.metrics,
        cost_records=list(context.crowd.cost_records),
    )


# ---------------------------------------------------------------------------
# ParallelDSet (§4.1)
# ---------------------------------------------------------------------------


def parallel_dset(
    relation: Relation,
    crowd: Optional[SimulatedCrowd] = None,
    config: Optional[CrowdSkyConfig] = None,
    visible_crowd: Optional[Iterable[int]] = None,
) -> CrowdSkylineResult:
    """CrowdSky with the dominating-set partitioning scheduler (§4.1)."""
    config = config or CrowdSkyConfig()
    if crowd is None:
        crowd = SimulatedCrowd(relation)
    crowd.set_cost_context(scheduler="parallel_dset")
    visible = (
        sorted(set(visible_crowd)) if visible_crowd is not None else None
    )
    ensure_run_header(
        crowd,
        "parallel_dset",
        {"config": config.to_payload(), "visible_crowd": visible},
    )
    with run_span(
        "parallel_dset", n=len(relation), pruning=config.pruning.value
    ) as span:
        context = build_context(
            relation,
            crowd,
            policy=config.policy,
            ac_round_robin=config.ac_round_robin,
            visible_crowd=visible,
            backend=config.backend,
            shards=config.shards,
            shard_jobs=config.shard_jobs,
            shard_partitioner=config.shard_partitioner,
        )

        skyline: Set[int] = set()
        complete_non_skyline = ~context.keep

        with phase("evaluate"):
            # Group by |DS(t)|; the empty-DS group needs no questions.
            groups: Dict[int, List[int]] = {}
            for t in context.eval_order():
                groups.setdefault(context.ds_sizes[t], []).append(t)
            trace = tuple_trace()
            for t in groups.pop(0, []):
                skyline.add(t)
                record_tuple(context, trace, t, "skyline")

            for size in sorted(groups):
                # Charge each |DS(t)|-group's rounds as one "layer".
                context.crowd.set_cost_context(
                    phase="evaluate", layer=size
                )
                members = groups[size]
                for batch in _disjoint_batches(
                    context, members, complete_non_skyline
                ):
                    _run_lockstep(
                        context, batch, config, skyline, complete_non_skyline
                    )

        result = _result(
            context, skyline, f"ParallelDSet[{config.pruning.value}]"
        )
    if span is not None:
        result.wall_time_s = span.duration_s
    return result


def _disjoint_batches(
    context: ExecutionContext,
    members: List[int],
    complete_non_skyline: np.ndarray,
) -> List[List[int]]:
    """First-fit partition of a group into batches whose (pruned)
    dominating sets are pairwise disjoint — the (C2) independence check.

    Each member's ``DS(t)`` without the complete non-skyline tuples is
    its matrix column masked by ``~complete_non_skyline`` (which covers
    the preprocessed tuples too), packed into a uint64 row, so a
    member's disjointness test against every open batch is one
    vectorized AND + ``any`` over the union rows instead of a Python
    loop. First-fit order (and therefore the batch composition and every
    downstream question) is identical to the scalar implementation."""
    ds_rows = packed_bool_rows(
        context.matrix[:, members].T & ~complete_non_skyline
    )
    batches: List[List[int]] = []
    unions = np.zeros_like(ds_rows)
    open_batches = 0
    for index, t in enumerate(members):
        ds = ds_rows[index]
        placed = -1
        if open_batches:
            conflict = (unions[:open_batches] & ds).any(axis=1)
            free = np.nonzero(~conflict)[0]
            if free.size:
                placed = int(free[0])
        if placed >= 0:
            batches[placed].append(t)
            unions[placed] |= ds
        else:
            batches.append([t])
            unions[open_batches] = ds
            open_batches += 1
    return batches


def _run_lockstep(
    context: ExecutionContext,
    batch: List[int],
    config: CrowdSkyConfig,
    skyline: Set[int],
    complete_non_skyline: np.ndarray,
) -> None:
    """Run a batch of independent tuples in lockstep rounds."""
    tasks = [_make_task(context, t, config) for t in batch]
    for task in tasks:
        task.activate(complete_non_skyline)
    active = list(tasks)
    while active:
        requests: List[TupleT[TupleTask, PairRequest]] = []
        still_active: List[TupleTask] = []
        for task in active:
            request = task.advance()
            if request is None:
                _finalize(context, task, skyline, complete_non_skyline)
            else:
                requests.append((task, request))
                still_active.append(task)
        if requests:
            ask_batch(context, [request for _, request in requests])
            for task, request in requests:
                if request_unresolved(context, request):
                    task.abandon_request(request)
        active = still_active


# ---------------------------------------------------------------------------
# ParallelSL (§4.2, Algorithm 2)
# ---------------------------------------------------------------------------


def parallel_sl(
    relation: Relation,
    crowd: Optional[SimulatedCrowd] = None,
    config: Optional[CrowdSkyConfig] = None,
    visible_crowd: Optional[Iterable[int]] = None,
) -> CrowdSkylineResult:
    """CrowdSky with the skyline-layer scheduler (Algorithm 2, §4.2)."""
    config = config or CrowdSkyConfig()
    if crowd is None:
        crowd = SimulatedCrowd(relation)
    crowd.set_cost_context(scheduler="parallel_sl")
    visible = (
        sorted(set(visible_crowd)) if visible_crowd is not None else None
    )
    ensure_run_header(
        crowd,
        "parallel_sl",
        {"config": config.to_payload(), "visible_crowd": visible},
    )
    with run_span(
        "parallel_sl", n=len(relation), pruning=config.pruning.value
    ) as span:
        context = build_context(
            relation,
            crowd,
            policy=config.policy,
            ac_round_robin=config.ac_round_robin,
            visible_crowd=visible,
            backend=config.backend,
            shards=config.shards,
            shard_jobs=config.shard_jobs,
            shard_partitioner=config.shard_partitioner,
        )

        cover = covering_graph_from_matrix(context.matrix)

        skyline: Set[int] = set()
        complete_non_skyline = ~context.keep
        complete: Set[int] = set(context.removed)

        pending: List[int] = []
        trace = tuple_trace()
        for t in context.eval_order():
            if not context.ds_sizes[t]:
                skyline.add(t)  # SL1: complete skyline tuples, C's seed
                complete.add(t)
                record_tuple(context, trace, t, "skyline")
            else:
                pending.append(t)

        tasks: Dict[int, TupleTask] = {}
        finished: Set[int] = set()

        with phase("evaluate"):
            wave = 0
            while len(finished) < len(pending):
                wave += 1
                # Each activation wave is one "layer" for attribution.
                context.crowd.set_cost_context(
                    phase="evaluate", layer=wave
                )
                requests: Dict[int, PairRequest] = {}
                changed = True
                while changed:
                    changed = False
                    for t in pending:
                        if t in finished or t in requests:
                            continue
                        task = tasks.get(t)
                        if task is None:
                            if not cover[t] <= complete:
                                continue
                            task = tasks[t] = _make_task(context, t, config)
                            task.activate(complete_non_skyline)
                        request = task.advance()
                        if request is None:
                            _finalize(
                                context, task, skyline, complete_non_skyline
                            )
                            complete.add(t)
                            finished.add(t)
                            changed = True
                        else:
                            requests[t] = request
                if not requests:
                    if len(finished) < len(pending):  # pragma: no cover
                        raise CrowdSkyError(
                            "ParallelSL deadlock: tuples waiting on "
                            "incomplete dominators with no questions in "
                            "flight"
                        )
                    break
                ask_batch(context, requests.values())
                for t, request in requests.items():
                    if request_unresolved(context, request):
                        tasks[t].abandon_request(request)

        result = _result(
            context, skyline, f"ParallelSL[{config.pruning.value}]"
        )
    if span is not None:
        result.wall_time_s = span.duration_s
    return result
