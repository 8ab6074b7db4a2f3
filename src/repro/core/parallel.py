"""Parallel question scheduling (paper §4).

Two schedulers reduce the number of rounds by asking independent
questions together. Both are policies over serial CrowdSky's evaluate
phase (:class:`~repro.core.crowdsky.Evaluation`), so they keep its
per-tuple state machine and pruning rules and preserve its correctness
(paper §4.2):

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

from typing import Callable, Dict, Iterable, Iterator, List, Optional

import numpy as np

from repro.core.crowdsky import CrowdSkyConfig, Evaluation
from repro.core.engine import (
    ExecutionContext,
    build_context,
    ensure_run_header,
    visible_tuples,
)
from repro.core.result import CrowdSkylineResult
from repro.core.tasks import TaskOutcome, TupleTask
from repro.crowd.platform import SimulatedCrowd
from repro.data.relation import Relation
from repro.exceptions import CrowdSkyError
from repro.obs import phase, run_span
from repro.skyline.dominating import packed_bool_rows
from repro.skyline.layers import covering_graph_from_matrix


def _run(
    scheduler: str,
    label: str,
    policy: Callable[[Evaluation], None],
    relation: Relation,
    crowd: Optional[SimulatedCrowd],
    config: Optional[CrowdSkyConfig],
    visible_crowd: Optional[Iterable[int]],
) -> CrowdSkylineResult:
    """One parallel scheduler run: journal header, machine phase, the
    evaluate phase driven by ``policy``, and the result.

    Round robin is refused before any header is written or question
    posted: a parallel round asks every attribute of its pairs at once.
    """
    config = config or CrowdSkyConfig()
    if config.ac_round_robin:
        raise CrowdSkyError(
            f"{scheduler} does not support ac_round_robin; round-robin "
            "asking is for the serial schedulers only"
        )
    if crowd is None:
        crowd = SimulatedCrowd(relation)
    crowd.set_cost_context(scheduler=scheduler)
    visible = visible_tuples(relation, visible_crowd)
    ensure_run_header(
        crowd,
        scheduler,
        {"config": config.to_payload(), "visible_crowd": visible},
    )
    with run_span(
        scheduler, n=len(relation), pruning=config.pruning.value
    ) as span:
        context = build_context(relation, crowd, visible_crowd=visible)
        evaluation = Evaluation(context, config)
        policy(evaluation)
        result = evaluation.result(f"{label}[{config.pruning.value}]")
    if span is not None:
        result.wall_time_s = span.duration_s
    return result


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
    return _run(
        "parallel_dset", "ParallelDSet", _dset_policy,
        relation, crowd, config, visible_crowd,
    )


def _dset_policy(evaluation: Evaluation) -> None:
    """Groups of equal ``|DS(t)|`` in ascending order, each split into
    batches of disjoint dominating sets that are started together and
    advance in lockstep."""
    context = evaluation.context
    with phase("evaluate"):
        # Group by |DS(t)|; the empty-DS group needs no questions.
        groups: Dict[int, List[int]] = {}
        for t in context.eval_order():
            groups.setdefault(context.ds_sizes[t], []).append(t)
        for t in groups.pop(0, []):
            evaluation.decide(t, TaskOutcome.SKYLINE)

        for size in sorted(groups):
            # Charge each |DS(t)|-group's rounds as one "layer".
            context.crowd.set_cost_context(phase="evaluate", layer=size)
            for batch in _disjoint_batches(context, groups[size]):
                evaluation.lockstep(evaluation.start(batch))


def _disjoint_batches(
    context: ExecutionContext, members: List[int]
) -> List[List[int]]:
    """First-fit partition of a group into batches whose dominating
    sets are pairwise disjoint — the (C2) independence check.

    The sets are the members' whole matrix columns. Dropping the
    complete non-skyline tuples first (P1) cannot change a batch: the
    tuple that made ``s`` non-skyline dominates ``s`` in ``AK``, so it
    lies in every ``DS`` that holds ``s``, and a preprocessed twin is
    equal to its survivor in ``AK``, so the same holds for it. Following
    such tuples ends at a tuple P1 keeps that both sets share, so two
    columns overlap exactly when their pruned forms do.

    Each column is packed into a uint64 row, so a member's disjointness
    test against every open batch is one vectorized AND + ``any`` over
    the union rows instead of a Python loop. First-fit order (and
    therefore the batch composition and every downstream question) is
    identical to the scalar implementation."""
    ds_rows = packed_bool_rows(context.matrix[:, members].T)
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
    return _run(
        "parallel_sl", "ParallelSL", _sl_policy,
        relation, crowd, config, visible_crowd,
    )


def _sl_policy(evaluation: Evaluation) -> None:
    """Each round, every undecided tuple whose direct dominators
    ``c(t)`` are complete.

    Readiness is event-driven: each pending tuple counts its direct
    dominators that are not yet complete, and each tuple lists the
    positions of the tuples waiting on it, so a decision touches only
    its waiters.

    A pass runs in waves. The first wave advances the running tasks
    (in the first pass, the tasks of the tuples ready from the start).
    Every tuple that wave's decisions readied is then activated in one
    :meth:`~repro.core.crowdsky.Evaluation.start`, and the next wave
    advances those tasks. Waves repeat only while a newly activated
    task decides on its first advance, which needs its questions known
    before any was asked: visible tuples, for example. Each started
    tuple gets the task it would get alone, since its ``DS`` members
    are all complete already and the closure does not change until the
    round is posted. :meth:`~repro.core.crowdsky.Evaluation.step`
    posts the round in evaluation order, so a pass asks the questions
    of a scan of every pending tuple in evaluation order, repeated
    until a scan decides nothing.
    """
    context = evaluation.context
    complete = evaluation.complete
    cover = covering_graph_from_matrix(context.matrix)
    pending: List[int] = []
    for t in context.eval_order():
        if context.ds_sizes[t]:
            pending.append(t)
        else:
            # SL1: complete skyline tuples, C's seed.
            evaluation.decide(t, TaskOutcome.SKYLINE)
    # blocked[i]: direct dominators of pending[i] not yet complete;
    # waiters[s]: positions of the pending tuples that wait on s.
    blocked: List[int] = []
    waiters: Dict[int, List[int]] = {}
    ready: List[int] = []
    for i, t in enumerate(pending):
        blockers = [s for s in cover[t] if s not in complete]
        blocked.append(len(blockers))
        for s in blockers:
            waiters.setdefault(s, []).append(i)
        if not blockers:
            ready.append(i)

    def activate(positions: List[int]) -> List[TupleTask]:
        if not positions:
            return []
        positions.sort()
        return evaluation.start([pending[i] for i in positions])

    def waves(wave: List[TupleTask]) -> Iterator[TupleTask]:
        while wave:
            readied: List[int] = []
            for task in wave:
                yield task
                if task.t in complete:
                    for waiter in waiters.pop(task.t, ()):
                        blocked[waiter] -= 1
                        if not blocked[waiter]:
                            readied.append(waiter)
            wave = activate(readied)

    with phase("evaluate"):
        running = activate(ready)
        layer = 0
        while len(complete) < context.n:
            layer += 1
            # Each pass is one "layer" for attribution.
            context.crowd.set_cost_context(phase="evaluate", layer=layer)
            running = evaluation.step(waves(running))
            if not running and len(complete) < context.n:
                raise CrowdSkyError(  # pragma: no cover
                    "ParallelSL deadlock: tuples waiting on incomplete "
                    "dominators with no questions in flight"
                )
