"""The serial CrowdSky algorithm (paper Algorithm 1, §3).

``crowdsky`` minimizes monetary cost: one pair-wise question per round,
evaluation in ascending ``|DS(t)|`` order, with the pruning ladder

* **DSet** (§3.1) — restrict questions to dominating sets (Lemma 1),
* **P1** (§3.2) — evaluation ordering + dropping complete non-skyline
  tuples from later dominating sets (Corollary 1) + early termination of
  ``Q(t)`` once ``t`` is dominated,
* **P2** (§3.3) — reduce ``DS(t)`` to ``SKY_AC(DS(t))`` using the
  transitivity captured in the preference graph (Corollary 2),
* **P3** (§3.4) — probe pairs inside ``DS(t)`` ordered by descending
  ``freq(u, v)`` before generating ``Q(t)``.

The :class:`PruningLevel` presets mirror the paper's Figures 6-7 series
(``Baseline`` is :func:`repro.core.baseline.baseline_skyline`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Optional, Set

from repro.core.engine import (
    ExecutionContext,
    ask_pair,
    build_context,
    ensure_run_header,
    record_pref_stats,
    record_tuple,
    request_unresolved,
    tuple_trace,
)
from repro.core.preference import ContradictionPolicy
from repro.core.result import CrowdSkylineResult
from repro.core.tasks import TaskOutcome, TupleTask
from repro.crowd.platform import SimulatedCrowd
from repro.questions import Preference
from repro.data.relation import Relation
from repro.exceptions import BudgetExhaustedError
from repro.obs import current_observation, phase, run_span
from repro.obs.metrics import TUPLES_EVALUATED


class PruningLevel(enum.Enum):
    """The paper's ablation ladder over CrowdSky's pruning methods."""

    DSET = "DSet"
    P1 = "P1"
    P1_P2 = "P1+P2"
    P1_P2_P3 = "P1+P2+P3"

    @property
    def use_p1(self) -> bool:
        return self is not PruningLevel.DSET

    @property
    def use_p2(self) -> bool:
        return self in (PruningLevel.P1_P2, PruningLevel.P1_P2_P3)

    @property
    def use_p3(self) -> bool:
        return self is PruningLevel.P1_P2_P3


@dataclass(frozen=True)
class CrowdSkyConfig:
    """Execution options for CrowdSky and the parallel schedulers.

    Parameters
    ----------
    pruning:
        Which pruning methods are active (default: all, the full
        CrowdSky).
    policy:
        Contradiction handling for noisy crowds.
    ac_round_robin:
        Ask multi-attribute pairs one crowd attribute per round, skipping
        the rest once the pair's outcome is decided (the optional
        round-robin strategy mentioned in §6.1).
    probe_ascending:
        Ablation: probe pairs in ascending ``freq`` order (Algorithm 1
        line 11's literal wording) instead of the prose's descending.
    multiway:
        Probe with m-ary questions showing up to this many tuples at
        once (the §2.1 extension; effective with ``|AC| = 1``). The
        default 2 keeps the paper's pairwise format.
    backend:
        Preference-closure backend: ``'numpy'`` (packed uint64 closure
        matrices with a bulk query kernel, the fast default) or
        ``'reference'`` (the original set-based implementation, kept as
        the executable specification). None defers to the
        ``REPRO_PREF_BACKEND`` environment variable. Both backends
        produce identical questions, rounds and skylines — the
        differential suite pins them together.
    shards:
        Shard count for the machine phase (``1`` = the serial path).
        Any value yields byte-identical layers, dominating sets and
        question order (docs/sharding.md); ``tests/test_sharded.py``
        pins the equality.
    shard_jobs:
        Worker processes for the sharded machine phase; ``1`` computes
        shards inline (still skipping the serial path's duplicate
        dominance pass), ``> 1`` fans out over a
        ``ProcessPoolExecutor``.
    shard_partitioner:
        ``'range'`` (contiguous blocks) or ``'hash'`` (seeded hash
        assignment); see :data:`repro.skyline.sharded.PARTITIONERS`.
    """

    pruning: PruningLevel = PruningLevel.P1_P2_P3
    policy: ContradictionPolicy = ContradictionPolicy.KEEP_FIRST
    ac_round_robin: bool = False
    probe_ascending: bool = False
    multiway: int = 2
    backend: Optional[str] = None
    shards: int = 1
    shard_jobs: int = 1
    shard_partitioner: str = "range"

    def to_payload(self) -> dict:
        """JSON-able form, recorded in a run's journal header."""
        return {
            "pruning": self.pruning.value,
            "policy": self.policy.value,
            "ac_round_robin": self.ac_round_robin,
            "probe_ascending": self.probe_ascending,
            "multiway": self.multiway,
            "backend": self.backend,
            "shards": self.shards,
            "shard_jobs": self.shard_jobs,
            "shard_partitioner": self.shard_partitioner,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CrowdSkyConfig":
        """Inverse of :meth:`to_payload` (the resume path).

        The shard fields default when absent so journals written before
        the sharded machine phase existed still resume.
        """
        return cls(
            pruning=PruningLevel(payload["pruning"]),
            policy=ContradictionPolicy(payload["policy"]),
            ac_round_robin=payload["ac_round_robin"],
            probe_ascending=payload["probe_ascending"],
            multiway=payload["multiway"],
            backend=payload["backend"],
            shards=payload.get("shards", 1),
            shard_jobs=payload.get("shard_jobs", 1),
            shard_partitioner=payload.get("shard_partitioner", "range"),
        )


def crowdsky(
    relation: Relation,
    crowd: Optional[SimulatedCrowd] = None,
    config: Optional[CrowdSkyConfig] = None,
    visible_crowd: Optional[Iterable[int]] = None,
) -> CrowdSkylineResult:
    """Compute the crowdsourced skyline of ``relation`` serially.

    Parameters
    ----------
    relation:
        Dataset with at least one crowd attribute.
    crowd:
        Crowd platform; defaults to a perfect simulated crowd (the §3
        assumption). Pass a noisy :class:`SimulatedCrowd` for accuracy
        experiments.
    config:
        Pruning/selection options.
    visible_crowd:
        Tuple indices whose crowd values are stored in the database (the
        §2.2 partial-incompleteness extension): their mutual preferences
        are seeded into the preference graph and never crowdsourced.

    Returns
    -------
    CrowdSkylineResult
        Skyline indices plus full question/round/cost accounting.
    """
    config = config or CrowdSkyConfig()
    if crowd is None:
        crowd = SimulatedCrowd(relation)
    crowd.set_cost_context(scheduler="crowdsky")
    visible = (
        sorted(set(visible_crowd)) if visible_crowd is not None else None
    )
    ensure_run_header(
        crowd,
        "crowdsky",
        {"config": config.to_payload(), "visible_crowd": visible},
    )
    with run_span(
        "crowdsky", n=len(relation), pruning=config.pruning.value
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
        result = _run_serial(context, config)
    if span is not None:
        result.wall_time_s = span.duration_s
    return result


def crowdsky_budgeted(
    relation: Relation,
    max_questions: int,
    crowd: Optional[SimulatedCrowd] = None,
    config: Optional[CrowdSkyConfig] = None,
) -> CrowdSkylineResult:
    """CrowdSky under a fixed question budget (the setting of [12]).

    The paper's CrowdSky computes a *complete* skyline by spending as
    many questions as its pruning requires; the prior work [12] instead
    fixes a budget and returns a best-effort answer. This extension runs
    CrowdSky until ``max_questions`` are spent, then finalizes with the
    paper's default-skyline semantics (§2.3): a tuple stays in the
    skyline unless some dominating-set member is already known to
    dominate it. With a generous budget the result equals the complete
    skyline; with zero budget it degrades to ``SKY_AK(R)`` plus every
    incomplete tuple.

    Returns a result with ``budget_exhausted`` and ``complete_tuples``
    populated.
    """
    config = config or CrowdSkyConfig()
    if crowd is None:
        crowd = SimulatedCrowd(relation)
    crowd.set_cost_context(scheduler="crowdsky_budgeted")
    crowd.set_budget(max_questions)
    ensure_run_header(
        crowd,
        "crowdsky_budgeted",
        {"config": config.to_payload(), "max_questions": max_questions},
    )
    with run_span(
        "crowdsky_budgeted", n=len(relation), budget=max_questions
    ) as span:
        result = _run_budgeted(relation, crowd, config, max_questions)
    if span is not None:
        result.wall_time_s = span.duration_s
    return result


def _run_budgeted(
    relation: Relation,
    crowd: SimulatedCrowd,
    config: CrowdSkyConfig,
    max_questions: int,
) -> CrowdSkylineResult:
    try:
        context = build_context(
            relation,
            crowd,
            policy=config.policy,
            ac_round_robin=config.ac_round_robin,
            backend=config.backend,
            shards=config.shards,
            shard_jobs=config.shard_jobs,
            shard_partitioner=config.shard_partitioner,
        )
    except BudgetExhaustedError:
        # Not even the degenerate-case preprocessing fit the budget. With
        # zero AC knowledge every tuple is incomparable and by default in
        # the skyline (§2.3).
        return CrowdSkylineResult(
            skyline=set(range(len(relation))),
            stats=crowd.stats,
            question_log=list(crowd.question_log),
            algorithm=f"CrowdSky[budget={max_questions}]",
            budget_exhausted=True,
            complete_tuples=0,
            degraded=True,
            fault_stats=crowd.fault_stats,
            metrics=crowd.metrics,
            cost_records=list(crowd.cost_records),
        )
    level = config.pruning
    order = context.eval_order() if level.use_p1 else [
        t for t in range(context.n) if t not in context.removed
    ]

    complete_non_skyline: Set[int] = set(context.removed)
    skyline: Set[int] = set()
    complete = len(context.removed)
    exhausted = False
    undecided: Set[int] = set()

    with phase("evaluate"):
        trace = tuple_trace()
        for t in order:
            if exhausted:
                undecided.add(t)
                continue
            if not context.dominating[t]:
                skyline.add(t)
                complete += 1
                record_tuple(context, trace, t, "skyline")
                continue
            context.crowd.set_cost_context(phase="evaluate", tuple=t)
            task = TupleTask(
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
            task.activate(complete_non_skyline)
            try:
                request = task.advance()
                while request is not None:
                    ask_pair(context, request)
                    if request_unresolved(context, request):
                        task.abandon_request(request)
                    request = task.advance()
            except BudgetExhaustedError:
                exhausted = True
                undecided.add(t)
                continue
            complete += 1
            if task.outcome is TaskOutcome.NON_SKYLINE:
                complete_non_skyline.add(t)
            else:
                skyline.add(t)
            record_tuple(context, trace, t, task.outcome.value)

    context.crowd.set_cost_context(phase="finalize", tuple=None)
    # Default-skyline finalization for undecided tuples: keep them unless
    # a dominating-set member already dominates them in current knowledge
    # (any member counts — even a non-skyline one dominates t in A).
    # All candidate pairs are settled against the closure in one batch;
    # the undecided set is sorted once and reused (it is fixed here).
    undecided_order = sorted(undecided)
    finalize = context.prefs.resolve_pairs(
        (s, t) for t in undecided_order for s in context.dominating[t]
    )
    for t in undecided_order:
        dominated = any(
            all(
                rel is not None and rel is not Preference.RIGHT
                for rel in finalize[(s, t)]
            )
            for s in context.dominating[t]
        )
        if not dominated:
            skyline.add(t)

    record_pref_stats(context)
    return CrowdSkylineResult(
        skyline=skyline,
        stats=context.crowd.stats,
        question_log=list(context.crowd.question_log),
        algorithm=f"CrowdSky[{level.value}, budget={max_questions}]",
        rejected_answers=context.prefs.total_rejected(),
        budget_exhausted=exhausted or context.crowd.budget_degraded,
        complete_tuples=complete,
        degraded=exhausted or context.degraded,
        unresolved_pairs=sorted(context.unresolved_pairs),
        fault_stats=context.crowd.fault_stats,
        metrics=context.crowd.metrics,
        cost_records=list(context.crowd.cost_records),
    )


def _run_serial(
    context: ExecutionContext, config: CrowdSkyConfig
) -> CrowdSkylineResult:
    level = config.pruning
    if level.use_p1:
        order = context.eval_order()
    else:
        order = [t for t in range(context.n) if t not in context.removed]

    complete_non_skyline: Set[int] = set(context.removed)
    skyline: Set[int] = set()

    with phase("evaluate"):
        trace = tuple_trace()
        for t in order:
            if not context.dominating[t]:
                skyline.add(t)  # complete skyline tuple from start (§2.3)
                record_tuple(context, trace, t, "skyline")
                continue
            context.crowd.set_cost_context(phase="evaluate", tuple=t)
            task = TupleTask(
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
            task.activate(complete_non_skyline)
            request = task.advance()
            while request is not None:
                ask_pair(context, request)
                if request_unresolved(context, request):
                    task.abandon_request(request)
                request = task.advance()
            if task.outcome is TaskOutcome.NON_SKYLINE:
                complete_non_skyline.add(t)
            else:
                skyline.add(t)
            record_tuple(context, trace, t, task.outcome.value)

    record_pref_stats(context)
    return CrowdSkylineResult(
        skyline=skyline,
        stats=context.crowd.stats,
        question_log=list(context.crowd.question_log),
        algorithm=f"CrowdSky[{level.value}]",
        rejected_answers=context.prefs.total_rejected(),
        degraded=context.degraded,
        unresolved_pairs=sorted(context.unresolved_pairs),
        fault_stats=context.crowd.fault_stats,
        budget_exhausted=context.crowd.budget_degraded,
        metrics=context.crowd.metrics,
        cost_records=list(context.crowd.cost_records),
    )
