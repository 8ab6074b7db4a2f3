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

:class:`Evaluation` is the evaluate phase of Algorithm 1, which the §4
schedulers keep (§4.2): every scheduler runs it and differs only in the
policy that picks which tuples' tasks advance together into a round.
Algorithm 1's policy is one tuple at a time (:func:`_walk`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Set

import numpy as np

from repro.core.engine import (
    ExecutionContext,
    Request,
    ask_batch,
    build_context,
    ensure_run_header,
    request_unresolved,
    visible_tuples,
)
from repro.core.result import CrowdSkylineResult
from repro.core.tasks import TaskOutcome, TupleTask
from repro.crowd.platform import SimulatedCrowd
from repro.questions import Preference
from repro.data.relation import Relation
from repro.exceptions import BudgetExhaustedError, CrowdSkyError
from repro.obs import current_observation, phase, run_span


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
    """Execution options for CrowdSky and the parallel schedulers: the
    paper's ablations and extensions.

    Parameters
    ----------
    pruning:
        Which pruning methods are active (default: all, the full
        CrowdSky).
    ac_round_robin:
        Ask multi-attribute pairs one crowd attribute per round, skipping
        the rest once the pair's outcome is decided (the optional
        round-robin strategy mentioned in §6.1). Serial schedulers only:
        :func:`~repro.core.parallel.parallel_dset` and
        :func:`~repro.core.parallel.parallel_sl` raise
        :class:`~repro.exceptions.CrowdSkyError` on it.
    probe_ascending:
        Ablation: probe pairs in ascending ``freq`` order (Algorithm 1
        line 11's literal wording) instead of the prose's descending.
    multiway:
        Probe with m-ary questions showing up to this many tuples at
        once (the §2.1 extension; effective with P3 and ``|AC| = 1``).
        The default 2 keeps the paper's pairwise format.

    A ``multiway`` below 2 raises
    :class:`~repro.exceptions.CrowdSkyError` when the config is built.
    """

    pruning: PruningLevel = PruningLevel.P1_P2_P3
    ac_round_robin: bool = False
    probe_ascending: bool = False
    multiway: int = 2

    def __post_init__(self) -> None:
        """Refuse an invalid config where it is built, so no entry point
        (and no resume) writes a journal header or asks a question for
        it."""
        if self.multiway < 2:
            raise CrowdSkyError(
                f"multiway must be >= 2, got {self.multiway}"
            )

    def to_payload(self) -> dict:
        """JSON-able form, recorded in a run's journal header."""
        return {
            "pruning": self.pruning.value,
            "ac_round_robin": self.ac_round_robin,
            "probe_ascending": self.probe_ascending,
            "multiway": self.multiway,
        }

    @classmethod
    def from_payload(cls, payload: dict) -> "CrowdSkyConfig":
        """Inverse of :meth:`to_payload` (the resume path).

        Keys it does not read are ignored, so a header that still holds
        the three shard keys of the former sharded dominance matrix
        resumes as a serial run, which asks the same questions, and one
        that holds the former ``policy`` and ``backend`` keys resumes on
        the one closure graph, where the first answer wins.
        """
        return cls(
            pruning=PruningLevel(payload["pruning"]),
            ac_round_robin=payload["ac_round_robin"],
            probe_ascending=payload["probe_ascending"],
            multiway=payload["multiway"],
        )


class Evaluation:
    """The evaluate phase of one run, shared by every scheduler.

    Each tuple with a non-empty ``DS(t)`` is evaluated by a
    :class:`TupleTask`; the schedulers differ only in which tasks
    advance together into a round. :meth:`start` builds and activates
    the tasks of every tuple a policy is ready to activate, :meth:`step`
    advances a set of tasks by one round, and :meth:`decide` records a
    tuple's outcome: the skyline, P1's skyline rows, the complete set
    and the ``engine.tuple`` accounting.
    """

    def __init__(
        self, context: ExecutionContext, config: CrowdSkyConfig
    ) -> None:
        self.context = context
        level = config.pruning
        self._use_p1 = level.use_p1
        self._use_p2 = level.use_p2
        self._task_options = dict(
            use_p2=level.use_p2,
            use_p3=level.use_p3,
            probe_ascending=config.probe_ascending,
            multiway=config.multiway,
        )
        self.skyline: Set[int] = set()
        #: The complete tuples: preprocessed ones plus every decided one.
        self.complete: Set[int] = set(context.removed)
        order = context.order
        #: Every kept tuple's position in evaluation order.
        self._rank = np.empty(context.n, dtype=np.int64)
        self._rank[order] = np.arange(len(order))
        #: P1's rows: the evaluation-order positions of the skyline
        #: tuples decided so far, sorted, in the first ``_row_count``
        #: slots.
        self._row_ranks = np.empty(len(order), dtype=np.int64)
        self._row_count = 0
        observation = current_observation()
        self._observation = observation if observation.enabled else None

    def start(self, ts: Sequence[int]) -> List[TupleTask]:
        """Build and activate the tasks of the tuples ``ts`` together.

        With P1, ``DS(t)`` is read off the skyline rows found so far:
        every member of ``DS(t)`` is complete when ``t`` is ready (the
        walk and ParallelDSet go in ascending ``|DS|``, and ParallelSL
        waits for ``c(t)``), so dropping the complete non-skyline
        tuples (Corollary 1) leaves exactly ``t``'s dominators among
        them. Without P1 it is read off every kept row. All the
        columns are gathered in one step and become Python ints once;
        P2 is one grouped ``sky_ac`` call, and each task then builds
        only its probe ladder.
        """
        context = self.context
        rows = context.order
        if self._use_p1:
            rows = rows[self._row_ranks[: self._row_count]]
        hits = context.matrix.T[np.asarray(ts)[:, None], rows]
        _, at = hits.nonzero()
        members = rows[at].tolist()
        groups: List[List[int]] = []
        begin = 0
        for end in hits.sum(axis=1).cumsum().tolist():
            groups.append(members[begin:end])
            begin = end
        if self._use_p2:
            groups = context.prefs.sky_ac(groups)
        tasks = []
        for t, ds in zip(ts, groups):
            task = TupleTask(
                t, ds, context.prefs, context.frequency,
                **self._task_options,
            )
            task.activate()
            tasks.append(task)
        return tasks

    def decide(self, t: int, outcome: TaskOutcome) -> None:
        """Record ``t`` as complete with ``outcome``; traced when
        observing."""
        if outcome is TaskOutcome.SKYLINE:
            self.skyline.add(t)
            self._add_row(t)
        self.complete.add(t)
        observation = self._observation
        if observation is not None:
            observation.tracer.event(
                "engine.tuple", t=t, outcome=outcome.value
            )

    def _add_row(self, t: int) -> None:
        """Insert skyline tuple ``t`` into P1's rows at its rank."""
        count = self._row_count
        ranks = self._row_ranks
        rank = self._rank[t]
        at = int(np.searchsorted(ranks[:count], rank))
        ranks[at + 1:count + 1] = ranks[at:count]
        ranks[at] = rank
        self._row_count = count + 1

    def step(self, tasks: Iterable[TupleTask]) -> List[TupleTask]:
        """Advance ``tasks`` by one round; return those still running.

        A task with nothing left to ask is decided before the next task
        is drawn from ``tasks``, so a lazy policy can ready the tuples
        that wait on it in the same pass. The other tasks' requests are
        posted together as one round, and a task abandons a request the
        crowd gave up on.
        """
        running: List[TupleTask] = []
        requests: List[Request] = []
        for task in tasks:
            request = task.advance()
            if request is None:
                self.decide(task.t, task.outcome)
            else:
                running.append(task)
                requests.append(request)
        if requests:
            context = self.context
            ask_batch(context, requests)
            for task, request in zip(running, requests):
                if request_unresolved(context, request):
                    task.abandon_request(request)
        return running

    def lockstep(self, tasks: List[TupleTask]) -> None:
        """Advance ``tasks`` together, one round at a time, until every
        one of them is decided."""
        while tasks:
            tasks = self.step(tasks)

    def result(
        self, algorithm: str, budget_exhausted: Optional[bool] = None
    ) -> CrowdSkylineResult:
        """Assemble the run's result.

        Budgeted runs pass ``budget_exhausted`` (whether the budget
        stopped the walk) and get ``complete_tuples`` counted; the other
        runs leave it None. The pairs given up on are the pairwise keys
        of the crowd's unresolved set, read once here.
        """
        context = self.context
        crowd = context.crowd
        # Pairwise keys are (u, v, attribute); m-ary and unary keys
        # have two parts.
        unresolved = sorted(
            key for key in crowd.unresolved_keys if len(key) == 3
        )
        # The closure's memo-hit and update tallies are cumulative, so
        # they are traced once per run, here, off the hot path.
        prefs = context.prefs
        observation = current_observation()
        if observation.enabled:
            observation.tracer.event(
                "pref.totals",
                backend=prefs.backend,
                cache_hits=prefs.cache_hits,
                closure_updates=prefs.closure_updates(),
            )
        stopped = bool(budget_exhausted)
        return CrowdSkylineResult(
            skyline=self.skyline,
            stats=crowd.stats,
            question_log=list(crowd.question_log),
            algorithm=algorithm,
            rejected_answers=prefs.total_rejected(),
            budget_exhausted=stopped or crowd.budget_degraded,
            complete_tuples=(
                None if budget_exhausted is None else len(self.complete)
            ),
            degraded=stopped or bool(unresolved) or crowd.budget_degraded,
            unresolved_pairs=unresolved,
            fault_stats=crowd.fault_stats,
            cost_records=list(crowd.cost_records),
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
    visible = visible_tuples(relation, visible_crowd)
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
            ac_round_robin=config.ac_round_robin,
            visible_crowd=visible,
        )
        evaluation = Evaluation(context, config)
        with phase("evaluate"):
            _walk(evaluation, config.pruning.use_p1)
        result = evaluation.result(f"CrowdSky[{config.pruning.value}]")
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
        try:
            context = build_context(
                relation, crowd, ac_round_robin=config.ac_round_robin
            )
        except BudgetExhaustedError:
            # Not even the degenerate-case preprocessing fit the budget.
            # With zero AC knowledge every tuple is incomparable and by
            # default in the skyline (§2.3).
            result = CrowdSkylineResult(
                skyline=set(range(len(relation))),
                stats=crowd.stats,
                question_log=list(crowd.question_log),
                algorithm=f"CrowdSky[budget={max_questions}]",
                budget_exhausted=True,
                complete_tuples=0,
                degraded=True,
                fault_stats=crowd.fault_stats,
                cost_records=list(crowd.cost_records),
            )
        else:
            evaluation = Evaluation(context, config)
            exhausted = False
            with phase("evaluate"):
                try:
                    _walk(evaluation, config.pruning.use_p1)
                except BudgetExhaustedError:
                    exhausted = True
            _finalize_default_skyline(evaluation)
            result = evaluation.result(
                f"CrowdSky[{config.pruning.value}, budget={max_questions}]",
                budget_exhausted=exhausted,
            )
    if span is not None:
        result.wall_time_s = span.duration_s
    return result


def _walk(evaluation: Evaluation, use_p1: bool) -> None:
    """Algorithm 1's policy: one tuple at a time, in ``(|DS|, t)``
    order with P1 and in index order without it, each evaluated to
    completion before the next starts."""
    context = evaluation.context
    if use_p1:
        order = context.eval_order()
    else:
        order = [t for t in range(context.n) if t not in context.removed]
    for t in order:
        if not context.ds_sizes[t]:
            # Complete skyline tuple from the start (§2.3).
            evaluation.decide(t, TaskOutcome.SKYLINE)
            continue
        context.crowd.set_cost_context(phase="evaluate", tuple=t)
        evaluation.lockstep(evaluation.start([t]))


def _finalize_default_skyline(evaluation: Evaluation) -> None:
    """Default-skyline finalization of the tuples a budget left
    undecided: keep each unless a dominating-set member already
    dominates it in current knowledge (any member counts — even a
    non-skyline one dominates ``t`` in ``A``).

    All candidate pairs are settled against the closure in one batch;
    each undecided ``DS(t)`` is gathered once and reused (it is fixed
    here).
    """
    context = evaluation.context
    context.crowd.set_cost_context(phase="finalize", tuple=None)
    candidates = {
        t: context.ds_in_eval_order(t).tolist()
        for t in range(context.n)
        if t not in evaluation.complete
    }
    finalize = context.prefs.resolve_pairs(
        (s, t) for t, members in candidates.items() for s in members
    )
    for t, members in candidates.items():
        dominated = any(
            all(
                rel is not None and rel is not Preference.RIGHT
                for rel in finalize[(s, t)]
            )
            for s in members
        )
        if not dominated:
            evaluation.skyline.add(t)
