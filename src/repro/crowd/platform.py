"""The round-based simulated crowdsourcing platform (paper §2.1, §6.2).

The platform executes *rounds*: a scheduler hands over a batch of
micro-questions; each question is assigned workers per the voting policy;
worker answers are aggregated by majority; the aggregated answers come
back at the end of the round. Latency is the number of rounds, monetary
cost follows the paper's AMT formula

.. math::  cost = price · ω · \\sum_i \\lceil |Q_i| / 5 \\rceil

(price $0.02/question, ``ω = 5`` workers, 5 questions per HIT), tracked by
:class:`CrowdStats` alongside raw question and worker-assignment counts.

Duplicate micro-questions inside a round are merged (one HIT serves all
requesters), and previously answered micro-questions are served from the
platform's answer cache free of charge — questions are never re-asked.
Every format (pairwise, m-ary, unary) shares that split and the posting
step after it.

Fault tolerance: attach a :class:`~repro.crowd.faults.FaultPlan` to
inject abandonment/expiry/transient/spam failures and a
:class:`~repro.crowd.retry.RetryPolicy` to re-post failed questions in
later rounds (with exponential round-backoff). In *strict* mode a fault
that cannot be recovered raises; in non-strict mode the question is
marked **unresolved** and the schedulers degrade gracefully (see
`repro.core.engine`). Round accounting is atomic: a round either commits
fully (stats, ledger, cache, log) or not at all.

One record per posting: each executed posting is committed once, as
its cost record (``cost_records``), and ``CrowdStats``, the
``crowd.round`` event and the HIT ledger are all derived from that
record at that one site. When a :func:`repro.obs.observe` scope is
active the platform also emits structured trace events (one per round,
batch, vote, fault, degraded answer, retry, backoff, missed deadline,
budget decision, unresolved question, journal append and replayed
posting); the metrics are a fold of those events
(:func:`repro.obs.metrics.metrics_from_events`). With observability
off, the hooks cost one ``enabled`` check per site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, FrozenSet, Iterable, List, \
    Optional, Set, Tuple as TupleT, Union

import numpy as np

from repro.crowd.backends import (
    CrowdBackend,
    STATUS_ABANDONED,
    STATUS_ANSWERED,
    STATUS_TIMEOUT,
    SimulatedBackend,
)
from repro.crowd.faults import FaultPlan, FaultStats
from repro.crowd.journal import JournalWriter
from repro.crowd.oracle import GroundTruthOracle
from repro.obs import current_observation
from repro.obs.logging import get_logger
from repro.obs.report import (
    DEFAULT_OMEGA,
    DEFAULT_PRICE,
    QUESTIONS_PER_HIT,
    round_hits,
)
from repro.crowd.retry import RetryPolicy
from repro.crowd.voting import StaticVoting, VotingPolicy
from repro.crowd.workers import WorkerPool
from repro.exceptions import (
    BudgetExhaustedError,
    CrowdPlatformError,
    FaultInjectionError,
    QuestionTimeoutError,
    RetriesExhaustedError,
)
from repro.data.relation import Relation
from repro.questions import (
    MultiwayQuestion,
    PairwiseQuestion,
    Preference,
    UnaryQuestion,
)

__all__ = [
    "CrowdStats",
    "DEFAULT_PRICE",
    "QUESTIONS_PER_HIT",
    "SimulatedCrowd",
]

_log = get_logger(__name__)


@dataclass
class CrowdStats:
    """Aggregate statistics of a crowdsourced execution."""

    questions: int = 0
    rounds: int = 0
    worker_assignments: int = 0
    round_sizes: List[int] = field(default_factory=list)
    cached_hits: int = 0
    #: Questions re-posted after a fault (each re-post counts once).
    retries: int = 0
    #: Questions that missed a deadline: expired HITs + per-question
    #: retry deadlines.
    timeouts: int = 0
    #: Worker assignments that never returned (injected abandonment).
    abandoned_assignments: int = 0
    #: Answers aggregated from fewer votes than assigned, or produced by
    #: an injected spam burst — delivered, but lower-confidence.
    degraded_answers: int = 0
    #: Questions given up on permanently (retries exhausted, deadline
    #: missed, or budget ran out in non-strict mode).
    unresolved_questions: int = 0
    #: Idle rounds spent waiting out retry backoff (latency only — no
    #: questions are posted while backing off).
    backoff_rounds: int = 0
    #: Per executed round: how many of its posted questions were
    #: re-posts (parallel to ``round_sizes``).
    retried_per_round: List[int] = field(default_factory=list)

    def record_round(
        self, num_questions: int, num_assignments: int, retried: int = 0
    ) -> None:
        """Account one executed round."""
        self.rounds += 1
        self.questions += num_questions
        self.worker_assignments += num_assignments
        self.round_sizes.append(num_questions)
        self.retried_per_round.append(retried)

    def hit_cost(
        self,
        price: float = DEFAULT_PRICE,
        omega: int = DEFAULT_OMEGA,
        per_hit: int = QUESTIONS_PER_HIT,
    ) -> float:
        """Monetary cost under the paper's HIT formula (§6.2)."""
        hits = sum(round_hits(size, per_hit) for size in self.round_sizes)
        return price * omega * hits

    def assignment_cost(self, price: float = DEFAULT_PRICE) -> float:
        """Cost when paying each worker assignment individually."""
        return price * self.worker_assignments


class SimulatedCrowd:
    """Executes question rounds against simulated workers.

    Parameters
    ----------
    relation:
        The dataset; its latent values feed the ground-truth oracle.
    pool:
        Worker pool (defaults to a perfect pool — the §3/§4 assumption).
    voting:
        Voting policy deciding workers per question (default: static ω=5
        for noisy pools; a perfect pool only ever needs one worker, but
        the policy is honoured regardless).
    rng, seed:
        Randomness for worker draws and error models.
    max_questions:
        Optional hard budget; exceeding it raises
        :class:`~repro.exceptions.BudgetExhaustedError` in strict mode,
        or marks the remaining questions *unresolved* otherwise.
    ledger:
        Optional :class:`repro.crowd.hits.HitLedger` recording the HIT
        structure and sampled working times of every round.
    faults:
        Optional :class:`~repro.crowd.faults.FaultPlan` injecting
        abandonment / HIT-expiry / transient / spam failures into
        pairwise rounds (deterministic from its own seed).
    retry:
        Optional :class:`~repro.crowd.retry.RetryPolicy` re-posting
        failed questions in later rounds with exponential backoff.
    strict:
        Fault/budget handling. ``True``: unrecoverable faults raise
        (:class:`~repro.exceptions.FaultInjectionError`,
        :class:`~repro.exceptions.RetriesExhaustedError`,
        :class:`~repro.exceptions.QuestionTimeoutError`,
        :class:`~repro.exceptions.BudgetExhaustedError`). ``False``:
        failed questions become *unresolved* and callers degrade
        gracefully. Default ``None`` resolves to strict exactly when no
        fault plan is attached — the seed behavior for fault-free runs.
    journal:
        Optional :class:`~repro.crowd.journal.JournalWriter` (or a
        directory path for one) recording every posting durably; see
        :mod:`repro.crowd.journal` and ``docs/durability.md``. Disabled
        (``None``) by default — the hooks then cost one ``is None``
        check per posting.
    backend:
        Optional :class:`~repro.crowd.backends.CrowdBackend` answering
        the postings; defaults to a fresh
        :class:`~repro.crowd.backends.SimulatedBackend` over ``pool`` /
        ``voting`` / ``rng`` / ``faults``. Pass a
        :class:`~repro.crowd.backends.ReplayBackend` to serve a
        journaled run.
    """

    def __init__(
        self,
        relation: Relation,
        pool: Optional[WorkerPool] = None,
        voting: Optional[VotingPolicy] = None,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
        max_questions: Optional[int] = None,
        ledger: Optional["HitLedger"] = None,
        faults: Optional[FaultPlan] = None,
        retry: Optional[RetryPolicy] = None,
        strict: Optional[bool] = None,
        journal: Union[JournalWriter, str, Path, None] = None,
        backend: Optional[CrowdBackend] = None,
    ):
        if rng is not None and seed is not None:
            raise CrowdPlatformError("pass either seed or rng, not both")
        self._relation = relation
        self._oracle = GroundTruthOracle(relation)
        self._pool = pool if pool is not None else WorkerPool.perfect()
        self._voting = voting if voting is not None else StaticVoting()
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        self._max_questions = max_questions
        self._ledger = ledger
        self._faults = faults
        self._retry = retry
        self._strict = strict
        if backend is None:
            backend = SimulatedBackend(
                oracle=self._oracle,
                pool=self._pool,
                voting=self._voting,
                rng=self._rng,
                faults=faults,
            )
        self._backend = backend
        if journal is not None and not isinstance(journal, JournalWriter):
            journal = JournalWriter(journal)
        self._journal = journal
        self._answers: Dict[TupleT[int, int, int], Preference] = {}
        self._unary_answers: Dict[TupleT[int, int], float] = {}
        self._multiway_answers: Dict[TupleT, int] = {}
        self._unresolved: Set[TupleT] = set()
        #: Did a non-strict run hit the question budget?
        self.budget_degraded = False
        self.stats = CrowdStats()
        #: (round number, question, aggregated answer) per fresh question,
        #: in execution order — feeds the golden trace tests.
        self.question_log: List[
            TupleT[int, PairwiseQuestion, Preference]
        ] = []
        #: Who-to-charge context for the *next* posting; schedulers call
        #: :meth:`set_cost_context` as they move through layers/phases.
        self.cost_context: Dict[str, Any] = {}
        #: One record per executed posting (always on — a dict append per
        #: round): round index, format, question/assignment/retry/fault
        #: counts and the cost context that caused it. Built by
        #: :meth:`_commit`, which derives every other account of the
        #: posting from it; feeds ``CrowdSkylineResult.cost_breakdown()``.
        self.cost_records: List[Dict[str, Any]] = []

    @property
    def strict(self) -> bool:
        """Effective strictness: explicit flag, else strict iff no
        fault plan is attached."""
        if self._strict is not None:
            return self._strict
        return self._faults is None

    @property
    def fault_stats(self) -> Optional[FaultStats]:
        """Injected-fault tallies, or None without a fault plan.

        Reported by the backend: a replay serves the tallies recorded
        at the journaled prefix, a simulation its live plan's."""
        stats = self._backend.fault_stats()
        if stats is not None:
            return stats
        return self._faults.stats if self._faults is not None else None

    @property
    def backend(self) -> CrowdBackend:
        """The execution backend answering this platform's postings."""
        return self._backend

    @property
    def journal(self) -> Optional[JournalWriter]:
        """The attached write-ahead journal, if any."""
        return self._journal

    def install_backend(self, backend: CrowdBackend) -> None:
        """Swap the execution backend (the resume path installs a
        :class:`~repro.crowd.backends.ReplayBackend` here)."""
        self._backend = backend

    def install_journal(
        self, journal: Union[JournalWriter, str, Path, None]
    ) -> None:
        """(Re)attach the write-ahead journal; None detaches it (pure
        replay runs detach so re-execution writes nothing)."""
        if journal is not None and not isinstance(journal, JournalWriter):
            journal = JournalWriter(journal)
        self._journal = journal

    def backend_state(self) -> Dict[str, Any]:
        """JSON-able snapshot of the backend's continuation state."""
        return self._backend.state()

    def journal_spec(self) -> Optional[Dict[str, Any]]:
        """A JSON-able recipe to reconstruct this crowd, or None.

        Covers the spec-able components (perfect/uniform pools, static
        voting, fault rates, retry policy, ledger parameters). A crowd
        built from unreconstructible parts (mixed pools, dynamic
        voting, custom workers) returns None — such runs journal and
        replay fine, but ``resume`` must be handed an equivalent crowd
        explicitly.
        """
        pool_spec = getattr(self._pool, "spec", None)
        if pool_spec is None:
            return None
        if isinstance(self._voting, StaticVoting):
            voting_spec: Optional[Dict[str, Any]] = {
                "kind": "static",
                "omega": self._voting.omega,
            }
        else:
            return None
        spec: Dict[str, Any] = {
            "pool": pool_spec,
            "voting": voting_spec,
            "max_questions": self._max_questions,
            "strict": self._strict,
            "faults": None,
            "retry": None,
            "ledger": None,
        }
        if self._faults is not None:
            spec["faults"] = {
                "abandonment_rate": self._faults.abandonment_rate,
                "hit_timeout_rate": self._faults.hit_timeout_rate,
                "transient_error_rate": self._faults.transient_error_rate,
                "spam_burst_rate": self._faults.spam_burst_rate,
            }
        if self._retry is not None:
            spec["retry"] = {
                "max_attempts": self._retry.max_attempts,
                "backoff_base": self._retry.backoff_base,
                "backoff_factor": self._retry.backoff_factor,
                "max_backoff": self._retry.max_backoff,
                "deadline_rounds": self._retry.deadline_rounds,
            }
        if self._ledger is not None:
            ledger_spec = self._ledger.spec()
            if ledger_spec is None:
                return None
            spec["ledger"] = ledger_spec
        return spec

    @property
    def unresolved_keys(self) -> FrozenSet[TupleT]:
        """A snapshot of the keys of questions permanently given up on
        (never re-asked); each read copies the set, so test one question
        with :meth:`is_unresolved` instead."""
        return frozenset(self._unresolved)

    def is_unresolved(
        self, question: Union[PairwiseQuestion, MultiwayQuestion]
    ) -> bool:
        """Whether the platform has permanently given up on a question."""
        return question.key() in self._unresolved

    def set_cost_context(self, **context: Any) -> None:
        """Update the attribution context charged for future postings.

        Pass ``scheduler=`` / ``phase=`` / ``layer=`` / ``tuple=``
        (free-form values); ``None`` clears a key. Always available —
        attribution is part of the cost model, not of observability.
        """
        for key, value in context.items():
            if value is None:
                self.cost_context.pop(key, None)
            else:
                self.cost_context[key] = value

    def _commit(
        self,
        format: str,
        questions: int,
        assignments: int,
        retried: int = 0,
        faults: int = 0,
        merged: bool = False,
    ) -> None:
        """Commit one executed posting: the one site that accounts it.

        Builds the posting's cost record and derives the rest from it:
        ``CrowdStats`` (a new round, or for a merged m-ary posting an
        addition to the previous one), the ``crowd.round`` /
        ``crowd.round_merged`` event and the HIT ledger. ``round`` is
        the committed round index; a merged posting shares its
        predecessor's, which is how :meth:`CrowdStats.hit_cost` sizes
        its HITs.
        """
        stats = self.stats
        record = {
            "round": stats.rounds if merged else stats.rounds + 1,
            "format": format,
            "questions": questions,
            "assignments": assignments,
            "retried": retried,
            "merged": merged,
            "faults": faults,
            "context": dict(self.cost_context),
        }
        self.cost_records.append(record)
        if merged:
            stats.questions += questions
            stats.worker_assignments += assignments
            stats.round_sizes[-1] += questions
        else:
            stats.record_round(questions, assignments, retried=retried)
        observation = current_observation()
        if observation.enabled:
            observation.tracer.event(
                "crowd.round_merged" if merged else "crowd.round",
                round=record["round"],
                questions=questions,
                assignments=assignments,
                retried=retried,
                format=format,
                **self.cost_context,
            )
        _log.debug(
            "round %d: %d %s questions, %d assignments, %d failures",
            record["round"], questions, format, assignments, faults,
        )
        if self._ledger is not None:
            self._ledger.record_round(record["round"], questions)

    def _mark_unresolved(self, key: TupleT, reason: str = "fault") -> None:
        self._unresolved.add(key)
        self.stats.unresolved_questions += 1
        observation = current_observation()
        if observation.enabled:
            observation.tracer.event(
                "crowd.unresolved", question=list(key), reason=reason
            )
        # A budget refusal is logged once per posting, by _admit.
        if reason != "budget":
            _log.warning(
                "question %s permanently unresolved (%s)", key, reason
            )

    @property
    def relation(self) -> Relation:
        """The dataset this crowd answers questions about."""
        return self._relation

    def set_budget(self, max_questions: Optional[int]) -> None:
        """(Re)set the hard question budget; None removes it."""
        self._max_questions = max_questions

    def cached_answer(
        self, question: PairwiseQuestion
    ) -> Optional[Preference]:
        """A previously aggregated answer, oriented to ``question``."""
        answer = self._answers.get(question.key())
        if answer is None:
            return None
        if question.left > question.right:
            return answer.flipped()
        return answer

    def _admit(self, keys: List[TupleT]) -> List[TupleT]:
        """The keys a posting may ask: all of ``keys``, or none when
        they would bust the question budget.

        Strict mode raises; non-strict mode flags the degradation and
        marks every key unresolved. Nothing else is mutated before this
        check — rounds commit atomically.
        """
        budget = self._max_questions
        spent = self.stats.questions
        if not keys or budget is None or spent + len(keys) <= budget:
            return keys
        observation = current_observation()
        if observation.enabled:
            observation.tracer.event(
                "crowd.budget",
                budget=budget,
                spent=spent,
                requested=len(keys),
                strict=self.strict,
            )
        # Unconditional even during replay: a resumed writer dedupes
        # events that are already durable (and re-writes ones a crash
        # dropped after the final posting).
        if self._journal is not None:
            self._journal.append_event(
                "budget",
                {
                    "budget": budget,
                    "spent": spent,
                    "requested": len(keys),
                    "strict": self.strict,
                },
            )
        _log.info(
            "budget of %d blocks posting %d questions (%d spent)",
            budget, len(keys), spent,
        )
        if self.strict:
            raise BudgetExhaustedError(
                f"question budget of {budget} exceeded"
            )
        self.budget_degraded = True
        for key in keys:
            self._mark_unresolved(key, reason="budget")
        return []

    def _split(
        self,
        questions: Iterable[Any],
        answered: Dict[TupleT, Any],
        format: str,
    ) -> TupleT[Dict[TupleT, Any], List[TupleT]]:
        """Split a requested round into cache-served and fresh keys.

        Duplicates are merged by key (the first occurrence stands for
        them all); each question's key is computed here, once. The
        fresh keys — neither answered nor given up on — pass the budget
        (:meth:`_admit`); the keys in ``answered`` are served from the
        cache and counted, and the ``crowd.batch`` event emitted, only
        after that, so a strict refusal leaves the stats and the trace
        untouched. Returns the unique questions by key and the fresh
        keys to post.
        """
        unique: Dict[TupleT, Any] = {}
        for question in questions:
            unique.setdefault(question.key(), question)
        fresh: List[TupleT] = []
        cached = 0
        unresolved = self._unresolved
        for key in unique:
            if key in answered:
                cached += 1
            elif key not in unresolved:
                fresh.append(key)
        admitted = self._admit(fresh)
        observation = current_observation()
        if observation.enabled and unique:
            observation.tracer.event(
                "crowd.batch",
                requested=len(unique),
                fresh=len(fresh),
                cached=cached,
                format=format,
            )
        self.stats.cached_hits += cached
        return unique, admitted

    def _post(
        self,
        format: str,
        unique: Dict[TupleT, Any],
        keys: List[TupleT],
        ask: Callable[[List[Any]], List[Any]],
        retried: int = 0,
        merge: bool = False,
        omega: Optional[int] = None,
    ) -> List[Any]:
        """Send the questions of ``keys`` to the backend as one posting
        and journal it; returns the backend's outcomes.

        Journaling is write-ahead: the posting's records hit the
        journal (and are fsynced) before the caller commits its results
        to the platform, so a crash mid-commit re-executes the round
        from the journal instead of losing it. Replayed postings are
        already journaled — they only emit ``crowd.replayed``.
        """
        posted = [unique[key] for key in keys]
        observation = current_observation()
        if observation.enabled:
            with observation.tracer.span(
                "crowd.post", format=format, questions=len(posted)
            ):
                outcomes = ask(posted)
        else:
            outcomes = ask(posted)
        if self._backend.last_was_replay:
            if observation.enabled:
                observation.tracer.event("crowd.replayed")
        elif self._journal is not None:
            written = self._journal.append_posting(
                format=format,
                keys=keys,
                outcomes=outcomes,
                state=self._backend.state(),
                retried=retried,
                merge=merge,
                omega=omega,
            )
            if observation.enabled:
                observation.tracer.event("journal.append", records=written)
        return outcomes

    def _post_pairwise(
        self, unique: Dict[TupleT, PairwiseQuestion], keys: List[TupleT],
        retried: int,
    ) -> Dict[TupleT, str]:
        """Post one pairwise round and commit it.

        The backend answers the batch (drawing workers and rolling
        faults for a simulation, or serving the journal for a replay);
        the platform derives all accounting from the outcomes and
        re-emits the per-question trace events, so both backends leave
        identical observable state. Returns the failure kind
        (``'timeout'``/``'transient'``/``'abandoned'``) per failed
        question key; answered questions are committed to the cache.
        """
        outcomes = self._post(
            "pairwise", unique, keys, self._backend.pairwise_round,
            retried=retried,
        )
        observation = current_observation()
        answered: List[TupleT[TupleT, Preference]] = []
        failures: Dict[TupleT, str] = {}
        assignments = 0
        abandoned = 0
        timeouts = 0
        degraded = 0
        for key, outcome in zip(keys, outcomes):
            fault: Optional[str] = None
            if outcome.status != STATUS_ANSWERED:
                fault = failures[key] = outcome.status
                if fault == STATUS_ABANDONED:
                    abandoned += outcome.omega
                elif fault == STATUS_TIMEOUT:
                    timeouts += 1
            else:
                if outcome.spam:
                    fault = "spam"
                    assignments += outcome.omega
                else:
                    abandoned += outcome.omega - len(outcome.votes)
                    assignments += len(outcome.votes)
                degraded += outcome.spam or outcome.degraded
                answered.append((key, outcome.answer))
            if observation.enabled:
                trace = observation.tracer
                if fault is not None:
                    trace.event("crowd.fault", question=list(key), fault=fault)
                elif outcome.degraded:
                    trace.event("crowd.degraded", question=list(key))
                if outcome.status == STATUS_ANSWERED:
                    for vote in outcome.votes:
                        trace.event(
                            "crowd.vote", question=list(key), vote=vote.value
                        )
        stats = self.stats
        stats.abandoned_assignments += abandoned
        stats.timeouts += timeouts
        stats.degraded_answers += degraded
        self._commit(
            "pairwise", len(keys), assignments,
            retried=retried, faults=len(failures),
        )
        for key, answer in answered:
            self._answers[key] = answer
            self.question_log.append((stats.rounds, unique[key], answer))
        return failures

    def _schedule_retries(
        self,
        failures: Dict[TupleT, str],
        posted: List[TupleT],
        attempts: Dict[TupleT, int],
        waited: Dict[TupleT, int],
    ) -> List[TupleT]:
        """Decide the fate of this round's failed question keys.

        Returns the keys to re-post next round; the rest either raise
        (strict mode) or become unresolved. All retried questions of a
        round wait out the *longest* backoff among them (they share the
        next posting round).
        """
        observation = current_observation()
        candidates: List[TupleT] = []
        for key in posted:
            kind = failures.get(key)
            if kind is None:
                continue
            if self._retry is None:
                if self.strict:
                    raise FaultInjectionError(
                        f"question {key} failed ({kind}) and no retry "
                        "policy is attached"
                    )
                self._mark_unresolved(key, reason="no_retry_policy")
                continue
            if not self._retry.attempts_left(attempts[key]):
                if self.strict:
                    raise RetriesExhaustedError(
                        f"question {key} failed on all "
                        f"{attempts[key]} attempts (last: {kind})"
                    )
                self._mark_unresolved(key, reason="retries_exhausted")
                continue
            candidates.append(key)
        if not candidates:
            return []
        assert self._retry is not None
        round_backoff = max(
            self._retry.backoff_rounds(attempts[key]) for key in candidates
        )
        survivors: List[TupleT] = []
        for key in candidates:
            if self._retry.past_deadline(waited[key] + round_backoff):
                self.stats.timeouts += 1
                if observation.enabled:
                    observation.tracer.event(
                        "crowd.deadline", question=list(key)
                    )
                if self.strict:
                    raise QuestionTimeoutError(
                        f"question {key} missed its "
                        f"{self._retry.deadline_rounds}-round deadline"
                    )
                self._mark_unresolved(key, reason="deadline")
                continue
            waited[key] += round_backoff
            self.stats.retries += 1
            if observation.enabled:
                observation.tracer.event(
                    "crowd.retry",
                    question=list(key),
                    attempt=attempts[key],
                    backoff=round_backoff,
                )
            _log.debug(
                "re-posting %s (attempt %d, backoff %d rounds)",
                key, attempts[key] + 1, round_backoff,
            )
            survivors.append(key)
        if survivors and round_backoff:
            self.stats.backoff_rounds += round_backoff
            if observation.enabled:
                observation.tracer.event("crowd.backoff", rounds=round_backoff)
            if self._ledger is not None:
                self._ledger.record_backoff(round_backoff)
        return survivors

    def ask_pairwise_round(
        self, questions: Iterable[PairwiseQuestion]
    ) -> Dict[PairwiseQuestion, Preference]:
        """Execute one round of pairwise micro-questions.

        Duplicates (by symmetric key) are merged; already-answered
        questions are served from cache without cost or a new round.
        Returns answers oriented to each *canonical* question; use
        :meth:`cached_answer` for arbitrary orientations.

        With a fault plan attached, questions that fail their round are
        re-posted per the retry policy (each re-post is a further
        platform round); questions given up on permanently are omitted
        from the returned dict and reported via :meth:`is_unresolved` —
        they are never asked again.
        """
        unique, pending = self._split(
            (question.canonical() for question in questions),
            self._answers,
            "pairwise",
        )
        attempts: Dict[TupleT, int] = {}
        waited: Dict[TupleT, int] = {}
        while pending:
            for key in pending:
                attempts[key] = attempts.get(key, 0) + 1
                waited[key] = waited.get(key, 0) + 1
            retried = sum(1 for key in pending if attempts[key] > 1)
            failures = self._post_pairwise(unique, pending, retried)
            if not failures:
                break
            pending = self._admit(
                self._schedule_retries(failures, pending, attempts, waited)
            )
        answers = self._answers
        return {unique[key]: answers[key] for key in unique if key in answers}

    def ask_pairwise(
        self, question: PairwiseQuestion
    ) -> Optional[Preference]:
        """Ask a single question as its own round (serial execution).

        Returns None only when the platform has permanently given up on
        the question (non-strict fault/budget degradation).
        """
        self.ask_pairwise_round([question])
        answer = self.cached_answer(question)
        if answer is None and question.key() not in self._unresolved:
            raise CrowdPlatformError(
                f"round left question {question.key()} unanswered"
            )
        return answer

    def ask_multiway_round(
        self,
        questions: Iterable[MultiwayQuestion],
        same_round: bool = False,
    ) -> Dict[MultiwayQuestion, int]:
        """Execute one round of m-ary questions (§2.1's extension).

        Each micro-task shows a worker all candidates at once and asks
        for the most preferred one; votes are aggregated by plurality
        (ties broken toward the lowest tuple index). One m-ary question
        counts as one question for cost purposes.

        ``same_round=True`` folds this posting into the immediately
        preceding round instead of opening a new one: questions,
        assignments and HIT sizing accrue to that round and a
        ``crowd.round_merged`` trace event is emitted. Mixed
        pairwise+multiway batches use this so a batch costs a single
        latency round. (The round-size histogram keeps its original
        pairwise observation — only ``round_sizes`` reflects the merged
        total.) Ignored when no round has executed yet.
        """
        answers = self._multiway_answers
        unique, fresh = self._split(questions, answers, "multiway")
        if fresh:
            merge = same_round and bool(self.stats.round_sizes)
            outcomes = self._post(
                "multiway", unique, fresh, self._backend.multiway_round,
                merge=merge,
            )
            observation = current_observation()
            assignments = 0
            for key, outcome in zip(fresh, outcomes):
                assignments += outcome.omega
                answers[key] = outcome.winner
                if observation.enabled:
                    for vote in outcome.votes:
                        observation.tracer.event(
                            "crowd.vote", question=list(key), vote=int(vote)
                        )
            self._commit("multiway", len(fresh), assignments, merged=merge)
        return {unique[key]: answers[key] for key in unique if key in answers}

    def ask_unary_round(
        self, questions: Iterable[UnaryQuestion], omega: int = DEFAULT_OMEGA
    ) -> Dict[UnaryQuestion, float]:
        """Execute one round of unary questions (the [12] format).

        Each question is answered by ``omega`` workers whose numeric
        estimates are averaged.
        """
        answers = self._unary_answers
        unique, fresh = self._split(questions, answers, "unary")
        if fresh:
            outcomes = self._post(
                "unary", unique, fresh,
                lambda posted: self._backend.unary_round(posted, omega),
                omega=omega,
            )
            observation = current_observation()
            assignments = 0
            for key, outcome in zip(fresh, outcomes):
                assignments += outcome.omega
                answers[key] = outcome.value
                if observation.enabled:
                    observation.tracer.event(
                        "crowd.estimate", question=list(key),
                        value=outcome.value,
                    )
            self._commit("unary", len(fresh), assignments)
        return {unique[key]: answers[key] for key in unique if key in answers}
