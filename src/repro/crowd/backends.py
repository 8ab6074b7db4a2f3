"""Crowd execution backends: simulate, record, replay.

:class:`~repro.crowd.platform.SimulatedCrowd` is split in two. The
*platform* half owns everything answer-agnostic — caching, budget,
retry scheduling, stats, ledger, metrics, trace emission, journaling.
The *backend* half owns how a posted batch actually gets answered:

* :class:`SimulatedBackend` — draws workers from a pool and rolls the
  fault plan, exactly as ``SimulatedCrowd`` always did (the extraction
  preserves RNG draw order, so seeded runs are byte-identical across
  the refactor);
* :class:`ReplayBackend` — serves the outcomes recorded in a
  :mod:`repro.crowd.journal` write-ahead journal, consuming no
  randomness and asking no fresh questions, then (optionally) hands
  over to a live backend once the journal is exhausted — the resume
  path of an interrupted run.

Recording is not a third class: the platform journals whatever a live
backend returns, so every backend is a record backend when a journal
is attached.

A backend returns one *outcome* per posted question; the platform
derives all accounting (assignments, abandonment, degradation,
failures) and re-emits trace events from outcomes, which is what makes
replayed rounds observationally identical to simulated ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple as TupleT

import numpy as np

from repro.crowd.faults import FaultPlan, FaultStats, HitOutcome
from repro.crowd.oracle import GroundTruthOracle
from repro.crowd.voting import VotingPolicy
from repro.crowd.workers import SpammerWorker, WorkerPool
from repro.exceptions import JournalReplayError
from repro.obs.report import QUESTIONS_PER_HIT
from repro.questions import (
    MultiwayQuestion,
    PairwiseQuestion,
    Preference,
    UnaryQuestion,
)

#: ``PairwiseOutcome.status`` values; anything but ``answered`` failed
#: its round and is a candidate for the platform's retry scheduling.
STATUS_ANSWERED = "answered"
STATUS_TIMEOUT = "timeout"
STATUS_TRANSIENT = "transient"
STATUS_ABANDONED = "abandoned"


@dataclass
class PairwiseOutcome:
    """What happened to one posted pairwise question."""

    key: TupleT[int, int, int]
    status: str
    omega: int
    votes: List[Preference] = field(default_factory=list)
    answer: Optional[Preference] = None
    degraded: bool = False
    spam: bool = False


@dataclass
class MultiwayOutcome:
    """One answered m-ary question (multiway rounds never fail)."""

    key: TupleT
    omega: int
    votes: List[int]
    winner: int


@dataclass
class UnaryOutcome:
    """One answered quantitative question."""

    key: TupleT[int, int]
    omega: int
    estimates: List[float]
    value: float


@dataclass
class RecordedPosting:
    """One journaled backend posting, ready to be served by
    :class:`ReplayBackend`.

    ``state`` is the backend snapshot taken when the posting committed;
    serving the posting advances the replay's notion of "current state"
    to it, so a live handover after any prefix resumes from the right
    randomness.
    """

    epoch: int
    format: str
    keys: List[TupleT]
    outcomes: List[Any]
    state: Dict[str, Any]
    retried: int = 0
    omega: Optional[int] = None


def generator_state(rng: np.random.Generator) -> Dict[str, Any]:
    """A JSON-able snapshot of a numpy generator."""
    return rng.bit_generator.state


def restore_generator(
    rng: np.random.Generator, state: Dict[str, Any]
) -> None:
    """Restore a snapshot onto a generator of the same bit-generator
    type."""
    current = rng.bit_generator.state.get("bit_generator")
    recorded = state.get("bit_generator")
    if recorded != current:
        raise JournalReplayError(
            f"journal recorded a {recorded!r} generator but the crowd "
            f"uses {current!r}; pass a matching rng when resuming"
        )
    rng.bit_generator.state = state


class CrowdBackend:
    """Protocol of a crowd execution backend.

    ``pairwise_round`` / ``multiway_round`` / ``unary_round`` answer
    one posted batch each; ``state()`` snapshots whatever the backend
    needs to continue deterministically, and ``restore_state()`` is its
    inverse. ``last_was_replay`` reports whether the most recent
    posting was served from a journal (the platform skips re-journaling
    and re-charging those).
    """

    last_was_replay: bool = False

    def pairwise_round(
        self, posted: List[PairwiseQuestion]
    ) -> List[PairwiseOutcome]:
        raise NotImplementedError

    def multiway_round(
        self, fresh: List[MultiwayQuestion]
    ) -> List[MultiwayOutcome]:
        raise NotImplementedError

    def unary_round(
        self, fresh: List[UnaryQuestion], omega: int
    ) -> List[UnaryOutcome]:
        raise NotImplementedError

    def state(self) -> Dict[str, Any]:
        raise NotImplementedError

    def restore_state(self, state: Dict[str, Any]) -> None:
        raise NotImplementedError

    def fault_stats(self) -> Optional[FaultStats]:
        return None


class SimulatedBackend(CrowdBackend):
    """The classic simulation: pool draws, worker error models, fault
    rolls.

    The loop structure is inherited verbatim from the pre-split
    ``SimulatedCrowd``: every posted question draws its workers and
    votes from the main generator *before* fault outcomes are applied,
    so a zero-rate fault plan leaves the answer stream byte-identical
    to a plan-free run, and expired/transient questions keep the
    decision sequences of later questions aligned.
    """

    def __init__(
        self,
        oracle: GroundTruthOracle,
        pool: WorkerPool,
        voting: VotingPolicy,
        rng: np.random.Generator,
        faults: Optional[FaultPlan] = None,
    ):
        self._oracle = oracle
        self._pool = pool
        self._voting = voting
        self._rng = rng
        self._faults = faults

    def fault_stats(self) -> Optional[FaultStats]:
        return self._faults.stats if self._faults is not None else None

    def pairwise_round(
        self, posted: List[PairwiseQuestion]
    ) -> List[PairwiseOutcome]:
        plan = self._faults
        spammer = SpammerWorker()
        outcomes: List[PairwiseOutcome] = []
        for start in range(0, len(posted), QUESTIONS_PER_HIT):
            hit_questions = posted[start:start + QUESTIONS_PER_HIT]
            outcome = (
                plan.roll_hit() if plan is not None else HitOutcome.OK
            )
            for question in hit_questions:
                key = question.key()
                omega = self._voting.workers_for(question)
                workers = self._pool.draw(self._rng, omega)
                votes = [
                    worker.answer_pairwise(
                        question, self._oracle, self._rng
                    )
                    for worker in workers
                ]
                if outcome is HitOutcome.EXPIRED:
                    plan.stats.failed_questions += 1
                    outcomes.append(
                        PairwiseOutcome(key, STATUS_TIMEOUT, omega)
                    )
                    continue
                if plan is not None and plan.roll_transient():
                    plan.stats.failed_questions += 1
                    outcomes.append(
                        PairwiseOutcome(key, STATUS_TRANSIENT, omega)
                    )
                    continue
                if outcome is HitOutcome.SPAM:
                    votes = [
                        spammer.answer_pairwise(
                            question, self._oracle, plan.rng
                        )
                        for _ in range(omega)
                    ]
                    outcomes.append(
                        PairwiseOutcome(
                            key,
                            STATUS_ANSWERED,
                            omega,
                            votes=votes,
                            answer=self._voting.aggregate(votes),
                            degraded=True,
                            spam=True,
                        )
                    )
                    continue
                if plan is not None and plan.abandonment_rate > 0.0:
                    votes = [
                        vote
                        for vote in votes
                        if not plan.roll_abandonment()
                    ]
                if not votes:
                    plan.stats.failed_questions += 1
                    outcomes.append(
                        PairwiseOutcome(key, STATUS_ABANDONED, omega)
                    )
                    continue
                outcomes.append(
                    PairwiseOutcome(
                        key,
                        STATUS_ANSWERED,
                        omega,
                        votes=votes,
                        answer=self._voting.aggregate(votes),
                        degraded=len(votes) < omega,
                    )
                )
        return outcomes

    def multiway_round(
        self, fresh: List[MultiwayQuestion]
    ) -> List[MultiwayOutcome]:
        outcomes: List[MultiwayOutcome] = []
        for question in fresh:
            omega = self._voting.workers_for(
                PairwiseQuestion(
                    question.candidates[0],
                    question.candidates[1],
                    question.attribute,
                )
            )
            workers = self._pool.draw(self._rng, omega)
            votes = [
                worker.answer_multiway(question, self._oracle, self._rng)
                for worker in workers
            ]
            counts: Dict[int, int] = {}
            for vote in votes:
                counts[vote] = counts.get(vote, 0) + 1
            winner = min(
                counts,
                key=lambda candidate: (-counts[candidate], candidate),
            )
            outcomes.append(
                MultiwayOutcome(
                    question.key(), omega, [int(v) for v in votes], winner
                )
            )
        return outcomes

    def unary_round(
        self, fresh: List[UnaryQuestion], omega: int
    ) -> List[UnaryOutcome]:
        outcomes: List[UnaryOutcome] = []
        for question in fresh:
            workers = self._pool.draw(self._rng, omega)
            estimates = [
                worker.answer_unary(question, self._oracle, self._rng)
                for worker in workers
            ]
            value = float(np.mean(estimates))
            outcomes.append(
                UnaryOutcome(
                    (question.tuple_index, question.attribute),
                    omega,
                    [float(e) for e in estimates],
                    value,
                )
            )
        return outcomes

    def state(self) -> Dict[str, Any]:
        snapshot: Dict[str, Any] = {"rng": generator_state(self._rng)}
        if self._faults is not None:
            snapshot["fault_rng"] = generator_state(self._faults.rng)
            snapshot["fault_stats"] = self._faults.stats.as_dict()
        return snapshot

    def restore_state(self, state: Dict[str, Any]) -> None:
        restore_generator(self._rng, state["rng"])
        if self._faults is not None and state.get("fault_rng") is not None:
            restore_generator(self._faults.rng, state["fault_rng"])
        recorded = state.get("fault_stats")
        if self._faults is not None and recorded is not None:
            stats = self._faults.stats
            for name, value in recorded.items():
                setattr(stats, name, int(value))


class ReplayBackend(CrowdBackend):
    """Serves journaled postings in order; zero randomness, zero cost.

    Each ``*_round`` call must match the next recorded posting (format
    and question keys) — a mismatch means the caller diverged from the
    journaled execution and raises
    :class:`~repro.exceptions.JournalReplayError`. After the last
    recorded posting, calls hand over to ``live`` (restored to the
    journal's final state) or, in pure-replay mode (``live=None``),
    raise — which is how tests prove a full replay asks nothing fresh.
    """

    def __init__(
        self,
        postings: List[RecordedPosting],
        initial_state: Optional[Dict[str, Any]],
        live: Optional[CrowdBackend] = None,
    ):
        self._postings = postings
        self._index = 0
        self._state = initial_state
        self._live = live
        self._switched = False
        # True whenever the run is in its replay phase (so the platform
        # suppresses journaling from the very first budget check).
        self.last_was_replay = bool(postings)

    @property
    def remaining(self) -> int:
        """Recorded postings not yet served."""
        return len(self._postings) - self._index

    @property
    def replayed(self) -> int:
        """Recorded postings served so far."""
        return self._index

    def _next(self, format: str, keys: List[TupleT]) -> RecordedPosting:
        posting = self._postings[self._index]
        if posting.format != format or posting.keys != list(keys):
            raise JournalReplayError(
                f"replay diverged at epoch {posting.epoch}: journal has "
                f"a {posting.format} posting of {len(posting.keys)} "
                f"question(s), the run asked a {format} posting of "
                f"{len(keys)}; the journal belongs to a different "
                "(config, seed, dataset) than the resumed run"
            )
        self._index += 1
        self._state = posting.state
        self.last_was_replay = True
        return posting

    def _go_live(self) -> CrowdBackend:
        if self._live is None:
            raise JournalReplayError(
                "journal exhausted in pure-replay mode: the run asked a "
                "question beyond the recorded postings"
            )
        if not self._switched:
            if self._state is not None:
                self._live.restore_state(self._state)
            self._switched = True
        self.last_was_replay = False
        return self._live

    def pairwise_round(
        self, posted: List[PairwiseQuestion]
    ) -> List[PairwiseOutcome]:
        if self._index < len(self._postings):
            return self._next(
                "pairwise", [q.key() for q in posted]
            ).outcomes
        return self._go_live().pairwise_round(posted)

    def multiway_round(
        self, fresh: List[MultiwayQuestion]
    ) -> List[MultiwayOutcome]:
        if self._index < len(self._postings):
            return self._next(
                "multiway", [q.key() for q in fresh]
            ).outcomes
        return self._go_live().multiway_round(fresh)

    def unary_round(
        self, fresh: List[UnaryQuestion], omega: int
    ) -> List[UnaryOutcome]:
        if self._index < len(self._postings):
            return self._next(
                "unary",
                [(q.tuple_index, q.attribute) for q in fresh],
            ).outcomes
        return self._go_live().unary_round(fresh, omega)

    def state(self) -> Dict[str, Any]:
        if self._switched:
            return self._live.state()
        return dict(self._state) if self._state is not None else {}

    def restore_state(self, state: Dict[str, Any]) -> None:
        self._state = state

    def fault_stats(self) -> Optional[FaultStats]:
        if self._switched:
            return self._live.fault_stats()
        recorded = (self._state or {}).get("fault_stats")
        if recorded is None:
            return None
        return FaultStats(**{k: int(v) for k, v in recorded.items()})
