"""HIT-level bookkeeping for the simulated platform (paper §6.2).

On AMT the paper groups 5 questions per HIT, pays $0.10 per HIT
($0.02 × 5 workers) and observes per-HIT working times (22 s / 49 s /
93 s for Q1-Q3). The :class:`HitLedger` reconstructs that layer on top
of the round-based platform:

* each executed round's fresh questions are packed into HITs of
  ``questions_per_hit``; a posting merged into a round first fills the
  round's open HIT, so a round holds exactly the
  :func:`~repro.obs.report.round_hits` HITs its cost is priced on,
* every HIT's working time is sampled from a lognormal around the
  configured mean (human working times are right-skewed),
* a round's *makespan* is its slowest HIT (HITs of a round run
  concurrently across workers), and the execution's wall-clock estimate
  is the sum of round makespans plus per-round posting overhead — a
  sampled refinement of :func:`repro.crowd.latency.estimate_latency`.

Attach a ledger when building the platform::

    ledger = HitLedger(seconds_per_hit=49.0, seed=0)
    crowd = SimulatedCrowd(relation, ledger=ledger)
    ...
    print(ledger.wall_clock_seconds())
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro.crowd.latency import DEFAULT_ROUND_OVERHEAD
from repro.exceptions import CrowdPlatformError
from repro.obs.report import QUESTIONS_PER_HIT, round_hits

#: Shape of the lognormal working-time distribution (σ of log-seconds).
DEFAULT_LOG_SIGMA = 0.45


@dataclass(frozen=True)
class Hit:
    """One Human Intelligence Task: a batch of questions for one worker
    crew."""

    hit_id: int
    round_number: int
    num_questions: int
    duration_seconds: float


@dataclass
class RoundRecord:
    """All HITs of one round plus its makespan."""

    round_number: int
    hits: List[Hit] = field(default_factory=list)

    @property
    def makespan(self) -> float:
        """Wall-clock of the round: its slowest HIT."""
        return max((hit.duration_seconds for hit in self.hits), default=0.0)


class HitLedger:
    """Samples and records the HIT structure of an execution."""

    def __init__(
        self,
        seconds_per_hit: float = 49.0,
        questions_per_hit: int = QUESTIONS_PER_HIT,
        round_overhead: float = DEFAULT_ROUND_OVERHEAD,
        log_sigma: float = DEFAULT_LOG_SIGMA,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ):
        if seconds_per_hit <= 0:
            raise CrowdPlatformError("seconds_per_hit must be positive")
        if questions_per_hit < 1:
            raise CrowdPlatformError("questions_per_hit must be >= 1")
        if rng is not None and seed is not None:
            raise CrowdPlatformError("pass either seed or rng, not both")
        self._seconds_per_hit = seconds_per_hit
        self._questions_per_hit = questions_per_hit
        self._round_overhead = round_overhead
        self._log_sigma = log_sigma
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        # Seed-constructed ledgers can be rebuilt identically for a
        # journal resume (which re-executes the run from the start);
        # explicit-rng ledgers cannot (their generator's origin is
        # unknown), so spec() reports None for them.
        self._seed = seed if rng is None else None
        self._reconstructible = rng is None
        self._rounds: Dict[int, RoundRecord] = {}
        self._next_hit_id = 0
        self._backoff_rounds = 0

    def _sample_duration(self) -> float:
        # Lognormal with the configured *mean* (not median): adjust mu so
        # that E[X] = seconds_per_hit.
        mu = math.log(self._seconds_per_hit) - self._log_sigma ** 2 / 2.0
        return float(self._rng.lognormal(mu, self._log_sigma))

    def record_round(self, round_number: int, num_questions: int) -> None:
        """Pack one posting's questions into the HITs of its round.

        A posting merged into a round already holding questions first
        fills that round's open HIT, which keeps its sampled duration;
        only the HITs the round newly opens are sampled.
        """
        if num_questions <= 0:
            return
        record = self._rounds.setdefault(
            round_number, RoundRecord(round_number)
        )
        hits = record.hits
        per_hit = self._questions_per_hit
        total = sum(hit.num_questions for hit in hits) + num_questions
        for index in range(round_hits(total, per_hit)):
            size = min(per_hit, total - index * per_hit)
            if index < len(hits):
                hits[index] = replace(hits[index], num_questions=size)
                continue
            hits.append(
                Hit(
                    hit_id=self._next_hit_id,
                    round_number=round_number,
                    num_questions=size,
                    duration_seconds=self._sample_duration(),
                )
            )
            self._next_hit_id += 1

    def record_backoff(self, rounds_waited: int) -> None:
        """Account idle rounds spent waiting out retry backoff.

        Re-posted HITs re-enter :meth:`record_round` as part of their
        retry round (they are paid and sampled again); the backoff wait
        itself posts nothing but still costs wall-clock time — one round
        overhead per idle round.
        """
        if rounds_waited < 0:
            raise CrowdPlatformError("rounds_waited must be >= 0")
        self._backoff_rounds += rounds_waited

    def spec(self) -> Optional[Dict[str, object]]:
        """Construction recipe for a journal header, or ``None``.

        ``None`` means the ledger used a caller-supplied generator and a
        resume must provide the ledger explicitly.
        """
        if not self._reconstructible:
            return None
        return {
            "seconds_per_hit": self._seconds_per_hit,
            "questions_per_hit": self._questions_per_hit,
            "round_overhead": self._round_overhead,
            "log_sigma": self._log_sigma,
            "seed": self._seed,
        }

    @classmethod
    def from_spec(cls, spec: Dict[str, object]) -> "HitLedger":
        """Rebuild a ledger from a :meth:`spec` recipe."""
        return cls(
            seconds_per_hit=spec["seconds_per_hit"],
            questions_per_hit=spec["questions_per_hit"],
            round_overhead=spec["round_overhead"],
            log_sigma=spec["log_sigma"],
            seed=spec["seed"],
        )

    @property
    def num_hits(self) -> int:
        """Total HITs posted (re-posted HITs count again)."""
        return self._next_hit_id

    @property
    def backoff_rounds(self) -> int:
        """Idle rounds recorded via :meth:`record_backoff`."""
        return self._backoff_rounds

    def rounds(self) -> List[RoundRecord]:
        """Per-round records in round order."""
        return [self._rounds[k] for k in sorted(self._rounds)]

    def wall_clock_seconds(self) -> float:
        """Sampled wall-clock: Σ round makespans + per-round overhead,
        plus one overhead per idle backoff round."""
        records = self.rounds()
        return sum(
            record.makespan + self._round_overhead for record in records
        ) + self._backoff_rounds * self._round_overhead

    def mean_hit_duration(self) -> float:
        """Average sampled working time across all HITs."""
        durations = [
            hit.duration_seconds
            for record in self._rounds.values()
            for hit in record.hits
        ]
        return float(np.mean(durations)) if durations else 0.0
