"""Deterministic fault injection for the simulated platform.

The paper's platform model (§2.1, §6.2) assumes every posted HIT comes
back answered at the end of its round. Real AMT executions do not:
assignments are abandoned, HITs expire unanswered, the platform throws
transient errors, and spam crews occasionally grab a whole HIT. This
module injects exactly those failure modes into
:class:`~repro.crowd.platform.SimulatedCrowd`, deterministically, from a
seed that is *independent* of the worker-answer randomness:

* **worker abandonment** — an individual assignment never returns; the
  question aggregates over the remaining votes (a *degraded* answer) or,
  if every assignment is abandoned, fails the round entirely,
* **HIT expiry** — a whole HIT misses its round deadline; all of its
  questions come back unanswered,
* **transient platform error** — a question fails this round for
  platform reasons (posting error, review glitch) and must be re-posted,
* **spam burst** — a spam crew answers a whole HIT uniformly at random;
  the answers *do* come back, but carry no signal.

Because the plan draws from its own generator, attaching a
``FaultPlan`` with all rates at ``0.0`` leaves the main answer stream —
and therefore the skyline, stats and trace — byte-identical to a run
without any plan. Everything injected is tallied in
:class:`FaultStats`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np

from repro.exceptions import CrowdPlatformError


class HitOutcome(enum.Enum):
    """Per-HIT fault roll: delivered normally, expired, or spammed."""

    OK = "ok"
    EXPIRED = "expired"
    SPAM = "spam"


@dataclass
class FaultStats:
    """Tally of everything a :class:`FaultPlan` injected."""

    abandoned_assignments: int = 0
    expired_hits: int = 0
    spam_bursts: int = 0
    transient_errors: int = 0
    #: Questions that failed their round because of an injected fault
    #: (expired HIT, transient error, or full abandonment).
    failed_questions: int = 0

    def total_events(self) -> int:
        """Number of injected fault events across all modes."""
        return (
            self.abandoned_assignments
            + self.expired_hits
            + self.spam_bursts
            + self.transient_errors
        )

    def as_dict(self) -> Dict[str, int]:
        """The tallies as a plain dict (for reports and tests)."""
        return {
            "abandoned_assignments": self.abandoned_assignments,
            "expired_hits": self.expired_hits,
            "spam_bursts": self.spam_bursts,
            "transient_errors": self.transient_errors,
            "failed_questions": self.failed_questions,
        }


def _check_rate(name: str, value: float) -> float:
    if not 0.0 <= value <= 1.0:
        raise CrowdPlatformError(f"{name} must be within [0, 1]")
    return float(value)


@dataclass
class FaultPlan:
    """Seeded, deterministic fault-injection configuration.

    Parameters
    ----------
    abandonment_rate:
        Probability that an individual worker assignment never returns.
    hit_timeout_rate:
        Probability that a whole HIT expires unanswered this round.
    transient_error_rate:
        Probability that a question fails its round to a platform error.
    spam_burst_rate:
        Probability that a whole HIT is answered by a spam crew
        (uniform random answers — delivered, but signal-free).
    seed:
        Seed of the plan's private generator. Fault decisions never
        consume the platform's answer randomness, so the same worker
        seed with and without a zero-rate plan produces identical runs.
    """

    abandonment_rate: float = 0.0
    hit_timeout_rate: float = 0.0
    transient_error_rate: float = 0.0
    spam_burst_rate: float = 0.0
    seed: Optional[int] = None
    stats: FaultStats = field(default_factory=FaultStats, repr=False)

    def __post_init__(self) -> None:
        _check_rate("abandonment_rate", self.abandonment_rate)
        _check_rate("hit_timeout_rate", self.hit_timeout_rate)
        _check_rate("transient_error_rate", self.transient_error_rate)
        _check_rate("spam_burst_rate", self.spam_burst_rate)
        if self.hit_timeout_rate + self.spam_burst_rate > 1.0:
            raise CrowdPlatformError(
                "hit_timeout_rate + spam_burst_rate must not exceed 1"
            )
        self._rng = np.random.default_rng(self.seed)

    @property
    def rng(self) -> np.random.Generator:
        """The plan's private generator (spam answers draw from it)."""
        return self._rng

    def any_faults(self) -> bool:
        """Whether any failure mode has a nonzero rate."""
        return (
            self.abandonment_rate > 0.0
            or self.hit_timeout_rate > 0.0
            or self.transient_error_rate > 0.0
            or self.spam_burst_rate > 0.0
        )

    # -- per-event rolls (each consumes exactly one draw, so decision
    # -- sequences stay aligned across runs of the same seed) ----------

    def roll_hit(self) -> HitOutcome:
        """Fate of one posted HIT this round."""
        u = float(self._rng.random())
        if u < self.hit_timeout_rate:
            self.stats.expired_hits += 1
            return HitOutcome.EXPIRED
        if u < self.hit_timeout_rate + self.spam_burst_rate:
            self.stats.spam_bursts += 1
            return HitOutcome.SPAM
        return HitOutcome.OK

    def roll_transient(self) -> bool:
        """Whether one question hits a transient platform error."""
        failed = float(self._rng.random()) < self.transient_error_rate
        if failed:
            self.stats.transient_errors += 1
        return failed

    def roll_abandonment(self) -> bool:
        """Whether one worker assignment is abandoned."""
        abandoned = float(self._rng.random()) < self.abandonment_rate
        if abandoned:
            self.stats.abandoned_assignments += 1
        return abandoned
