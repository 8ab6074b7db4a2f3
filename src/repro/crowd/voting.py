"""Static and dynamic majority voting (paper §5).

Because workers make mistakes, each question is assigned ``ω`` workers and
the final answer decided by majority voting. The paper's contribution is
*dynamic* voting: a query-dependent assignment where question importance —
measured by ``freq(u, v)``, the number of tuples dominated by both ``u``
and ``v`` in ``AK`` — modulates the worker count:

.. math::
   ω' = \\begin{cases}
     ω - 2 & freq(u, v) < α \\\\
     ω     & α ≤ freq(u, v) < β \\\\
     ω + 2 & freq(u, v) ≥ β
   \\end{cases}

§6.1 tunes ``α``/``β`` so that roughly the top 30% of questions receive
``ω + 2`` and the bottom 30% receive ``ω − 2`` — keeping the total number
of worker assignments comparable to static voting. Since ``freq`` depends
only on machine-known values, we derive the thresholds from the 30th/70th
percentiles of the co-domination counts of all candidate pairs
(:meth:`repro.skyline.dominating.FrequencyOracle.quantiles`).
"""

from __future__ import annotations

import abc
from typing import Iterable

from repro.questions import PairwiseQuestion, Preference
from repro.exceptions import CrowdPlatformError
from repro.obs.report import DEFAULT_OMEGA
from repro.skyline.dominating import FrequencyOracle


def majority_vote(votes: Iterable[Preference]) -> Preference:
    """Aggregate ternary votes by plurality.

    A strict LEFT/RIGHT tie resolves to ``EQUAL`` — the symmetric choice,
    and the only one that does not bias the pair order.
    """
    votes = list(votes)
    if not votes:
        raise CrowdPlatformError("cannot aggregate an empty vote set")
    left = votes.count(Preference.LEFT)
    right = votes.count(Preference.RIGHT)
    equal = votes.count(Preference.EQUAL)
    if left > right and left >= equal:
        return Preference.LEFT
    if right > left and right >= equal:
        return Preference.RIGHT
    return Preference.EQUAL


class VotingPolicy(abc.ABC):
    """Decides how many workers a pairwise question receives."""

    @abc.abstractmethod
    def workers_for(self, question: PairwiseQuestion) -> int:
        """Number of workers to assign to ``question`` (≥ 1)."""

    def aggregate(self, votes: Iterable[Preference]) -> Preference:
        """Aggregate the collected votes (majority by default)."""
        return majority_vote(votes)


class StaticVoting(VotingPolicy):
    """Every question receives the same ``ω`` workers (paper's baseline)."""

    def __init__(self, omega: int = DEFAULT_OMEGA):
        if omega < 1:
            raise CrowdPlatformError("omega must be at least 1")
        self.omega = omega

    def workers_for(self, question: PairwiseQuestion) -> int:
        return self.omega

    def __repr__(self) -> str:
        return f"StaticVoting(omega={self.omega})"


class DynamicVoting(VotingPolicy):
    """Importance-weighted assignment by ``freq(u, v)`` (paper §5).

    Parameters
    ----------
    frequency:
        The :class:`FrequencyOracle` over the relation's ``AK`` dominance
        matrix.
    omega:
        Base worker count.
    alpha, beta:
        Importance thresholds (``alpha < beta``). Use
        :meth:`from_frequency` to derive them from the data as §6.1 does.
    """

    def __init__(
        self,
        frequency: FrequencyOracle,
        omega: int = DEFAULT_OMEGA,
        alpha: float = 1.0,
        beta: float = 2.0,
    ):
        if omega < 3:
            raise CrowdPlatformError("dynamic voting needs omega >= 3")
        if alpha > beta:
            raise CrowdPlatformError("alpha must not exceed beta")
        self._frequency = frequency
        self.omega = omega
        self.alpha = alpha
        self.beta = beta

    @classmethod
    def from_frequency(
        cls,
        frequency: FrequencyOracle,
        omega: int = DEFAULT_OMEGA,
        low_quantile: float = 0.3,
        high_quantile: float = 0.7,
    ) -> "DynamicVoting":
        """Derive ``α``/``β`` as quantiles of the pair-frequency
        distribution, so ~30% of questions get ``ω+2`` and ~30% get
        ``ω−2`` (the paper's tuning)."""
        alpha, beta = frequency.quantiles([low_quantile, high_quantile])
        return cls(frequency, omega=omega, alpha=alpha, beta=beta)

    def workers_for(self, question: PairwiseQuestion) -> int:
        freq = self._frequency.freq(question.left, question.right)
        if freq < self.alpha:
            return max(1, self.omega - 2)
        if freq < self.beta:
            return self.omega
        return self.omega + 2

    def __repr__(self) -> str:
        return (
            f"DynamicVoting(omega={self.omega}, alpha={self.alpha:.2f}, "
            f"beta={self.beta:.2f})"
        )
