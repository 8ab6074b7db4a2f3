"""Ground-truth oracle over the latent crowd values.

Simulated workers do not see the latent matrix directly; they consult the
oracle for the *true* answer and then distort it according to their error
model. Algorithms must never touch this module — it exists purely on the
crowd side of the machine/crowd boundary (paper Figure "machine part vs
crowd part").
"""

from __future__ import annotations

import numpy as np

from repro.questions import (
    MultiwayQuestion,
    PairwiseQuestion,
    Preference,
    UnaryQuestion,
)
from repro.data.relation import Relation


class GroundTruthOracle:
    """Answers questions truthfully from a relation's latent values."""

    def __init__(self, relation: Relation):
        self._latent = relation.latent_matrix()

    def multiway_truth(self, question: MultiwayQuestion) -> int:
        """The most preferred candidate (ties broken by lowest index)."""
        values = self._latent[list(question.candidates), question.attribute]
        best = int(np.argmin(values))
        return question.candidates[best]

    def pairwise_truth(self, question: PairwiseQuestion) -> Preference:
        """The correct ternary answer (smaller latent value preferred)."""
        left = self._latent[question.left, question.attribute]
        right = self._latent[question.right, question.attribute]
        if left < right:
            return Preference.LEFT
        if right < left:
            return Preference.RIGHT
        return Preference.EQUAL

    def unary_truth(self, question: UnaryQuestion) -> float:
        """The true latent value of a tuple (smaller preferred)."""
        return float(self._latent[question.tuple_index, question.attribute])

    def value_range(self, attribute: int) -> float:
        """Spread of the latent values on one attribute.

        Worker noise for unary questions scales with this range so the
        simulation behaves sensibly for arbitrary units.
        """
        column = self._latent[:, attribute]
        spread = float(np.max(column) - np.min(column))
        return spread if spread > 0 else 1.0
