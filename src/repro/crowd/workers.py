"""Worker error models and the worker pool (paper §2.1, §5, §6).

The paper's simulation assumes each worker answers a question correctly
with probability ``p`` (default 0.8). We model that as
:class:`BernoulliWorker` and additionally provide:

* :class:`PerfectWorker` — always correct (the §3/§4 assumption under
  which question/round counts are measured),
* :class:`SkilledWorker` — per-worker proficiency drawn once at hire time
  (the "proficiency of workers" dimension of query-independent accuracy
  work cited in §2.1),
* :class:`SpammerWorker` — answers uniformly at random (AMT spam; the
  paper filters these by requiring Masters qualification, which we model
  as excluding spammers from the pool). The fault-injection layer
  (:mod:`repro.crowd.faults`) reuses this model for *spam bursts*: a
  whole HIT answered by a spam crew drawn from the fault plan's own
  generator, so burst injection never perturbs the honest answer stream.

For unary (quantitative) questions workers return the true latent value
perturbed by Gaussian noise scaled to the attribute's value range —
capturing the paper's observation that absolute judgments are harder than
relative ones.
"""

from __future__ import annotations

import abc
from typing import Any, Dict, List, Optional, Sequence

import numpy as np

from repro.crowd.oracle import GroundTruthOracle
from repro.questions import (
    MultiwayQuestion,
    PairwiseQuestion,
    Preference,
    UnaryQuestion,
)
from repro.exceptions import CrowdPlatformError

#: Default per-answer correctness probability (paper §6.1).
DEFAULT_ACCURACY = 0.8

#: Default unary noise, as a fraction of the latent value range. Chosen so
#: that the Unary baseline orders tuples *better* than a noisy pairwise
#: tournament sort (the paper notes its simulation setting favours Unary).
DEFAULT_UNARY_SIGMA = 0.10


class Worker(abc.ABC):
    """A single crowd worker."""

    @abc.abstractmethod
    def answer_pairwise(
        self,
        question: PairwiseQuestion,
        oracle: GroundTruthOracle,
        rng: np.random.Generator,
    ) -> Preference:
        """Answer a ternary pairwise question."""

    @abc.abstractmethod
    def answer_unary(
        self,
        question: UnaryQuestion,
        oracle: GroundTruthOracle,
        rng: np.random.Generator,
    ) -> float:
        """Answer a quantitative (unary) question with a value estimate."""

    def answer_multiway(
        self,
        question: MultiwayQuestion,
        oracle: GroundTruthOracle,
        rng: np.random.Generator,
    ) -> int:
        """Pick the most preferred of several tuples (m-ary format).

        The default is truthful; error models override."""
        return oracle.multiway_truth(question)


class PerfectWorker(Worker):
    """Always returns the ground truth."""

    def answer_pairwise(self, question, oracle, rng):
        return oracle.pairwise_truth(question)

    def answer_unary(self, question, oracle, rng):
        return oracle.unary_truth(question)


class BernoulliWorker(Worker):
    """Correct with probability ``p``; errs by hedging or flipping.

    An erring worker either hedges with "equally preferred" (with
    probability ``error_equal_fraction`` — the typical uncertain-human
    answer to "which movie is more romantic?") or flips to the opposite
    strict preference. When the truth is ``EQUAL`` an error picks a
    random strict side. Unary answers carry Gaussian noise with standard
    deviation ``unary_sigma × value_range``.
    """

    def __init__(
        self,
        accuracy: float = DEFAULT_ACCURACY,
        unary_sigma: float = DEFAULT_UNARY_SIGMA,
        error_equal_fraction: float = 0.5,
    ):
        if not 0.0 <= accuracy <= 1.0:
            raise CrowdPlatformError("worker accuracy must be within [0, 1]")
        if not 0.0 <= error_equal_fraction <= 1.0:
            raise CrowdPlatformError(
                "error_equal_fraction must be within [0, 1]"
            )
        self.accuracy = accuracy
        self.unary_sigma = unary_sigma
        self.error_equal_fraction = error_equal_fraction

    def answer_pairwise(self, question, oracle, rng):
        truth = oracle.pairwise_truth(question)
        if rng.random() < self.accuracy:
            return truth
        if truth is Preference.EQUAL:
            return Preference.LEFT if rng.random() < 0.5 else Preference.RIGHT
        if rng.random() < self.error_equal_fraction:
            return Preference.EQUAL
        return truth.opposite()

    def answer_unary(self, question, oracle, rng):
        truth = oracle.unary_truth(question)
        sigma = self.unary_sigma * oracle.value_range(question.attribute)
        return truth + float(rng.normal(0.0, sigma))

    def answer_multiway(self, question, oracle, rng):
        truth = oracle.multiway_truth(question)
        if rng.random() < self.accuracy:
            return truth
        others = [c for c in question.candidates if c != truth]
        return others[int(rng.integers(0, len(others)))]


class SkilledWorker(BernoulliWorker):
    """A Bernoulli worker whose accuracy was drawn from a skill prior.

    Use :meth:`hire` to sample a worker whose accuracy comes from a
    truncated normal around ``mean_accuracy``.
    """

    @classmethod
    def hire(
        cls,
        rng: np.random.Generator,
        mean_accuracy: float = DEFAULT_ACCURACY,
        accuracy_std: float = 0.1,
        unary_sigma: float = DEFAULT_UNARY_SIGMA,
    ) -> "SkilledWorker":
        accuracy = float(
            np.clip(rng.normal(mean_accuracy, accuracy_std), 0.5, 1.0)
        )
        return cls(accuracy=accuracy, unary_sigma=unary_sigma)


class DifficultyAwareWorker(Worker):
    """Accuracy grows with the latent gap between the compared tuples.

    Humans distinguish a large square from a tiny one with near-perfect
    reliability but flip coins on near-ties. The correctness probability
    for a pair with latent values ``a``, ``b`` is

    .. math::  p = 1 - 0.5 · \\exp(-|a - b| / (s · range))

    where ``s`` (``easiness_scale``) controls how quickly questions
    become easy. Unary answers use the same Gaussian model as
    :class:`BernoulliWorker`.
    """

    def __init__(
        self,
        easiness_scale: float = 0.1,
        unary_sigma: float = DEFAULT_UNARY_SIGMA,
    ):
        if easiness_scale <= 0:
            raise CrowdPlatformError("easiness_scale must be positive")
        self.easiness_scale = easiness_scale
        self.unary_sigma = unary_sigma

    def _accuracy_for(self, question, oracle) -> float:
        gap = abs(
            oracle.unary_truth(
                UnaryQuestion(question.left, question.attribute)
            )
            - oracle.unary_truth(
                UnaryQuestion(question.right, question.attribute)
            )
        )
        spread = oracle.value_range(question.attribute)
        return 1.0 - 0.5 * float(
            np.exp(-gap / (self.easiness_scale * spread))
        )

    def answer_pairwise(self, question, oracle, rng):
        truth = oracle.pairwise_truth(question)
        if rng.random() < self._accuracy_for(question, oracle):
            return truth
        if truth is Preference.EQUAL:
            return Preference.LEFT if rng.random() < 0.5 else Preference.RIGHT
        return truth.opposite()

    def answer_unary(self, question, oracle, rng):
        truth = oracle.unary_truth(question)
        sigma = self.unary_sigma * oracle.value_range(question.attribute)
        return truth + float(rng.normal(0.0, sigma))


class SpammerWorker(Worker):
    """Answers uniformly at random — models unfiltered AMT spam.

    Also the crew behind :class:`repro.crowd.faults.FaultPlan` spam
    bursts; pass the plan's generator as ``rng`` to keep burst answers
    off the honest randomness stream."""

    def answer_pairwise(self, question, oracle, rng):
        choices = (Preference.LEFT, Preference.RIGHT, Preference.EQUAL)
        return choices[int(rng.integers(0, 3))]

    def answer_unary(self, question, oracle, rng):
        return float(rng.random()) * oracle.value_range(question.attribute)

    def answer_multiway(self, question, oracle, rng):
        index = int(rng.integers(0, len(question.candidates)))
        return question.candidates[index]


class WorkerPool:
    """A pool from which worker assignments are drawn per question.

    The default pool is homogeneous Bernoulli workers (the paper's
    simulation). Mixed pools (skilled + spammers) support the failure-
    injection tests and the Masters-qualification ablation.
    """

    def __init__(self, workers: Sequence[Worker]):
        if not workers:
            raise CrowdPlatformError("worker pool must not be empty")
        self._workers: List[Worker] = list(workers)
        #: Construction recipe when the pool came from a deterministic
        #: classmethod (``perfect``/``uniform``) — lets a journal header
        #: record how to rebuild the pool on resume. ``None`` for hand-
        #: built or RNG-dependent (``mixed``) pools, which a resume must
        #: supply explicitly.
        self.spec: Optional[Dict[str, Any]] = None

    @classmethod
    def uniform(
        cls,
        size: int = 100,
        accuracy: float = DEFAULT_ACCURACY,
        unary_sigma: float = DEFAULT_UNARY_SIGMA,
        error_equal_fraction: float = 0.5,
    ) -> "WorkerPool":
        """A homogeneous pool of Bernoulli workers."""
        worker = BernoulliWorker(
            accuracy=accuracy,
            unary_sigma=unary_sigma,
            error_equal_fraction=error_equal_fraction,
        )
        pool = cls([worker] * size)
        pool.spec = {
            "kind": "uniform",
            "size": size,
            "accuracy": accuracy,
            "unary_sigma": unary_sigma,
            "error_equal_fraction": error_equal_fraction,
        }
        return pool

    @classmethod
    def perfect(cls) -> "WorkerPool":
        """A pool that always answers correctly (§3/§4 assumption)."""
        pool = cls([PerfectWorker()])
        pool.spec = {"kind": "perfect"}
        return pool

    @classmethod
    def from_spec(cls, spec: Dict[str, Any]) -> "WorkerPool":
        """Rebuild a pool from a :attr:`spec` recipe (journal resume)."""
        kind = spec.get("kind")
        if kind == "perfect":
            return cls.perfect()
        if kind == "uniform":
            return cls.uniform(
                size=spec["size"],
                accuracy=spec["accuracy"],
                unary_sigma=spec["unary_sigma"],
                error_equal_fraction=spec["error_equal_fraction"],
            )
        raise CrowdPlatformError(
            f"cannot rebuild a worker pool from spec kind {kind!r}"
        )

    @classmethod
    def mixed(
        cls,
        rng: np.random.Generator,
        size: int = 100,
        spammer_fraction: float = 0.0,
        mean_accuracy: float = DEFAULT_ACCURACY,
        accuracy_std: float = 0.1,
    ) -> "WorkerPool":
        """Skilled workers with an optional fraction of spammers."""
        num_spammers = int(round(size * spammer_fraction))
        workers: List[Worker] = [SpammerWorker()] * num_spammers
        workers += [
            SkilledWorker.hire(rng, mean_accuracy, accuracy_std)
            for _ in range(size - num_spammers)
        ]
        return cls(workers)

    def __len__(self) -> int:
        return len(self._workers)

    def draw(
        self, rng: np.random.Generator, count: int
    ) -> List[Worker]:
        """Draw ``count`` workers (with replacement, as on AMT where the
        same worker may take several HITs of a batch).

        A one-worker pool does not call ``rng``: numpy fills a
        zero-width range without drawing bits, so the stream is left
        exactly where ``rng.integers(0, 1, size=count)`` leaves it.
        """
        if count <= 0:
            raise CrowdPlatformError("must assign at least one worker")
        workers = self._workers
        if len(workers) == 1:
            return workers * count
        indices = rng.integers(0, len(workers), size=count)
        return [workers[i] for i in indices.tolist()]
