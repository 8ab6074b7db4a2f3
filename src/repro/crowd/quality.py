"""Worker-quality estimation and weighted voting (the [11] CDAS line).

§2.1 classifies accuracy work into query-independent methods that model
"the proficiency of workers and the difficulty of questions" — e.g. CDAS
(Liu et al., VLDB 2012, the paper's [11]). This module implements the
standard gold-question recipe on top of the simulated platform:

1. every pairwise micro-task carries a small probability of being a
   *gold* question whose answer the requester already knows,
2. each worker's accuracy is estimated from their gold answers with a
   Beta prior (Laplace-smoothed),
3. aggregation weighs each vote by the log-odds of the worker's
   estimated accuracy — the Bayes-optimal combination for independent
   workers — instead of counting heads.

Weighted voting is query-independent: it improves every answer equally.
The paper's dynamic voting (§5) is the complementary query-*dependent*
lever; the two compose (dynamic chooses how many workers, quality
weighing decides how to combine them).
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Dict, List, Optional, Sequence, Tuple as TupleT

import numpy as np

from repro.crowd.oracle import GroundTruthOracle
from repro.questions import PairwiseQuestion, Preference
from repro.crowd.workers import Worker, WorkerPool
from repro.exceptions import CrowdPlatformError


class WorkerQualityTracker:
    """Per-worker accuracy estimates from gold-question outcomes.

    Workers are tracked by their pool index. A Beta(α, β) prior (default
    Beta(4, 1): mildly optimistic, matching typical qualification
    screens) shrinks early estimates toward the prior mean.
    """

    def __init__(self, prior_correct: float = 4.0, prior_wrong: float = 1.0):
        if prior_correct <= 0 or prior_wrong <= 0:
            raise CrowdPlatformError("Beta prior parameters must be positive")
        self._prior_correct = prior_correct
        self._prior_wrong = prior_wrong
        self._correct: Dict[int, int] = {}
        self._wrong: Dict[int, int] = {}

    def record(self, worker_id: int, correct: bool) -> None:
        """Account one gold-question outcome."""
        bucket = self._correct if correct else self._wrong
        bucket[worker_id] = bucket.get(worker_id, 0) + 1

    def accuracy(self, worker_id: int) -> float:
        """Posterior-mean accuracy estimate of a worker."""
        correct = self._correct.get(worker_id, 0) + self._prior_correct
        wrong = self._wrong.get(worker_id, 0) + self._prior_wrong
        return correct / (correct + wrong)

    def observations(self, worker_id: int) -> int:
        """Gold questions this worker has answered."""
        return self._correct.get(worker_id, 0) + self._wrong.get(
            worker_id, 0
        )

    def weight(self, worker_id: int) -> float:
        """Log-odds vote weight, clipped away from infinities."""
        accuracy = min(max(self.accuracy(worker_id), 0.05), 0.95)
        return math.log(accuracy / (1.0 - accuracy))


def weighted_vote(
    votes: Sequence[TupleT[int, Preference]],
    tracker: WorkerQualityTracker,
) -> Preference:
    """Aggregate ``(worker_id, answer)`` votes by estimated reliability.

    Each answer's bucket accumulates the worker's log-odds weight; the
    heaviest bucket wins (LEFT/RIGHT ties resolve to EQUAL, as in the
    unweighted majority)."""
    if not votes:
        raise CrowdPlatformError("cannot aggregate an empty vote set")
    weights: Dict[Preference, float] = {
        Preference.LEFT: 0.0,
        Preference.RIGHT: 0.0,
        Preference.EQUAL: 0.0,
    }
    for worker_id, answer in votes:
        weights[answer] += tracker.weight(worker_id)
    left = weights[Preference.LEFT]
    right = weights[Preference.RIGHT]
    equal = weights[Preference.EQUAL]
    if left > right and left >= equal:
        return Preference.LEFT
    if right > left and right >= equal:
        return Preference.RIGHT
    return Preference.EQUAL


class QualityAwareCrowd:
    """A thin quality layer over a worker pool.

    Simulates the gold-question pipeline end to end: for each real
    question, ``omega`` identified workers answer; with probability
    ``gold_rate`` each worker is *also* served a gold question (whose
    truth is known) that updates their accuracy estimate; the real
    answers are then combined by reliability-weighted voting.

    This is intentionally independent of :class:`SimulatedCrowd` — it
    demonstrates/validates the [11] technique in isolation; the tests
    compare it against unweighted majority under spammer-heavy pools.
    """

    def __init__(
        self,
        oracle: GroundTruthOracle,
        pool: WorkerPool,
        gold_questions: Sequence[PairwiseQuestion],
        omega: int = 5,
        gold_rate: float = 0.2,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ):
        if not gold_questions:
            raise CrowdPlatformError("need at least one gold question")
        if not 0.0 <= gold_rate <= 1.0:
            raise CrowdPlatformError("gold_rate must be within [0, 1]")
        if rng is not None and seed is not None:
            raise CrowdPlatformError("pass either seed or rng, not both")
        self._oracle = oracle
        self._pool = pool
        self._gold = list(gold_questions)
        self._omega = omega
        self._gold_rate = gold_rate
        self._rng = rng if rng is not None else np.random.default_rng(seed)
        self.tracker = WorkerQualityTracker()
        self.gold_served = 0

    def _workers(self) -> List[TupleT[int, Worker]]:
        ids = self._rng.integers(0, len(self._pool), size=self._omega)
        return [(int(i), self._pool._workers[int(i)]) for i in ids]

    def calibrate(self, rounds: int) -> None:
        """Serve gold questions only, warming up the tracker."""
        for _ in range(rounds):
            for worker_id, worker in self._workers():
                self._serve_gold(worker_id, worker)

    def _serve_gold(self, worker_id: int, worker: Worker) -> None:
        gold = self._gold[int(self._rng.integers(0, len(self._gold)))]
        answer = worker.answer_pairwise(gold, self._oracle, self._rng)
        truth = self._oracle.pairwise_truth(gold)
        self.tracker.record(worker_id, answer is truth)
        self.gold_served += 1

    def ask(self, question: PairwiseQuestion) -> Preference:
        """Answer one real question with reliability-weighted voting."""
        votes: List[TupleT[int, Preference]] = []
        for worker_id, worker in self._workers():
            if self._rng.random() < self._gold_rate:
                self._serve_gold(worker_id, worker)
            votes.append(
                (worker_id,
                 worker.answer_pairwise(question, self._oracle, self._rng))
            )
        return weighted_vote(votes, self.tracker)

    def ask_majority(self, question: PairwiseQuestion) -> Preference:
        """Same workers, plain (unweighted) majority — the control."""
        answers = [
            worker.answer_pairwise(question, self._oracle, self._rng)
            for _, worker in self._workers()
        ]
        counts = Counter(answers)
        left = counts.get(Preference.LEFT, 0)
        right = counts.get(Preference.RIGHT, 0)
        equal = counts.get(Preference.EQUAL, 0)
        if left > right and left >= equal:
            return Preference.LEFT
        if right > left and right >= equal:
            return Preference.RIGHT
        return Preference.EQUAL
