"""Tests for worker-quality tracking and weighted voting (the [11] line)."""

import numpy as np
import pytest

from repro.crowd.oracle import GroundTruthOracle
from repro.crowd.quality import (
    QualityAwareCrowd,
    WorkerQualityTracker,
    weighted_vote,
)
from repro.questions import PairwiseQuestion, Preference
from repro.crowd.workers import BernoulliWorker, SpammerWorker, WorkerPool
from repro.exceptions import CrowdPlatformError

L, R, E = Preference.LEFT, Preference.RIGHT, Preference.EQUAL


class TestWorkerQualityTracker:
    def test_prior_validated(self):
        with pytest.raises(CrowdPlatformError):
            WorkerQualityTracker(prior_correct=0.0)

    def test_prior_mean_before_observations(self):
        tracker = WorkerQualityTracker(prior_correct=4.0, prior_wrong=1.0)
        assert tracker.accuracy(0) == pytest.approx(0.8)
        assert tracker.observations(0) == 0

    def test_estimates_converge(self):
        tracker = WorkerQualityTracker()
        for _ in range(100):
            tracker.record(1, True)
        for _ in range(100):
            tracker.record(2, False)
        assert tracker.accuracy(1) > 0.95
        assert tracker.accuracy(2) < 0.1

    def test_weight_sign(self):
        tracker = WorkerQualityTracker()
        for _ in range(50):
            tracker.record(1, True)
            tracker.record(2, False)
        assert tracker.weight(1) > 0
        assert tracker.weight(2) < 0

    def test_weight_clipped(self):
        tracker = WorkerQualityTracker()
        for _ in range(10_000):
            tracker.record(1, True)
        assert tracker.weight(1) <= np.log(0.95 / 0.05) + 1e-9


class TestWeightedVote:
    def _tracker(self):
        tracker = WorkerQualityTracker()
        for _ in range(60):
            tracker.record(1, True)   # expert
            tracker.record(2, False)  # anti-expert
            tracker.record(3, False)
        return tracker

    def test_expert_outvotes_two_spammers(self):
        tracker = self._tracker()
        votes = [(1, L), (2, R), (3, R)]
        assert weighted_vote(votes, tracker) is L

    def test_negative_weights_flip_votes(self):
        """An anti-expert's vote is evidence for the opposite answer."""
        tracker = self._tracker()
        votes = [(2, R), (3, R)]
        # Two unreliable workers voting R push R's bucket negative; the
        # tie resolves to EQUAL rather than trusting them.
        assert weighted_vote(votes, tracker) is not R

    def test_empty_votes_rejected(self):
        with pytest.raises(CrowdPlatformError):
            weighted_vote([], WorkerQualityTracker())


class TestQualityAwareCrowd:
    def _build(self, spammer_fraction, seed=0, gold_rate=0.3):
        oracle = GroundTruthOracle.from_latent(
            np.arange(20, dtype=float)[:, None]
        )
        workers = (
            [SpammerWorker()] * int(20 * spammer_fraction)
            + [BernoulliWorker(accuracy=0.9)]
            * (20 - int(20 * spammer_fraction))
        )
        pool = WorkerPool(workers)
        gold = [PairwiseQuestion(0, 19), PairwiseQuestion(1, 18)]
        return QualityAwareCrowd(
            oracle, pool, gold, omega=5, gold_rate=gold_rate, seed=seed
        )

    def test_validation(self):
        crowd = self._build(0.0)
        with pytest.raises(CrowdPlatformError):
            QualityAwareCrowd(
                crowd._oracle, crowd._pool, [], seed=1
            )

    def test_calibration_serves_gold(self):
        crowd = self._build(0.5, seed=1)
        crowd.calibrate(rounds=10)
        assert crowd.gold_served == 50  # 10 rounds × ω=5

    def test_weighted_beats_majority_with_spammers(self):
        """The [11] headline: quality weighting rescues noisy pools."""
        questions = [
            PairwiseQuestion(i, 19 - i) for i in range(8)
        ]
        weighted_correct = 0
        majority_correct = 0
        trials = 0
        for seed in range(12):
            crowd = self._build(0.5, seed=seed)
            crowd.calibrate(rounds=30)
            for question in questions:
                truth = crowd._oracle.pairwise_truth(question)
                if crowd.ask(question) is truth:
                    weighted_correct += 1
                if crowd.ask_majority(question) is truth:
                    majority_correct += 1
                trials += 1
        assert weighted_correct >= majority_correct
        assert weighted_correct / trials > 0.8

    def test_gold_rate_bounds_validated(self):
        crowd = self._build(0.0)
        with pytest.raises(CrowdPlatformError):
            QualityAwareCrowd(
                crowd._oracle, crowd._pool,
                [PairwiseQuestion(0, 1)], gold_rate=1.5,
            )
