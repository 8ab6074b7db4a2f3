"""Tests for worker error models and the worker pool."""

import itertools
import json

import numpy as np
import pytest

from repro.crowd.oracle import GroundTruthOracle
from repro.questions import PairwiseQuestion, Preference, UnaryQuestion
from repro.crowd.workers import (
    BernoulliWorker,
    DifficultyAwareWorker,
    PerfectWorker,
    SkilledWorker,
    SpammerWorker,
    WorkerPool,
)
from repro.exceptions import CrowdPlatformError


@pytest.fixture
def oracle(toy):
    return GroundTruthOracle(toy)


@pytest.fixture
def question(toy):
    # f is most preferred in A3 (rank 1); j least (rank 12).
    return PairwiseQuestion(toy.index_of("f"), toy.index_of("j"), 0)


class TestOracle:
    def test_pairwise_truth(self, oracle, question):
        assert oracle.pairwise_truth(question) is Preference.LEFT

    def test_pairwise_truth_flipped(self, toy, oracle):
        flipped = PairwiseQuestion(toy.index_of("j"), toy.index_of("f"), 0)
        assert oracle.pairwise_truth(flipped) is Preference.RIGHT

    def test_unary_truth(self, toy, oracle):
        assert oracle.unary_truth(UnaryQuestion(toy.index_of("f"), 0)) == 1.0

    def test_value_range(self, oracle):
        assert oracle.value_range(0) == 11.0  # ranks 1..12

    def test_value_range_degenerate(self, small_independent):
        oracle = GroundTruthOracle(small_independent)
        assert oracle.value_range(0) > 0

    def test_pairwise_truth_matches_numpy_comparison(self):
        """Every pair of a tie-heavy relation, on both attributes: equal
        latents, -0.0 against 0.0 and NaN decide as numpy scalars do."""
        from tests.conftest import make_relation

        latent = [
            (0.0, 1.0), (-0.0, 1.0), (1.0, -0.0), (1.0, 0.0),
            (2.5, float("nan")), (-0.0, 2.5), (2.5, 1.0), (0.0, -0.0),
        ]
        relation = make_relation([(i,) for i in range(len(latent))], latent)
        oracle = GroundTruthOracle(relation)
        matrix = relation.latent_matrix()
        for attribute in range(matrix.shape[1]):
            for left, right in itertools.permutations(range(len(latent)), 2):
                a = matrix[left, attribute]
                b = matrix[right, attribute]
                expected = (
                    Preference.LEFT if a < b
                    else Preference.RIGHT if b < a
                    else Preference.EQUAL
                )
                question = PairwiseQuestion(left, right, attribute)
                assert oracle.pairwise_truth(question) is expected

    def test_from_latent_answers_like_the_relation(self, toy, oracle):
        bare = GroundTruthOracle.from_latent(toy.latent_matrix())
        for left in range(len(toy)):
            question = PairwiseQuestion(left, (left + 3) % len(toy), 0)
            assert bare.pairwise_truth(question) is (
                oracle.pairwise_truth(question)
            )
        assert bare.value_range(0) == oracle.value_range(0)


class TestPerfectWorker(object):
    def test_always_truthful(self, oracle, question, rng):
        worker = PerfectWorker()
        for _ in range(10):
            assert worker.answer_pairwise(question, oracle, rng) is (
                Preference.LEFT
            )

    def test_unary_exact(self, toy, oracle, rng):
        worker = PerfectWorker()
        question = UnaryQuestion(toy.index_of("h"), 0)
        assert worker.answer_pairwise is not None
        assert worker.answer_unary(question, oracle, rng) == 2.0


class TestBernoulliWorker:
    def test_accuracy_validated(self):
        with pytest.raises(CrowdPlatformError):
            BernoulliWorker(accuracy=1.5)

    def test_error_rate_close_to_one_minus_p(self, oracle, question, rng):
        worker = BernoulliWorker(accuracy=0.7)
        answers = [
            worker.answer_pairwise(question, oracle, rng)
            for _ in range(4000)
        ]
        error_rate = sum(a is not Preference.LEFT for a in answers) / 4000
        assert abs(error_rate - 0.3) < 0.04

    def test_errors_flip_preference(self, oracle, question, rng):
        worker = BernoulliWorker(accuracy=0.0, error_equal_fraction=0.0)
        assert worker.answer_pairwise(question, oracle, rng) is (
            Preference.RIGHT
        )

    def test_errors_hedge_to_equal(self, oracle, question, rng):
        worker = BernoulliWorker(accuracy=0.0, error_equal_fraction=1.0)
        assert worker.answer_pairwise(question, oracle, rng) is (
            Preference.EQUAL
        )

    def test_error_equal_fraction_validated(self):
        with pytest.raises(CrowdPlatformError):
            BernoulliWorker(error_equal_fraction=-0.1)

    def test_error_split_roughly_half(self, oracle, question, rng):
        worker = BernoulliWorker(accuracy=0.0, error_equal_fraction=0.5)
        answers = [
            worker.answer_pairwise(question, oracle, rng)
            for _ in range(2000)
        ]
        equal_rate = sum(a is Preference.EQUAL for a in answers) / 2000
        assert 0.4 < equal_rate < 0.6

    def test_equal_truth_errs_to_strict(self, rng, toy):
        # Craft two tuples with equal latents via a tiny relation.
        from tests.conftest import make_relation

        relation = make_relation([(1, 2), (2, 1)], [(5,), (5,)])
        oracle = GroundTruthOracle(relation)
        worker = BernoulliWorker(accuracy=0.0)
        answer = worker.answer_pairwise(PairwiseQuestion(0, 1), oracle, rng)
        assert answer in (Preference.LEFT, Preference.RIGHT)

    def test_unary_noise_scales_with_range(self, oracle, toy, rng):
        worker = BernoulliWorker(unary_sigma=0.1)
        question = UnaryQuestion(toy.index_of("e"), 0)
        samples = [
            worker.answer_unary(question, oracle, rng) for _ in range(500)
        ]
        assert abs(float(np.mean(samples)) - 3.0) < 0.2
        assert 0.5 * 1.1 < float(np.std(samples)) < 1.5 * 1.1


class TestSkilledWorker:
    def test_hire_clips_accuracy(self, rng):
        for _ in range(50):
            worker = SkilledWorker.hire(rng, mean_accuracy=0.5,
                                        accuracy_std=0.5)
            assert 0.5 <= worker.accuracy <= 1.0


class TestDifficultyAwareWorker:
    def test_easy_questions_nearly_perfect(self, toy, oracle, rng):
        worker = DifficultyAwareWorker(easiness_scale=0.05)
        question = PairwiseQuestion(toy.index_of("f"), toy.index_of("j"), 0)
        answers = [
            worker.answer_pairwise(question, oracle, rng)
            for _ in range(300)
        ]
        accuracy = sum(a is Preference.LEFT for a in answers) / 300
        assert accuracy > 0.95

    def test_near_ties_are_coin_flips(self, toy, oracle, rng):
        worker = DifficultyAwareWorker(easiness_scale=10.0)
        question = PairwiseQuestion(toy.index_of("f"), toy.index_of("h"), 0)
        answers = [
            worker.answer_pairwise(question, oracle, rng)
            for _ in range(2000)
        ]
        accuracy = sum(a is Preference.LEFT for a in answers) / 2000
        assert 0.4 < accuracy < 0.62

    def test_scale_validated(self):
        with pytest.raises(CrowdPlatformError):
            DifficultyAwareWorker(easiness_scale=0.0)


class TestSpammerWorker:
    def test_uniform_answers(self, oracle, question, rng):
        worker = SpammerWorker()
        answers = {
            worker.answer_pairwise(question, oracle, rng)
            for _ in range(100)
        }
        assert answers == set(Preference)

    def test_unary_in_range(self, oracle, toy, rng):
        worker = SpammerWorker()
        value = worker.answer_unary(UnaryQuestion(0, 0), oracle, rng)
        assert 0.0 <= value <= oracle.value_range(0)


class TestWorkerPool:
    def test_empty_pool_rejected(self):
        with pytest.raises(CrowdPlatformError):
            WorkerPool([])

    def test_uniform_pool_size(self):
        assert len(WorkerPool.uniform(size=30)) == 30

    def test_perfect_pool(self, oracle, question, rng):
        pool = WorkerPool.perfect()
        (worker,) = pool.draw(rng, 1)
        assert worker.answer_pairwise(question, oracle, rng) is (
            Preference.LEFT
        )

    def test_draw_count_validated(self, rng):
        for pool in (WorkerPool.uniform(), WorkerPool.perfect()):
            for count in (0, -1):
                with pytest.raises(CrowdPlatformError):
                    pool.draw(rng, count)

    def test_draw_with_replacement(self, rng):
        pool = WorkerPool([PerfectWorker()])
        assert len(pool.draw(rng, 5)) == 5

    @pytest.mark.parametrize(
        "bit_generator", [np.random.PCG64, np.random.MT19937]
    )
    def test_one_worker_draw_leaves_the_generator_untouched(
        self, bit_generator
    ):
        """A one-worker pool draws nothing, and neither does the
        zero-width ``integers`` call it stands for, so skipping it keeps
        the stream. States are compared as JSON: MT19937 holds arrays."""

        def state(rng):
            return json.dumps(
                rng.bit_generator.state,
                sort_keys=True,
                default=lambda array: array.tolist(),
            )

        rng = np.random.Generator(bit_generator(11))
        rng.random(3)
        before = state(rng)
        worker = PerfectWorker()
        drawn = WorkerPool([worker]).draw(rng, 7)
        assert len(drawn) == 7
        assert all(each is worker for each in drawn)
        assert state(rng) == before
        assert rng.integers(0, 1, size=7).tolist() == [0] * 7
        assert state(rng) == before

    def test_two_worker_draw_advances_like_integers(self):
        workers = [PerfectWorker(), BernoulliWorker()]
        pool = WorkerPool(workers)
        rng = np.random.default_rng(5)
        twin = np.random.default_rng(5)
        for _ in range(3):
            drawn = pool.draw(rng, 5)
            indices = twin.integers(0, 2, size=5)
            assert drawn == [workers[i] for i in indices]
            assert rng.bit_generator.state == twin.bit_generator.state

    def test_mixed_pool_spammer_fraction(self, rng):
        pool = WorkerPool.mixed(rng, size=20, spammer_fraction=0.5)
        spammers = sum(
            isinstance(w, SpammerWorker) for w in pool._workers
        )
        assert spammers == 10
