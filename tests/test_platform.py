"""Tests for the simulated crowd platform (rounds, caching, cost)."""

import numpy as np
import pytest

from repro.crowd.platform import CrowdStats, SimulatedCrowd
from repro.questions import PairwiseQuestion, Preference, UnaryQuestion
from repro.crowd.voting import StaticVoting
from repro.crowd.workers import WorkerPool
from repro.exceptions import BudgetExhaustedError, CrowdPlatformError


@pytest.fixture
def crowd(toy):
    return SimulatedCrowd(toy)


class TestCrowdStats:
    def test_record_round(self):
        stats = CrowdStats()
        stats.record_round(3, 15)
        stats.record_round(2, 10)
        assert stats.questions == 5
        assert stats.rounds == 2
        assert stats.worker_assignments == 25
        assert stats.round_sizes == [3, 2]

    def test_hit_cost_formula(self):
        """§6.2: cost = 0.02 · 5 · Σ ⌈|Qi|/5⌉."""
        stats = CrowdStats()
        stats.record_round(7, 35)   # 2 HITs
        stats.record_round(5, 25)   # 1 HIT
        stats.record_round(1, 5)    # 1 HIT
        assert stats.hit_cost() == pytest.approx(0.02 * 5 * 4)

    def test_assignment_cost(self):
        stats = CrowdStats()
        stats.record_round(2, 12)
        assert stats.assignment_cost() == pytest.approx(0.24)


class TestSimulatedCrowd:
    def test_seed_or_rng_not_both(self, toy):
        with pytest.raises(CrowdPlatformError):
            SimulatedCrowd(toy, rng=np.random.default_rng(0), seed=1)

    def test_perfect_crowd_truthful(self, toy, crowd):
        f, j = toy.index_of("f"), toy.index_of("j")
        assert crowd.ask_pairwise(PairwiseQuestion(f, j)) is Preference.LEFT
        assert crowd.ask_pairwise(PairwiseQuestion(j, f)) is Preference.RIGHT

    def test_answers_cached_across_orientations(self, toy, crowd):
        f, j = toy.index_of("f"), toy.index_of("j")
        crowd.ask_pairwise(PairwiseQuestion(f, j))
        assert crowd.stats.questions == 1
        crowd.ask_pairwise(PairwiseQuestion(j, f))
        assert crowd.stats.questions == 1  # served from cache
        assert crowd.stats.cached_hits >= 1

    def test_cached_answer_none_before_asking(self, crowd):
        assert crowd.cached_answer(PairwiseQuestion(0, 1)) is None

    def test_round_merges_duplicates(self, toy, crowd):
        f, j = toy.index_of("f"), toy.index_of("j")
        answers = crowd.ask_pairwise_round(
            [PairwiseQuestion(f, j), PairwiseQuestion(j, f)]
        )
        assert crowd.stats.questions == 1
        assert len(answers) == 1

    def test_round_counts_once(self, toy, crowd):
        questions = [
            PairwiseQuestion(toy.index_of("f"), toy.index_of(x))
            for x in "jhe"
        ]
        crowd.ask_pairwise_round(questions)
        assert crowd.stats.rounds == 1
        assert crowd.stats.questions == 3

    def test_all_cached_round_is_free(self, toy, crowd):
        question = PairwiseQuestion(toy.index_of("f"), toy.index_of("j"))
        crowd.ask_pairwise_round([question])
        crowd.ask_pairwise_round([question])
        assert crowd.stats.rounds == 1

    def test_question_log_records_rounds(self, toy, crowd):
        f, j, e = (toy.index_of(x) for x in "fje")
        crowd.ask_pairwise_round([PairwiseQuestion(f, j)])
        crowd.ask_pairwise_round([PairwiseQuestion(f, e)])
        assert [entry[0] for entry in crowd.question_log] == [1, 2]

    def test_budget_enforced(self, toy):
        crowd = SimulatedCrowd(toy, max_questions=1)
        crowd.ask_pairwise(PairwiseQuestion(0, 1))
        with pytest.raises(BudgetExhaustedError):
            crowd.ask_pairwise(PairwiseQuestion(0, 2))

    def test_perfect_posting_leaves_the_rng_snapshot(self, toy):
        """The perfect pool holds one worker, whose draws and answers
        consume no randomness: the backend snapshot a journal records
        stays where the seed put it."""
        crowd = SimulatedCrowd(toy, seed=3)
        before = crowd.backend_state()
        crowd.ask_pairwise_round(
            [PairwiseQuestion(0, 1), PairwiseQuestion(2, 5)]
        )
        assert crowd.stats.worker_assignments == 10
        assert crowd.backend_state() == before

    def test_voting_policy_controls_assignments(self, toy):
        crowd = SimulatedCrowd(
            toy, pool=WorkerPool.uniform(), voting=StaticVoting(5), seed=0
        )
        crowd.ask_pairwise(PairwiseQuestion(0, 1))
        assert crowd.stats.worker_assignments == 5

    def test_noisy_majority_usually_correct(self, toy):
        f, j = toy.index_of("f"), toy.index_of("j")
        correct = 0
        for seed in range(30):
            crowd = SimulatedCrowd(
                toy,
                pool=WorkerPool.uniform(accuracy=0.8),
                voting=StaticVoting(5),
                seed=seed,
            )
            if crowd.ask_pairwise(PairwiseQuestion(f, j)) is Preference.LEFT:
                correct += 1
        assert correct >= 27  # majority voting lifts 0.8 to ~0.94

    def test_unary_round(self, toy, crowd):
        questions = [UnaryQuestion(i, 0) for i in range(len(toy))]
        answers = crowd.ask_unary_round(questions)
        assert len(answers) == len(toy)
        assert crowd.stats.rounds == 1
        # Perfect crowd returns exact latent ranks.
        assert answers[UnaryQuestion(toy.index_of("f"), 0)] == 1.0

    def test_unary_cached(self, toy, crowd):
        crowd.ask_unary_round([UnaryQuestion(0, 0)])
        crowd.ask_unary_round([UnaryQuestion(0, 0)])
        assert crowd.stats.questions == 1
        assert crowd.stats.rounds == 1

    def test_unary_round_merges_duplicates(self, crowd):
        """Like pairwise and m-ary rounds, a unary round asks (and pays
        for) a repeated question once."""
        answers = crowd.ask_unary_round(
            [UnaryQuestion(0, 0), UnaryQuestion(0, 0)]
        )
        assert list(answers) == [UnaryQuestion(0, 0)]
        assert crowd.stats.questions == 1
        assert crowd.stats.round_sizes == [1]
        assert crowd.cost_records[-1]["questions"] == 1

    def test_unary_budget(self, toy):
        crowd = SimulatedCrowd(toy, max_questions=2)
        with pytest.raises(BudgetExhaustedError):
            crowd.ask_unary_round([UnaryQuestion(i, 0) for i in range(5)])
