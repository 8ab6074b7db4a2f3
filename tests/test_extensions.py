"""Tests for the extension features: bitonic Baseline and budgeted mode."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.baseline import baseline_skyline
from repro.core.crowdsky import crowdsky, crowdsky_budgeted
from repro.data.synthetic import Distribution, generate_synthetic
from repro.data.toy import FIGURE1_SKYLINE_LABELS, figure1_dataset
from repro.exceptions import CrowdSkyError
from repro.metrics.accuracy import ak_skyline, ground_truth_skyline
from repro.sorting.bitonic import bitonic_schedule, bitonic_sort
from repro.sorting.comparators import truth_comparator


class TestBitonicSchedule:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_stage_count_is_log_squared(self, n):
        import math

        stages = bitonic_schedule(n)
        if n > 1:
            log = int(math.log2(n))
            assert len(stages) == log * (log + 1) // 2

    def test_stage_pairs_disjoint(self):
        for stage in bitonic_schedule(16):
            slots = [slot for pair in stage for slot in pair]
            assert len(slots) == len(set(slots))


class TestBitonicSort:
    @settings(max_examples=40, deadline=None)
    @given(st.permutations(list(range(11))))
    def test_sorts_any_permutation(self, values):
        latent = np.asarray([[float(v)] for v in values])
        order = bitonic_sort(range(11), truth_comparator(latent))
        assert [values[i] for i in order] == sorted(values)

    @pytest.mark.parametrize("n", [1, 2, 3, 6, 9, 17])
    def test_non_power_of_two(self, n):
        latent = np.asarray([[float((i * 5) % n)] for i in range(n)])
        order = bitonic_sort(range(n), truth_comparator(latent))
        values = [latent[i, 0] for i in order]
        assert values == sorted(values)

    def test_on_stage_callback_counts_stages(self):
        latent = np.random.default_rng(0).random((16, 1))
        stages = []
        bitonic_sort(
            range(16),
            truth_comparator(latent),
            on_stage=lambda pairs: stages.append(len(pairs)),
        )
        assert len(stages) == len(bitonic_schedule(16))

    def test_ties_preserved(self):
        latent = np.asarray([[2.0], [1.0], [1.0]])
        order = bitonic_sort(range(3), truth_comparator(latent))
        assert order[0] in (1, 2)
        assert order[2] == 0


class TestBitonicBaseline:
    def test_matches_ground_truth(self):
        relation = generate_synthetic(
            60, 3, 1, Distribution.INDEPENDENT, seed=2
        )
        result = baseline_skyline(relation, sort="bitonic")
        assert result.skyline == ground_truth_skyline(relation)
        assert "bitonic" in result.algorithm

    def test_far_fewer_rounds_than_tournament(self):
        bitonic = baseline_skyline(
            generate_synthetic(100, 3, 1, Distribution.INDEPENDENT, seed=3),
            sort="bitonic",
        )
        tournament = baseline_skyline(
            generate_synthetic(100, 3, 1, Distribution.INDEPENDENT, seed=3),
            sort="tournament",
        )
        assert bitonic.stats.rounds < tournament.stats.rounds / 10
        assert bitonic.stats.questions > tournament.stats.questions

    def test_unknown_sort_rejected(self, toy):
        with pytest.raises(CrowdSkyError):
            baseline_skyline(toy, sort="quick")

    def test_toy_dataset(self, toy):
        result = baseline_skyline(figure1_dataset(), sort="bitonic")
        assert result.skyline_labels(toy) == set(FIGURE1_SKYLINE_LABELS)


class TestBudgetedCrowdSky:
    def test_generous_budget_is_exact(self):
        relation = generate_synthetic(
            80, 3, 1, Distribution.INDEPENDENT, seed=5
        )
        result = crowdsky_budgeted(relation, 10_000)
        assert not result.budget_exhausted
        assert result.skyline == ground_truth_skyline(relation)
        assert result.complete_tuples == len(relation)

    def test_zero_budget_defaults_everything_to_skyline(self):
        relation = generate_synthetic(
            40, 3, 1, Distribution.INDEPENDENT, seed=5
        )
        result = crowdsky_budgeted(relation, 0)
        assert result.budget_exhausted
        assert result.skyline == set(range(len(relation)))

    def test_budget_matches_full_run_questions(self):
        relation = generate_synthetic(
            80, 3, 1, Distribution.INDEPENDENT, seed=6
        )
        full = crowdsky(
            generate_synthetic(80, 3, 1, Distribution.INDEPENDENT, seed=6)
        )
        result = crowdsky_budgeted(relation, full.stats.questions)
        assert not result.budget_exhausted
        assert result.skyline == full.skyline

    def test_result_quality_monotone_in_budget(self):
        """More budget never grows the (over-approximated) skyline."""
        sizes = []
        for budget in (0, 20, 60, 120, 100_000):
            relation = generate_synthetic(
                80, 3, 1, Distribution.INDEPENDENT, seed=7
            )
            result = crowdsky_budgeted(relation, budget)
            sizes.append(len(result.skyline))
        assert sizes == sorted(sizes, reverse=True)

    def test_partial_budget_never_misses_truth(self):
        """The budgeted result over-approximates: recall stays 1.0 with a
        perfect crowd (tuples are only removed on actual evidence)."""
        relation = generate_synthetic(
            80, 3, 1, Distribution.INDEPENDENT, seed=8
        )
        truth = ground_truth_skyline(relation)
        result = crowdsky_budgeted(relation, 30)
        assert truth <= result.skyline

    def test_questions_never_exceed_budget(self):
        relation = generate_synthetic(
            80, 3, 1, Distribution.INDEPENDENT, seed=9
        )
        result = crowdsky_budgeted(relation, 37)
        assert result.stats.questions <= 37

    def test_complete_count_includes_ak_skyline(self):
        relation = generate_synthetic(
            40, 3, 1, Distribution.INDEPENDENT, seed=10
        )
        result = crowdsky_budgeted(relation, 0)
        assert result.complete_tuples >= 0


class TestMultiwayQuestions:
    """The m-ary question extension (§2.1)."""

    def test_multiway_question_validation(self):
        from repro.questions import MultiwayQuestion

        with pytest.raises(ValueError):
            MultiwayQuestion((1,))
        with pytest.raises(ValueError):
            MultiwayQuestion((1, 1))
        assert MultiwayQuestion((3, 1, 2)).key() == (
            MultiwayQuestion((1, 2, 3)).key()
        )

    def test_platform_multiway_round(self, toy):
        from repro.crowd.platform import SimulatedCrowd
        from repro.questions import MultiwayQuestion

        crowd = SimulatedCrowd(toy)
        question = MultiwayQuestion(
            (toy.index_of("b"), toy.index_of("e"), toy.index_of("f"))
        )
        answers = crowd.ask_multiway_round([question])
        assert answers[question] == toy.index_of("f")
        assert crowd.stats.questions == 1
        # Re-asking is served from cache.
        crowd.ask_multiway_round([question])
        assert crowd.stats.questions == 1

    def test_figure3_probing_collapses_to_one_question(self, toy_fig3):
        """4-ary probing resolves {b, e, i, j} with a single micro-task:
        3 + 6 pairwise questions become 1 + 6."""
        from repro.core.crowdsky import CrowdSkyConfig

        result = crowdsky(toy_fig3, config=CrowdSkyConfig(multiway=4))
        assert result.stats.questions == 7
        assert result.skyline == ground_truth_skyline(toy_fig3)

    @pytest.mark.parametrize("k", [3, 4, 6])
    def test_multiway_correct_on_random_data(self, k):
        from repro.core.crowdsky import CrowdSkyConfig

        relation = generate_synthetic(
            60, 2, 1, Distribution.ANTI_CORRELATED, seed=11
        )
        result = crowdsky(relation, config=CrowdSkyConfig(multiway=k))
        assert result.skyline == ground_truth_skyline(relation)

    def test_multiway_parallel_schedulers(self):
        from repro.core.crowdsky import CrowdSkyConfig
        from repro.core.parallel import parallel_dset, parallel_sl

        for algorithm in (parallel_dset, parallel_sl):
            relation = generate_synthetic(
                60, 2, 1, Distribution.ANTI_CORRELATED, seed=12
            )
            result = algorithm(relation, config=CrowdSkyConfig(multiway=4))
            assert result.skyline == ground_truth_skyline(relation)

    def test_multiway_ignored_for_multiple_crowd_attributes(self):
        from repro.core.crowdsky import CrowdSkyConfig

        relation = generate_synthetic(
            40, 2, 2, Distribution.INDEPENDENT, seed=13
        )
        result = crowdsky(relation, config=CrowdSkyConfig(multiway=4))
        assert result.skyline == ground_truth_skyline(relation)

    def test_multiway_under_noise_terminates(self):
        from repro.core.crowdsky import CrowdSkyConfig
        from repro.crowd.platform import SimulatedCrowd
        from repro.crowd.voting import StaticVoting
        from repro.crowd.workers import WorkerPool

        relation = generate_synthetic(
            80, 2, 1, Distribution.ANTI_CORRELATED, seed=14
        )
        crowd = SimulatedCrowd(
            relation,
            pool=WorkerPool.uniform(accuracy=0.7),
            voting=StaticVoting(3),
            seed=14,
        )
        result = crowdsky(
            relation, crowd=crowd, config=CrowdSkyConfig(multiway=4)
        )
        assert result.skyline

    def test_worker_multiway_error_model(self, toy, rng):
        from repro.crowd.oracle import GroundTruthOracle
        from repro.questions import MultiwayQuestion
        from repro.crowd.workers import BernoulliWorker

        oracle = GroundTruthOracle(toy)
        question = MultiwayQuestion(
            (toy.index_of("b"), toy.index_of("e"), toy.index_of("f"))
        )
        always_wrong = BernoulliWorker(accuracy=0.0)
        answer = always_wrong.answer_multiway(question, oracle, rng)
        assert answer in question.candidates
        assert answer != toy.index_of("f")


class TestPartialIncompleteness:
    """The §2.2 extension: some tuples' crowd values are stored."""

    def _dataset(self, seed=9):
        return generate_synthetic(
            120, 3, 1, Distribution.INDEPENDENT, seed=seed
        )

    def test_all_visible_needs_no_questions(self):
        relation = self._dataset()
        result = crowdsky(relation, visible_crowd=range(len(relation)))
        assert result.stats.questions == 0
        assert result.skyline == ground_truth_skyline(relation)

    def test_partial_visibility_reduces_questions_monotonically(self):
        counts = []
        for fraction in (0.0, 0.4, 0.8, 1.0):
            relation = self._dataset()
            visible = range(int(len(relation) * fraction))
            result = crowdsky(relation, visible_crowd=visible)
            assert result.skyline == ground_truth_skyline(relation)
            counts.append(result.stats.questions)
        assert counts == sorted(counts, reverse=True)

    def test_visible_pairs_never_asked(self):
        relation = self._dataset()
        visible = set(range(60))
        result = crowdsky(relation, visible_crowd=visible)
        for _, question, _ in result.question_log:
            assert not (
                question.left in visible and question.right in visible
            )

    @pytest.mark.parametrize("algorithm_name", ["dset", "sl"])
    def test_parallel_schedulers_support_visibility(self, algorithm_name):
        from repro.core.parallel import parallel_dset, parallel_sl

        algorithm = parallel_dset if algorithm_name == "dset" else parallel_sl
        relation = self._dataset(seed=10)
        result = algorithm(relation, visible_crowd=range(60))
        assert result.skyline == ground_truth_skyline(relation)

    def test_multi_attribute_visibility(self):
        relation = generate_synthetic(
            60, 2, 2, Distribution.INDEPENDENT, seed=11
        )
        result = crowdsky(relation, visible_crowd=range(30))
        assert result.skyline == ground_truth_skyline(relation)

    def test_seed_handles_ties(self):
        from tests.conftest import make_relation

        relation = make_relation(
            [(1, 9), (2, 8), (3, 7), (4, 6)],
            [(5,), (5,), (1,), (2,)],
        )
        result = crowdsky(relation, visible_crowd=[0, 1, 2, 3])
        assert result.stats.questions == 0
        assert result.skyline == ground_truth_skyline(relation)

    @pytest.mark.parametrize("bad", [99, -1])
    @pytest.mark.parametrize("algorithm_name", ["serial", "dset", "sl"])
    def test_bad_visible_index_refused_before_header(
        self, algorithm_name, bad, tmp_path
    ):
        """An entry outside ``[0, n)`` is refused before the journal
        header or any question; it used to be journaled and then raise
        numpy's IndexError (99) or be read as tuple n − 1 (−1)."""
        from repro.core.parallel import parallel_dset, parallel_sl
        from repro.crowd.journal import recover_journal
        from repro.crowd.platform import SimulatedCrowd

        algorithm = {
            "serial": crowdsky, "dset": parallel_dset, "sl": parallel_sl,
        }[algorithm_name]
        relation = generate_synthetic(
            60, 2, 1, Distribution.INDEPENDENT, seed=9
        )
        journal = tmp_path / "journal"
        crowd = SimulatedCrowd(relation, journal=journal)
        with pytest.raises(
            CrowdSkyError, match=rf"visible_crowd entry {bad} .*\[0, 60\)"
        ):
            algorithm(relation, crowd, visible_crowd=[3, bad])
        assert crowd.stats.questions == 0
        assert recover_journal(journal).header is None

    def test_empty_and_singleton_visibility_noop(self):
        relation = self._dataset(seed=12)
        baseline = crowdsky(self._dataset(seed=12))
        for visible in ([], [5]):
            relation = self._dataset(seed=12)
            result = crowdsky(relation, visible_crowd=visible)
            assert result.stats.questions == baseline.stats.questions
