"""Tests for the parallel schedulers, pinned against the paper's rounds."""

import pytest

from repro.core.crowdsky import CrowdSkyConfig, PruningLevel, crowdsky
from repro.core.parallel import parallel_dset, parallel_sl
from repro.crowd.journal import recover_journal
from repro.crowd.platform import SimulatedCrowd
from repro.data.synthetic import Distribution, generate_synthetic
from repro.data.toy import FIGURE1_SKYLINE_LABELS, figure1_dataset
from repro.exceptions import CrowdSkyError
from repro.metrics.accuracy import ground_truth_skyline


class TestGoldenRounds:
    def test_parallel_dset_nine_rounds(self, toy):
        """Example 7: 12 questions in 9 rounds."""
        result = parallel_dset(toy)
        assert result.stats.questions == 12
        assert result.stats.rounds == 9

    def test_parallel_sl_six_rounds(self, toy):
        """Example 8 / Table 3: 12 questions in 6 rounds."""
        result = parallel_sl(toy)
        assert result.stats.questions == 12
        assert result.stats.rounds == 6

    def test_parallel_sl_schedule_matches_table3(self, toy):
        result = parallel_sl(toy)
        by_round = {}
        for round_number, question, _ in result.question_log:
            pair = tuple(
                sorted((toy.label(question.left), toy.label(question.right)))
            )
            by_round.setdefault(round_number, set()).add(pair)
        assert by_round == {
            1: {("a", "b"), ("e", "g"), ("b", "e"), ("i", "l")},
            2: {("d", "e"), ("i", "k"), ("c", "e")},
            3: {("e", "f"), ("e", "i")},
            4: {("e", "h")},
            5: {("f", "h")},
            6: {("f", "j")},
        }

    def test_both_schedulers_reproduce_paper_skyline(self, toy):
        for algorithm in (parallel_dset, parallel_sl):
            result = algorithm(figure1_dataset())
            assert result.skyline_labels(toy) == set(FIGURE1_SKYLINE_LABELS)


class TestCorrectness:
    @pytest.mark.parametrize("algorithm", [parallel_dset, parallel_sl])
    @pytest.mark.parametrize("seed", range(4))
    def test_matches_ground_truth(self, algorithm, seed):
        relation = generate_synthetic(
            60, 3, 1, Distribution.INDEPENDENT, seed=seed
        )
        assert algorithm(relation).skyline == ground_truth_skyline(relation)

    @pytest.mark.parametrize("algorithm", [parallel_dset, parallel_sl])
    def test_anti_correlated(self, algorithm):
        relation = generate_synthetic(
            50, 2, 1, Distribution.ANTI_CORRELATED, seed=5
        )
        assert algorithm(relation).skyline == ground_truth_skyline(relation)

    @pytest.mark.parametrize("algorithm", [parallel_dset, parallel_sl])
    def test_multi_crowd_attributes(self, algorithm):
        relation = generate_synthetic(
            40, 2, 2, Distribution.INDEPENDENT, seed=9
        )
        assert algorithm(relation).skyline == ground_truth_skyline(relation)

    @pytest.mark.parametrize("algorithm", [parallel_dset, parallel_sl])
    def test_duplicates_preprocessing(self, algorithm):
        from tests.conftest import make_relation

        relation = make_relation(
            [(1, 1), (1, 1), (2, 2)],
            [(2,), (1,), (3,)],
        )
        assert algorithm(relation).skyline == {1}


class TestLatencyOrdering:
    def test_rounds_strictly_improve(self):
        """Serial ≥ ParallelDSet ≥ ParallelSL on the same data (§6.1)."""
        serial = crowdsky(
            generate_synthetic(120, 3, 1, Distribution.INDEPENDENT, seed=1)
        )
        dset = parallel_dset(
            generate_synthetic(120, 3, 1, Distribution.INDEPENDENT, seed=1)
        )
        layered = parallel_sl(
            generate_synthetic(120, 3, 1, Distribution.INDEPENDENT, seed=1)
        )
        assert serial.stats.rounds >= dset.stats.rounds >= layered.stats.rounds
        assert layered.stats.rounds < serial.stats.rounds / 2

    def test_parallel_dset_keeps_serial_question_count(self):
        """§6.1: ParallelDSet generates the same questions as Serial."""
        serial = crowdsky(
            generate_synthetic(100, 3, 1, Distribution.INDEPENDENT, seed=2)
        )
        dset = parallel_dset(
            generate_synthetic(100, 3, 1, Distribution.INDEPENDENT, seed=2)
        )
        # Identical up to evaluation-order effects; allow a tiny delta.
        assert abs(dset.stats.questions - serial.stats.questions) <= max(
            3, serial.stats.questions // 20
        )

    def test_parallel_sl_extra_questions_bounded(self):
        """§6.1: ParallelSL asks ~10% more questions by violating (C2)."""
        serial = crowdsky(
            generate_synthetic(150, 3, 1, Distribution.INDEPENDENT, seed=3)
        )
        layered = parallel_sl(
            generate_synthetic(150, 3, 1, Distribution.INDEPENDENT, seed=3)
        )
        assert layered.stats.questions <= serial.stats.questions * 1.3

    def test_rounds_decrease_with_more_known_attributes(self):
        """Figure 9's key observation for the parallel schedulers."""
        low = parallel_sl(
            generate_synthetic(150, 2, 1, Distribution.INDEPENDENT, seed=4)
        )
        high = parallel_sl(
            generate_synthetic(150, 5, 1, Distribution.INDEPENDENT, seed=4)
        )
        assert high.stats.rounds <= low.stats.rounds


class TestPruningConfigs:
    @pytest.mark.parametrize("algorithm", [parallel_dset, parallel_sl])
    @pytest.mark.parametrize("level", list(PruningLevel))
    def test_all_levels_correct(self, algorithm, level):
        relation = generate_synthetic(
            50, 3, 1, Distribution.INDEPENDENT, seed=6
        )
        result = algorithm(relation, config=CrowdSkyConfig(pruning=level))
        assert result.skyline == ground_truth_skyline(relation)


class TestRoundRobinRefused:
    """Round robin is for the serial schedulers only: a parallel round
    asks every attribute of its pairs at once, so both parallel
    schedulers refuse the option before they journal or ask anything."""

    @pytest.mark.parametrize("algorithm", [parallel_dset, parallel_sl])
    def test_raises_before_header_or_question(self, algorithm, tmp_path):
        relation = generate_synthetic(
            30, 2, 2, Distribution.INDEPENDENT, seed=5
        )
        journal = tmp_path / "journal"
        crowd = SimulatedCrowd(relation, journal=journal)
        with pytest.raises(CrowdSkyError, match="ac_round_robin"):
            algorithm(
                relation, crowd, config=CrowdSkyConfig(ac_round_robin=True)
            )
        assert crowd.stats.questions == 0
        assert recover_journal(journal).header is None
