"""Targeted tests for remaining conditional branches across modules."""

import numpy as np
import pytest

from repro.core.crowdsky import CrowdSkyConfig, crowdsky
from repro.crowd.hits import HitLedger
from repro.crowd.platform import SimulatedCrowd
from repro.questions import MultiwayQuestion, PairwiseQuestion, UnaryQuestion
from repro.data.synthetic import Distribution, generate_synthetic
from repro.data.toy import figure1_dataset
from repro.experiments.plots import ascii_chart, chart_for_experiment
from repro.experiments.registry import run_experiment
from repro.incomplete import IncompleteRelation, lofi_skyline


class TestPlatformBranches:
    def test_ask_pairwise_serial_cache_path(self, toy):
        crowd = SimulatedCrowd(toy)
        question = PairwiseQuestion(0, 1)
        first = crowd.ask_pairwise(question)
        second = crowd.ask_pairwise(question)
        assert first is second
        assert crowd.stats.rounds == 1

    def test_multiway_all_cached_round_free(self, toy):
        crowd = SimulatedCrowd(toy)
        question = MultiwayQuestion((0, 1, 2))
        crowd.ask_multiway_round([question])
        before = crowd.stats.rounds
        crowd.ask_multiway_round([question, MultiwayQuestion((2, 1, 0))])
        assert crowd.stats.rounds == before  # same symmetric key: cached

    def test_unary_mixed_cached_and_fresh(self, toy):
        crowd = SimulatedCrowd(toy)
        crowd.ask_unary_round([UnaryQuestion(0, 0)])
        answers = crowd.ask_unary_round(
            [UnaryQuestion(0, 0), UnaryQuestion(1, 0)]
        )
        assert len(answers) == 2
        assert crowd.stats.questions == 2

    def test_ledger_records_multiway_and_unary_rounds(self, toy):
        ledger = HitLedger(seed=0)
        crowd = SimulatedCrowd(toy, ledger=ledger)
        crowd.ask_multiway_round([MultiwayQuestion((0, 1, 2))])
        crowd.ask_unary_round([UnaryQuestion(3, 0)])
        assert len(ledger.rounds()) == 2


class TestPlotsBranches:
    def test_chart_explicit_linear_override(self):
        result = run_experiment("fig8", scale="smoke")
        chart = chart_for_experiment(result, log_y=False)
        assert "[log y]" not in chart

    def test_chart_single_point(self):
        chart = ascii_chart([{"n": 3, "a": 7}], "n", ["a"])
        assert "o" in chart

    def test_chart_non_numeric_x_uses_index(self):
        rows = [{"q": "Q1", "v": 1.0}, {"q": "Q2", "v": 2.0}]
        chart = ascii_chart(rows, "q", ["v"])
        assert "q: 0 .. 1" in chart

    def test_chart_skips_non_numeric_series_values(self):
        rows = [{"n": 1, "a": "text"}, {"n": 2, "a": 5}]
        chart = ascii_chart(rows, "n", ["a"])
        assert "o" in chart


class TestLofiBranches:
    def test_high_threshold_shrinks_skyline(self):
        truth = np.random.default_rng(0).random((40, 3))
        loose = lofi_skyline(
            IncompleteRelation.mask_random_cells(truth, 0.4, seed=1),
            budget=0, threshold=0.3, seed=2,
        )
        strict = lofi_skyline(
            IncompleteRelation.mask_random_cells(truth, 0.4, seed=1),
            budget=0, threshold=0.9, seed=2,
        )
        assert strict.skyline <= loose.skyline

    def test_budget_larger_than_missing_stops_early(self):
        truth = np.random.default_rng(1).random((10, 2))
        relation = IncompleteRelation.mask_random_cells(truth, 0.2, seed=3)
        missing = relation.num_missing
        result = lofi_skyline(relation, budget=10_000, seed=4)
        assert result.questions_asked == missing


class TestConfigBranches:
    def test_multiway_validation(self):
        from repro.core.tasks import TupleTask
        from repro.core.preference import PreferenceSystem
        from repro.skyline.dominance import dominance_matrix
        from repro.skyline.dominating import FrequencyOracle

        toy = figure1_dataset()
        prefs = PreferenceSystem(len(toy), 1)
        frequency = FrequencyOracle(dominance_matrix(toy.known_matrix()))
        with pytest.raises(ValueError):
            TupleTask(0, [1], prefs, frequency, multiway=1)

    def test_round_robin_with_three_attributes(self):
        relation = generate_synthetic(
            40, 2, 3, Distribution.INDEPENDENT, seed=6
        )
        from repro.metrics.accuracy import ground_truth_skyline

        result = crowdsky(
            relation, config=CrowdSkyConfig(ac_round_robin=True)
        )
        assert result.skyline == ground_truth_skyline(relation)
