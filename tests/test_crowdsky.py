"""Tests for serial CrowdSky, pinned against the paper's worked examples."""

import pytest

from repro.core.crowdsky import CrowdSkyConfig, PruningLevel, crowdsky
from repro.crowd.platform import SimulatedCrowd
from repro.data.synthetic import Distribution, generate_synthetic
from repro.data.toy import (
    FIGURE1_SKYLINE_LABELS,
    figure1_dataset,
    figure3_dataset,
)
from repro.exceptions import CrowdSkyError
from repro.metrics.accuracy import ground_truth_skyline
from tests.conftest import make_relation


def labelled_pairs(result, relation):
    return [
        tuple(sorted((relation.label(a), relation.label(b))))
        for a, b in result.asked_pairs()
    ]


class TestGoldenFigure1:
    """Example 6 / Figure 4(a): the full 12-question serial trace."""

    def test_skyline_matches_paper(self, toy):
        result = crowdsky(toy)
        assert result.skyline_labels(toy) == set(FIGURE1_SKYLINE_LABELS)

    def test_exactly_twelve_questions(self, toy):
        result = crowdsky(toy)
        assert result.stats.questions == 12
        assert result.stats.rounds == 12  # serial: one question per round

    def test_question_trace_matches_figure4a(self, toy):
        result = crowdsky(toy)
        expected = [
            ("a", "b"),          # Q(a)
            ("e", "g"),          # Q(g)
            ("b", "e"),          # P(d) probe
            ("d", "e"),          # Q(d)
            ("i", "l"),          # P(k) probe
            ("i", "k"),          # Q(k)
            ("c", "e"),          # Q(c)
            ("e", "f"),          # Q(f)
            ("e", "i"),          # P(h) probe
            ("e", "h"),          # Q(h)
            ("f", "h"),          # P(j) probe
            ("f", "j"),          # Q(j)
        ]
        assert labelled_pairs(result, toy) == expected

    def test_perfect_crowd_reproduces_ground_truth(self, toy):
        result = crowdsky(toy)
        assert result.skyline == ground_truth_skyline(toy)

    def test_no_rejected_answers_with_perfect_crowd(self, toy):
        result = crowdsky(toy)
        assert result.rejected_answers == 0


class TestGoldenFigure3:
    """§3.4's probing example: 9 questions on the anti-correlated toy."""

    def test_nine_questions(self, toy_fig3):
        result = crowdsky(toy_fig3)
        assert result.stats.questions == 9

    def test_skyline(self, toy_fig3):
        result = crowdsky(toy_fig3)
        assert result.skyline_labels(toy_fig3) == {"b", "e", "i", "j"}

    def test_e_answers_all_single_questions(self, toy_fig3):
        """After probing {b, e, i, j}, each remaining tuple is resolved
        with one question against e (§3.4's 3 + 6 accounting)."""
        result = crowdsky(toy_fig3)
        pairs = labelled_pairs(result, toy_fig3)
        probing, singles = pairs[:3], pairs[3:]
        assert all("e" in pair for pair in singles)
        assert len(singles) == 6


class TestPruningLadder:
    def test_dset_generates_26_questions_statically(self, toy):
        """Example 3: Σ|DS(t)| = 26 — the static size of the DSet
        question sets (Table 1)."""
        from repro.skyline.dominating import dominating_sets

        ds = dominating_sets(toy.known_matrix())
        assert sum(len(members) for members in ds) == 26

    def test_dset_asks_fewer_via_early_termination(self, toy):
        """Asking stops once a tuple is complete (Definition 4), so the
        live DSet run asks fewer than the static 26 — this is what makes
        the paper's Figure 6 DSet curve undercut Baseline on IND."""
        result = crowdsky(
            toy, config=CrowdSkyConfig(pruning=PruningLevel.DSET)
        )
        assert result.stats.questions == 16
        assert result.stats.questions < 26

    @pytest.mark.parametrize("level", list(PruningLevel))
    def test_all_levels_correct_on_toy(self, level):
        toy = figure1_dataset()
        result = crowdsky(toy, config=CrowdSkyConfig(pruning=level))
        assert result.skyline_labels(toy) == set(FIGURE1_SKYLINE_LABELS)

    @pytest.mark.parametrize("level", list(PruningLevel))
    def test_all_levels_correct_on_random_data(self, level):
        relation = generate_synthetic(
            60, 3, 1, Distribution.INDEPENDENT, seed=13
        )
        result = crowdsky(relation, config=CrowdSkyConfig(pruning=level))
        assert result.skyline == ground_truth_skyline(relation)

    def test_pruning_reduces_questions_on_average(self):
        totals = {level: 0 for level in PruningLevel}
        for seed in range(5):
            for level in PruningLevel:
                relation = generate_synthetic(
                    100, 3, 1, Distribution.INDEPENDENT, seed=seed
                )
                result = crowdsky(
                    relation, config=CrowdSkyConfig(pruning=level)
                )
                totals[level] += result.stats.questions
        assert totals[PruningLevel.P1] < totals[PruningLevel.DSET]
        assert totals[PruningLevel.P1_P2] <= totals[PruningLevel.P1]


class TestCorrectnessProperties:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_ground_truth_independent(self, seed):
        relation = generate_synthetic(
            70, 3, 1, Distribution.INDEPENDENT, seed=seed
        )
        assert crowdsky(relation).skyline == ground_truth_skyline(relation)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_ground_truth_anti_correlated(self, seed):
        relation = generate_synthetic(
            50, 2, 1, Distribution.ANTI_CORRELATED, seed=seed
        )
        assert crowdsky(relation).skyline == ground_truth_skyline(relation)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_ground_truth_multi_crowd(self, seed):
        relation = generate_synthetic(
            40, 2, 2, Distribution.INDEPENDENT, seed=seed
        )
        assert crowdsky(relation).skyline == ground_truth_skyline(relation)

    def test_three_crowd_attributes(self):
        relation = generate_synthetic(
            30, 2, 3, Distribution.INDEPENDENT, seed=3
        )
        assert crowdsky(relation).skyline == ground_truth_skyline(relation)

    def test_fewer_questions_than_all_pairs(self, small_independent):
        n = len(small_independent)
        result = crowdsky(small_independent)
        assert result.stats.questions < n * (n - 1) // 2

    def test_ak_skyline_always_included(self, small_independent):
        from repro.metrics.accuracy import ak_skyline

        result = crowdsky(small_independent)
        assert ak_skyline(small_independent) <= result.skyline


class TestEdgeCases:
    def test_requires_crowd_attribute(self):
        relation = make_relation([(1, 2), (2, 1)])
        with pytest.raises(CrowdSkyError):
            crowdsky(relation)

    def test_crowd_for_other_relation_rejected(self, toy, toy_fig3):
        crowd = SimulatedCrowd(toy_fig3)
        with pytest.raises(CrowdSkyError):
            crowdsky(toy, crowd=crowd)

    def test_single_tuple(self):
        relation = make_relation([(1, 1)], [(1,)])
        result = crowdsky(relation)
        assert result.skyline == {0}
        assert result.stats.questions == 0

    def test_duplicate_ak_values_resolved_by_preprocessing(self):
        """Algorithm 1 lines 1-3: identical AK values resolved in AC."""
        relation = make_relation(
            [(1, 1), (1, 1), (2, 2)],
            [(2,), (1,), (3,)],
        )
        result = crowdsky(relation)
        # Tuple 1 beats its AK-twin tuple 0 in AC; tuple 2 is dominated.
        assert result.skyline == {1}

    def test_duplicate_ak_values_tied_in_ac_both_survive(self):
        relation = make_relation(
            [(1, 1), (1, 1)],
            [(5,), (5,)],
        )
        result = crowdsky(relation)
        assert result.skyline == {0, 1}

    def test_all_tuples_identical_known_values(self):
        relation = make_relation(
            [(1, 1)] * 4,
            [(1,), (2,), (3,), (4,)],
        )
        result = crowdsky(relation)
        assert result.skyline == {0}

    def test_chain_in_ak_needs_no_equal_questions(self):
        """A total AK order: every tuple dominated by the previous one."""
        relation = make_relation(
            [(i, i) for i in range(5)],
            [(5 - i,) for i in range(5)],
        )
        result = crowdsky(relation)
        assert result.skyline == ground_truth_skyline(relation)


class TestRoundRobinExtension:
    def test_correct_and_no_more_questions(self, multi_crowd):
        baseline = crowdsky(multi_crowd)
        relation = generate_synthetic(
            50, 2, 2, Distribution.INDEPENDENT, seed=11
        )
        round_robin = crowdsky(
            relation, config=CrowdSkyConfig(ac_round_robin=True)
        )
        assert round_robin.skyline == baseline.skyline
        assert round_robin.stats.questions <= baseline.stats.questions

    def test_single_attribute_unaffected(self, toy):
        result = crowdsky(toy, config=CrowdSkyConfig(ac_round_robin=True))
        assert result.stats.questions == 12


class TestCorrelatedDistribution:
    """COR data: tiny skylines, heavy domination chains."""

    def test_matches_ground_truth(self):
        relation = generate_synthetic(
            80, 3, 1, Distribution.CORRELATED, seed=21
        )
        assert crowdsky(relation).skyline == ground_truth_skyline(relation)

    def test_needs_fewer_questions_than_independent(self):
        correlated = crowdsky(
            generate_synthetic(150, 3, 1, Distribution.CORRELATED, seed=22)
        )
        independent = crowdsky(
            generate_synthetic(150, 3, 1, Distribution.INDEPENDENT, seed=22)
        )
        assert correlated.stats.questions < independent.stats.questions


def _entry_points():
    from repro.core.crowdsky import crowdsky_budgeted
    from repro.core.parallel import parallel_dset, parallel_sl

    return {
        "crowdsky": crowdsky,
        "crowdsky_budgeted": lambda relation, crowd=None, config=None: (
            crowdsky_budgeted(relation, 10**6, crowd, config=config)
        ),
        "parallel_dset": parallel_dset,
        "parallel_sl": parallel_sl,
    }


class TestMultiwayNeedsP3:
    """m-ary questions are a probing method (P3). Without P3 a
    ``multiway`` above 2 used to reduce ``DS(t)`` to ``SKY_AC`` (P2)
    before asking, at the DSet and P1 levels too: on this relation
    DSet asked 713 questions with ``multiway=2`` and 101–187 with
    ``multiway=3``."""

    @pytest.mark.parametrize(
        "level",
        [PruningLevel.DSET, PruningLevel.P1, PruningLevel.P1_P2],
        ids=lambda level: level.value,
    )
    @pytest.mark.parametrize(
        "entry",
        ["crowdsky", "crowdsky_budgeted", "parallel_dset", "parallel_sl"],
    )
    def test_multiway_3_asks_what_multiway_2_asks(self, entry, level):
        relation = generate_synthetic(
            80, 2, 1, Distribution.ANTI_CORRELATED, seed=0
        )
        run = _entry_points()[entry]
        logs = [
            run(
                relation,
                config=CrowdSkyConfig(pruning=level, multiway=multiway),
            ).question_log
            for multiway in (2, 3)
        ]
        assert logs[0] == logs[1]


class TestConfigValidation:
    """An invalid config is refused when it is built, before any entry
    point writes a journal header or asks a question; it used to be
    refused only by the code that first read the field."""

    @pytest.mark.parametrize(
        "bad",
        [
            {"multiway": 1},
            {"multiway": 0},
        ],
        ids=lambda bad: "-".join(f"{k}={v}" for k, v in bad.items()),
    )
    @pytest.mark.parametrize(
        "entry",
        ["crowdsky", "crowdsky_budgeted", "parallel_dset", "parallel_sl"],
    )
    def test_refused_before_header(self, entry, bad, tmp_path):
        from repro.crowd.journal import recover_journal

        # Preprocessing asks about the duplicate pair (1, 1) first.
        relation = make_relation(
            [(1, 1), (1, 1), (0, 2), (2, 0), (2, 2)],
            [(0,), (1,), (2,), (3,), (4,)],
        )
        journal = tmp_path / "journal"
        crowd = SimulatedCrowd(relation, journal=journal)
        with pytest.raises(CrowdSkyError):
            _entry_points()[entry](
                relation, crowd, config=CrowdSkyConfig(**bad)
            )
        assert crowd.stats.questions == 0
        assert recover_journal(journal).header is None
