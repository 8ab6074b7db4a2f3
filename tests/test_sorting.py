"""Tests for the sorting substrate (tournament internals, comparators)."""

import numpy as np
import pytest

from repro.crowd.platform import SimulatedCrowd
from repro.questions import Preference
from repro.data.toy import figure1_dataset
from repro.sorting.comparators import (
    CountingComparator,
    crowd_comparator,
    truth_comparator,
)
from repro.sorting.tournament import _TournamentTree, tournament_sort


class TestTournamentTree:
    def test_winner_is_minimum(self):
        latent = np.asarray([[3.0], [1.0], [2.0], [5.0]])
        tree = _TournamentTree(list(range(4)), truth_comparator(latent))
        assert tree.winner == 1

    def test_remove_winner_promotes_runner_up(self):
        latent = np.asarray([[3.0], [1.0], [2.0], [5.0]])
        tree = _TournamentTree(list(range(4)), truth_comparator(latent))
        assert tree.remove_winner() == 1
        assert tree.winner == 2

    def test_empty_tree_raises(self):
        latent = np.asarray([[1.0]])
        tree = _TournamentTree([0], truth_comparator(latent))
        tree.remove_winner()
        with pytest.raises(IndexError):
            tree.remove_winner()


class TestCrowdComparator:
    def test_reads_from_platform(self):
        relation = figure1_dataset()
        crowd = SimulatedCrowd(relation)
        compare = crowd_comparator(crowd, 0)
        f, j = relation.index_of("f"), relation.index_of("j")
        assert compare(f, j) is Preference.LEFT
        assert crowd.stats.questions == 1
        # The symmetric comparison is served from the platform cache.
        assert compare(j, f) is Preference.RIGHT
        assert crowd.stats.questions == 1

    def test_full_sort_against_latent_order(self):
        relation = figure1_dataset()
        crowd = SimulatedCrowd(relation)
        order = tournament_sort(
            range(len(relation)), crowd_comparator(crowd, 0)
        )
        latent = relation.latent_matrix()[:, 0]
        values = [latent[i] for i in order]
        assert values == sorted(values)


class TestCountingComparator:
    def test_counts_calls_and_distinct_pairs(self):
        latent = np.asarray([[2.0], [1.0], [3.0]])
        counter = CountingComparator(truth_comparator(latent))
        counter(0, 1)
        counter(1, 0)  # same unordered pair
        counter(0, 2)
        assert counter.calls == 3
        assert counter.distinct_pairs == 2
