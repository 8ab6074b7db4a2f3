"""Tests for majority voting and the two assignment policies (§5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.questions import PairwiseQuestion, Preference
from repro.crowd.voting import (
    DynamicVoting,
    StaticVoting,
    majority_vote,
)
from repro.exceptions import CrowdPlatformError
from repro.skyline.dominance import dominance_matrix
from repro.skyline.dominating import FrequencyOracle

L, R, E = Preference.LEFT, Preference.RIGHT, Preference.EQUAL


class TestMajorityVote:
    @pytest.mark.parametrize(
        "votes, expected",
        [
            ([L, L, L], L),
            ([R, R, L], R),
            ([L, L, R, R, R], R),
            ([E, E, L], E),
            ([L, R, E], E),       # strict tie resolves to EQUAL
            ([L, L, R, R], E),    # even split resolves to EQUAL
            ([L], L),
            ([E], E),
            ([L, L, E, E, E], E),
            ([L, L, L, E, E], L),
        ],
    )
    def test_aggregation(self, votes, expected):
        assert majority_vote(votes) is expected

    def test_empty_votes_rejected(self):
        with pytest.raises(CrowdPlatformError):
            majority_vote([])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([L, R, E]), min_size=1, max_size=9))
    def test_symmetry(self, votes):
        """Flipping every vote flips the aggregate."""
        flipped = [vote.flipped() for vote in votes]
        assert majority_vote(flipped) is majority_vote(votes).flipped()

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from([L, R, E]), min_size=1, max_size=9))
    def test_winner_has_plurality(self, votes):
        winner = majority_vote(votes)
        counts = {p: votes.count(p) for p in Preference}
        if winner is not E:
            assert counts[winner] > counts[winner.flipped()]


class TestStaticVoting:
    def test_constant_assignment(self):
        policy = StaticVoting(5)
        assert policy.workers_for(PairwiseQuestion(0, 1)) == 5
        assert policy.workers_for(PairwiseQuestion(4, 9)) == 5

    def test_omega_validated(self):
        with pytest.raises(CrowdPlatformError):
            StaticVoting(0)

    def test_repr(self):
        assert "5" in repr(StaticVoting(5))


class TestDynamicVoting:
    @pytest.fixture
    def frequency(self, toy):
        return FrequencyOracle(dominance_matrix(toy.known_matrix()))

    def test_thresholds_validated(self, frequency):
        with pytest.raises(CrowdPlatformError):
            DynamicVoting(frequency, alpha=5.0, beta=1.0)
        with pytest.raises(CrowdPlatformError):
            DynamicVoting(frequency, omega=1)

    def test_three_bands(self, toy, frequency):
        policy = DynamicVoting(frequency, omega=5, alpha=2.0, beta=5.0)
        b, e = toy.index_of("b"), toy.index_of("e")
        i, l = toy.index_of("i"), toy.index_of("l")
        # freq(b, e) = 5 -> most important band.
        assert policy.workers_for(PairwiseQuestion(b, e)) == 7
        # freq(i, l) = |{k}| = 1 -> least important band.
        assert policy.workers_for(PairwiseQuestion(i, l)) == 3

    def test_middle_band_gets_omega(self, toy, frequency):
        policy = DynamicVoting(frequency, omega=5, alpha=1.0, beta=5.0)
        i, l = toy.index_of("i"), toy.index_of("l")
        assert policy.workers_for(PairwiseQuestion(i, l)) == 5

    def test_never_below_one_worker(self, toy, frequency):
        policy = DynamicVoting(frequency, omega=3, alpha=100.0, beta=200.0)
        assert policy.workers_for(PairwiseQuestion(0, 1)) >= 1

    def test_from_frequency_thresholds_ordered(self, frequency):
        policy = DynamicVoting.from_frequency(frequency)
        assert policy.alpha <= policy.beta

    def test_repr(self, frequency):
        assert "DynamicVoting" in repr(DynamicVoting.from_frequency(frequency))

    def test_expected_workers_close_to_static(self, small_independent):
        """§6.1 fairness: dynamic assigns about as many workers overall."""
        frequency = FrequencyOracle(
            dominance_matrix(small_independent.known_matrix())
        )
        policy = DynamicVoting.from_frequency(frequency, omega=5)
        n = len(small_independent)
        assignments = [
            policy.workers_for(PairwiseQuestion(u, v))
            for u in range(n)
            for v in range(u + 1, n)
        ]
        mean = sum(assignments) / len(assignments)
        assert 3.0 <= mean <= 7.0
