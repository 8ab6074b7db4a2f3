"""Tests for question/answer formats."""

import pytest

from repro.questions import PairwiseQuestion, Preference, UnaryQuestion


class TestPreference:
    def test_flip_left_right(self):
        assert Preference.LEFT.flipped() is Preference.RIGHT
        assert Preference.RIGHT.flipped() is Preference.LEFT

    def test_flip_equal_stable(self):
        assert Preference.EQUAL.flipped() is Preference.EQUAL

    def test_opposite_is_flip(self):
        for preference in Preference:
            assert preference.opposite() is preference.flipped()

    def test_double_flip_identity(self):
        for preference in Preference:
            assert preference.flipped().flipped() is preference


class TestPairwiseQuestion:
    def test_requires_distinct_tuples(self):
        with pytest.raises(ValueError):
            PairwiseQuestion(3, 3)

    def test_key_symmetric(self):
        assert PairwiseQuestion(2, 7, 1).key() == PairwiseQuestion(7, 2, 1).key()

    def test_key_distinguishes_attributes(self):
        assert PairwiseQuestion(2, 7, 0).key() != PairwiseQuestion(2, 7, 1).key()

    def test_canonical_orders_left_right(self):
        question = PairwiseQuestion(7, 2, 1).canonical()
        assert (question.left, question.right) == (2, 7)

    def test_canonical_noop_when_ordered(self):
        question = PairwiseQuestion(2, 7)
        assert question.canonical() is question

    def test_repr_mentions_pair(self):
        assert "(2, 7)" in repr(PairwiseQuestion(2, 7))

    def test_hashable_for_caching(self):
        assert len({PairwiseQuestion(1, 2), PairwiseQuestion(1, 2)}) == 1


class TestUnaryQuestion:
    def test_fields(self):
        question = UnaryQuestion(4, 1)
        assert question.tuple_index == 4
        assert question.attribute == 1

    def test_repr(self):
        assert "u(4)" in repr(UnaryQuestion(4))
