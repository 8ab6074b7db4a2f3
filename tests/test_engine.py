"""Direct tests for the shared engine helpers."""

import pytest

from repro.core.engine import (
    apply_multiway_answers,
    build_context,
    preprocess_duplicates,
    seed_visible_preferences,
)
from repro.core.preference import PreferenceSystem
from repro.crowd.platform import SimulatedCrowd
from repro.questions import MultiwayQuestion, Preference
from repro.data.synthetic import Distribution, generate_synthetic
from repro.exceptions import CrowdSkyError
from repro.skyline.dominating import dominating_sets
from tests.conftest import make_relation

L, R, E = Preference.LEFT, Preference.RIGHT, Preference.EQUAL


class TestBuildContext:
    def test_rejects_machine_only_relation(self):
        relation = make_relation([(1, 2)])
        with pytest.raises(CrowdSkyError):
            build_context(relation)

    def test_rejects_mismatched_crowd(self, toy, toy_fig3):
        with pytest.raises(CrowdSkyError):
            build_context(toy, crowd=SimulatedCrowd(toy_fig3))

    def test_eval_order_excludes_removed(self):
        relation = make_relation(
            [(1, 1), (1, 1), (2, 2)],
            [(2,), (1,), (3,)],
        )
        context = build_context(relation)
        # Tuple 0 loses its AK-twin duel and is preprocessed away.
        assert context.removed == {0}
        assert 0 not in context.eval_order()

    def test_eval_order_memo_invalidates_on_removed(self):
        relation = make_relation(
            [(1, 1), (2, 2), (3, 3)],
            [(1,), (2,), (3,)],
        )
        context = build_context(relation)
        first = context.eval_order()
        assert context.eval_order() == first
        # The memo hands out copies: mutating one must not poison it.
        context.eval_order().append(99)
        assert context.eval_order() == first
        context.removed.add(first[0])
        assert first[0] not in context.eval_order()

    def test_ds_in_eval_order_sorted_by_ds_size(self, toy):
        context = build_context(toy)
        dominating = dominating_sets(toy.known_matrix())
        j = toy.index_of("j")
        members = context.ds_in_eval_order(j)
        assert set(members) == dominating[j]
        sizes = [context.ds_sizes[s] for s in members]
        assert sizes == [len(dominating[s]) for s in members]
        assert sizes == sorted(sizes)


class TestPreprocessDuplicates:
    def test_no_duplicates_no_questions(self, toy):
        crowd = SimulatedCrowd(toy)
        prefs = PreferenceSystem(len(toy), 1)
        removed = preprocess_duplicates(toy, crowd, prefs)
        assert removed == set()
        assert crowd.stats.questions == 0

    def test_three_way_group(self):
        relation = make_relation(
            [(1, 1)] * 3,
            [(3,), (1,), (2,)],
        )
        crowd = SimulatedCrowd(relation)
        prefs = PreferenceSystem(3, 1)
        removed = preprocess_duplicates(relation, crowd, prefs)
        assert removed == {0, 2}

    def test_tied_duplicates_survive(self):
        relation = make_relation(
            [(1, 1), (1, 1)],
            [(7,), (7,)],
        )
        crowd = SimulatedCrowd(relation)
        prefs = PreferenceSystem(2, 1)
        assert preprocess_duplicates(relation, crowd, prefs) == set()

    def test_multi_attribute_duplicates(self):
        relation = make_relation(
            [(1, 1), (1, 1)],
            [(1, 2), (2, 1)],  # incomparable in AC: both survive
        )
        crowd = SimulatedCrowd(relation)
        prefs = PreferenceSystem(2, 2)
        assert preprocess_duplicates(relation, crowd, prefs) == set()

    def test_interleaved_groups_keep_first_occurrence_order(self):
        # Two AK-duplicate groups interleaved in tuple order; grouping
        # via np.unique must still visit them in first-occurrence order
        # with ascending members (question order feeds the seeded RNG).
        relation = make_relation(
            [(2, 2), (1, 1), (2, 2), (1, 1)],
            [(2,), (9,), (1,), (3,)],
        )
        crowd = SimulatedCrowd(relation)
        prefs = PreferenceSystem(4, 1)
        removed = preprocess_duplicates(relation, crowd, prefs)
        assert removed == {0, 1}
        assert crowd.stats.questions == 2


class TestSeedVisiblePreferences:
    def test_chain_edges_give_full_order(self):
        relation = generate_synthetic(
            20, 2, 1, Distribution.INDEPENDENT, seed=1
        )
        prefs = PreferenceSystem(20, 1)
        edges = seed_visible_preferences(prefs, relation, range(10))
        assert edges == 9  # k - 1 chain edges
        latent = relation.latent_matrix()[:, 0]
        for u in range(10):
            for v in range(10):
                if u != v:
                    expected = L if latent[u] < latent[v] else R
                    assert prefs.relation(u, v, 0) is expected

    def test_fewer_than_two_visible_is_noop(self, toy):
        prefs = PreferenceSystem(len(toy), 1)
        assert seed_visible_preferences(prefs, toy, []) == 0
        assert seed_visible_preferences(prefs, toy, [3]) == 0

    def test_ties_seed_equal(self):
        relation = make_relation(
            [(1, 2), (2, 1), (3, 3)],
            [(5,), (5,), (9,)],
        )
        prefs = PreferenceSystem(3, 1)
        seed_visible_preferences(prefs, relation, [0, 1, 2])
        assert prefs.relation(0, 1, 0) is E
        assert prefs.relation(0, 2, 0) is L


class TestApplyMultiwayAnswers:
    def test_winner_edges(self):
        prefs = PreferenceSystem(5, 1)
        question = MultiwayQuestion((0, 1, 2))
        apply_multiway_answers(prefs, {question: 1})
        assert prefs.relation(1, 0, 0) is L
        assert prefs.relation(1, 2, 0) is L
        assert prefs.relation(0, 2, 0) is None  # losers stay unordered
