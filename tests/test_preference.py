"""Tests for the preference graph ``T`` and the preference system.

Every test in this module runs once per closure graph (see the autouse
``graph_class`` fixture): the behavioural contract is the same for both, so
the whole suite doubles as a second differential check on top of
``test_preference_differential.py``.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.preference import (
    NumpyPreferenceGraph,
    PreferenceSystem,
    ReferencePreferenceGraph,
)
from repro.questions import Preference
from tests.sky_ac_groups import sky_ac_groups

L, R, E = Preference.LEFT, Preference.RIGHT, Preference.EQUAL

pytestmark = pytest.mark.pref


@pytest.fixture(
    autouse=True,
    params=[NumpyPreferenceGraph, ReferencePreferenceGraph],
    ids=lambda graph: graph.backend,
)
def graph_class(request):
    """Run every test in this module on each closure graph class."""
    return request.param


class TestPreferenceGraph:
    def test_unknown_initially(self, graph_class):
        graph = graph_class(4)
        assert graph.relation(0, 1) is None
        assert not graph.knows(0, 1)

    def test_direct_answer(self, graph_class):
        graph = graph_class(4)
        assert graph.add_answer(0, 1, L)
        assert graph.relation(0, 1) is L
        assert graph.relation(1, 0) is R

    def test_right_answer_reverses_edge(self, graph_class):
        graph = graph_class(4)
        graph.add_answer(0, 1, R)
        assert graph.relation(1, 0) is L

    def test_transitivity(self, graph_class):
        graph = graph_class(5)
        graph.add_answer(0, 1, L)
        graph.add_answer(1, 2, L)
        assert graph.relation(0, 2) is L
        assert graph.relation(2, 0) is R

    def test_long_chain_transitivity(self, graph_class):
        graph = graph_class(50)
        for i in range(49):
            graph.add_answer(i, i + 1, L)
        assert graph.relation(0, 49) is L

    def test_self_relation_is_equal(self, graph_class):
        graph = graph_class(3)
        assert graph.relation(1, 1) is E

    def test_ties_merge_classes(self, graph_class):
        graph = graph_class(4)
        graph.add_answer(0, 1, E)
        assert graph.relation(0, 1) is E
        assert graph.class_of(0) == graph.class_of(1)

    def test_ties_inherit_strict_edges(self, graph_class):
        graph = graph_class(4)
        graph.add_answer(0, 2, L)
        graph.add_answer(0, 1, E)
        assert graph.relation(1, 2) is L  # 1 ~ 0 ≺ 2

    def test_tie_merge_preserves_incoming_edges(self, graph_class):
        graph = graph_class(4)
        graph.add_answer(2, 0, L)
        graph.add_answer(0, 1, E)
        assert graph.relation(2, 1) is L

    def test_contradiction_rejected_keep_first(self, graph_class):
        graph = graph_class(4)
        graph.add_answer(0, 1, L)
        graph.add_answer(1, 2, L)
        assert not graph.add_answer(2, 0, L)  # would create a cycle
        assert graph.rejected_answers == 1
        assert graph.relation(0, 2) is L  # original knowledge intact

    def test_consistent_repeat_accepted(self, graph_class):
        graph = graph_class(4)
        graph.add_answer(0, 1, L)
        assert graph.add_answer(0, 1, L)
        assert graph.rejected_answers == 0

    def test_tie_contradicting_strict_rejected(self, graph_class):
        graph = graph_class(4)
        graph.add_answer(0, 1, L)
        assert not graph.add_answer(0, 1, E)

    def test_edges_exposed(self, graph_class):
        graph = graph_class(4)
        graph.add_answer(2, 3, L)
        assert (2, 3) in graph.edges()

    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        st.lists(
            st.tuples(
                st.integers(0, 9), st.integers(0, 9),
                st.sampled_from([L, R, E]),
            ),
            max_size=30,
        )
    )
    def test_never_becomes_cyclic(self, graph_class, answers):
        """Whatever answers arrive, derived relations stay antisymmetric."""
        graph = graph_class(10)
        for u, v, answer in answers:
            if u != v:
                graph.add_answer(u, v, answer)
        for u in range(10):
            for v in range(u + 1, 10):
                rel_uv = graph.relation(u, v)
                rel_vu = graph.relation(v, u)
                if rel_uv is None:
                    assert rel_vu is None
                else:
                    assert rel_vu is rel_uv.flipped()


class TestConsistencyWithTotalOrder:
    @settings(
        max_examples=50,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(st.permutations(list(range(8))), st.data())
    def test_answers_from_total_order_reproduce_it(
        self, graph_class, order, data
    ):
        """Feeding answers consistent with a total order never conflicts,
        and derived relations agree with that order."""
        rank = {t: i for i, t in enumerate(order)}
        graph = graph_class(8)
        pairs = data.draw(
            st.lists(
                st.tuples(st.integers(0, 7), st.integers(0, 7)), max_size=20
            )
        )
        for u, v in pairs:
            if u == v:
                continue
            answer = L if rank[u] < rank[v] else R
            assert graph.add_answer(u, v, answer)
        for u in range(8):
            for v in range(8):
                relation = graph.relation(u, v)
                if u != v and relation is not None:
                    expected = L if rank[u] < rank[v] else R
                    assert relation is expected


class TestPreferenceSystem:
    def test_requires_crowd_attribute(self, graph_class):
        with pytest.raises(ValueError):
            PreferenceSystem(5, 0, graph=graph_class)

    def test_unknown_attributes(self, graph_class):
        system = PreferenceSystem(5, 2, graph=graph_class)
        system.add_answer(0, 1, 0, L)
        assert system.unknown_attributes(0, 1) == [1]
        assert not system.fully_known(0, 1)
        system.add_answer(0, 1, 1, L)
        assert system.fully_known(0, 1)

    def test_weak_and_strict_dominance_single_attribute(self, graph_class):
        system = PreferenceSystem(5, 1, graph=graph_class)
        system.add_answer(0, 1, 0, L)
        assert system.weakly_prefers_all(0, 1)
        assert system.ac_dominates(0, 1)
        assert not system.ac_dominates(1, 0)

    def test_tie_weakly_but_not_strictly_dominates(self, graph_class):
        system = PreferenceSystem(5, 1, graph=graph_class)
        system.add_answer(0, 1, 0, E)
        assert system.weakly_prefers_all(0, 1)
        assert not system.ac_dominates(0, 1)
        assert system.ac_equal(0, 1)

    def test_multi_attribute_dominance_needs_all(self, graph_class):
        system = PreferenceSystem(5, 2, graph=graph_class)
        system.add_answer(0, 1, 0, L)
        assert not system.ac_dominates(0, 1)  # second attribute unknown
        system.add_answer(0, 1, 1, E)
        assert system.ac_dominates(0, 1)  # weak everywhere, strict on C1

    def test_multi_attribute_incomparable(self, graph_class):
        system = PreferenceSystem(5, 2, graph=graph_class)
        system.add_answer(0, 1, 0, L)
        system.add_answer(0, 1, 1, R)
        assert system.fully_known(0, 1)
        assert not system.ac_dominates(0, 1)
        assert not system.ac_dominates(1, 0)

    def test_sky_ac_removes_dominated(self, graph_class):
        system = PreferenceSystem(5, 1, graph=graph_class)
        system.add_answer(0, 1, 0, L)  # 0 ≺ 1
        system.add_answer(1, 2, 0, L)  # 1 ≺ 2 (so 0 ≺ 2)
        assert sky_ac_groups(system, [[0, 1, 2, 3]]) == [[0, 3]]

    def test_sky_ac_dedupes_full_ties(self, graph_class):
        system = PreferenceSystem(5, 1, graph=graph_class)
        system.add_answer(1, 3, 0, E)
        assert sky_ac_groups(system, [[1, 3]]) == [[1]]

    def test_sky_ac_keeps_unknown_members(self, graph_class):
        system = PreferenceSystem(5, 1, graph=graph_class)
        assert sky_ac_groups(system, [[2, 0, 4]]) == [[2, 0, 4]]

    def test_total_rejected_sums_attributes(self, graph_class):
        system = PreferenceSystem(5, 2, graph=graph_class)
        system.add_answer(0, 1, 0, L)
        system.add_answer(0, 1, 0, R)
        assert system.total_rejected() == 1

    def test_pair_relations_see_each_accepted_answer(self, graph_class):
        """A read after each accepted answer sees it, in both
        orientations, and so do reads of pairs it relates by
        transitivity; a rejected answer changes nothing."""
        system = PreferenceSystem(5, 2, graph=graph_class)
        reads = [(0, 1), (1, 0), (0, 2), (2, 0)]

        def read():
            return [system.pair_relations(u, v) for u, v in reads]

        assert read() == [(None, None)] * 4
        system.add_answer(0, 1, 0, L)
        assert read() == [(L, None), (R, None), (None, None), (None, None)]
        system.add_answer(1, 0, 1, E)
        assert read() == [(L, E), (R, E), (None, None), (None, None)]
        system.add_answer(2, 1, 0, R)  # 1 ≺ 2, so 0 ≺ 2 by transitivity
        assert read() == [(L, E), (R, E), (L, None), (R, None)]
        system.add_answer(2, 0, 1, L)
        assert read() == [(L, E), (R, E), (L, R), (R, L)]
        assert not system.add_answer(2, 0, 0, L)  # rejected
        assert read() == [(L, E), (R, E), (L, R), (R, L)]

    def test_resolve_pairs_batches_and_dedupes(self, graph_class):
        system = PreferenceSystem(5, 1, graph=graph_class)
        system.add_answer(0, 1, 0, L)
        resolved = system.resolve_pairs([(0, 1), (1, 0), (0, 1), (2, 3)])
        assert resolved[(0, 1)] == (L,)
        assert resolved[(1, 0)] == (R,)
        assert resolved[(2, 3)] == (None,)


class TestBackendFactory:
    def test_explicit_backend_overrides_env(self, graph_class, monkeypatch):
        """The ``graph`` keyword picks the class, whatever a leftover
        ``REPRO_PREF_BACKEND`` names: the system builds one graph of
        that class per attribute and names it on its spans. Without the
        keyword it builds the numpy graph."""
        other = "reference" if graph_class.backend == "numpy" else "numpy"
        monkeypatch.setenv("REPRO_PREF_BACKEND", other)
        system = PreferenceSystem(4, 2, graph=graph_class)
        assert [type(g) for g in system.graphs] == [graph_class] * 2
        assert system.backend == graph_class.backend
        default = PreferenceSystem(4, 2)
        assert all(
            type(g) is NumpyPreferenceGraph for g in default.graphs
        )
        assert default.backend == "numpy"

    def test_reference_exposes_descendant_sets(self):
        graph = ReferencePreferenceGraph(5)
        graph.add_answer(0, 1, L)
        graph.add_answer(1, 2, L)
        assert graph.descendants(0) == {1, 2}
