"""Differential suite: the two closure graphs, pinned pairwise.

The numpy graph (:class:`repro.core.preference.NumpyPreferenceGraph`)
is an optimization of the reference implementation, not a
reinterpretation — every observable it exposes must match the reference
bit for bit. These properties replay random answer histories (edges,
ties, contradictions, where the first answer wins) into both graphs and
compare the complete derivable state and each answer's acceptance, pin
the round-shaped closure transactions (:meth:`PreferenceSystem.
apply_verdicts`) and the bulk kernel against the scalar queries, then
pin full CrowdSky runs — all four schedulers, run on each graph through
:func:`tests.closure_graphs.closure_graph` — to identical question
order, round tables, skylines and journal bytes.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import crowdsky, parallel_dset, parallel_sl
from repro.core.crowdsky import crowdsky_budgeted
from repro.core.engine import build_context
from repro.core.preference import (
    NumpyPreferenceGraph,
    PreferenceSystem,
    ReferencePreferenceGraph,
)
from repro.crowd.journal import segment_paths
from repro.crowd.platform import SimulatedCrowd
from repro.questions import Preference
from repro.crowd.workers import WorkerPool
from repro.data.synthetic import Distribution, generate_synthetic
from tests.closure_graphs import GRAPHS, closure_graph
from tests.strategies import (
    DIFFERENTIAL_SETTINGS,
    ROBUSTNESS_SETTINGS,
    answer_sequences,
    consistent_answer_sequences,
    pair_query_batches,
    small_relations,
    verdict_rounds,
)

pytestmark = pytest.mark.pref

#: The four schedulers of the end-to-end pin — name → runner.
SCHEDULERS = {
    "crowdsky": lambda relation, crowd, config: crowdsky(
        relation, crowd, config=config
    ),
    "crowdsky_budgeted": lambda relation, crowd, config: crowdsky_budgeted(
        relation, 40, crowd, config=config
    ),
    "parallel_dset": lambda relation, crowd, config: parallel_dset(
        relation, crowd, config=config
    ),
    "parallel_sl": lambda relation, crowd, config: parallel_sl(
        relation, crowd, config=config
    ),
}


def graph_state(graph, n):
    """Every observable of a preference graph, as comparable data."""
    return {
        "relations": [
            [graph.relation(u, v) for v in range(n)] for u in range(n)
        ],
        "classes": [graph.class_of(u) for u in range(n)],
        "edges": sorted(graph.edges()),
        "rejected": graph.rejected_answers,
        "version": graph.version,
    }


def replay(graph, events):
    """Replay an answer history; returns the acceptance bitmap."""
    return [graph.add_answer(u, v, answer) for u, v, _, answer in events]


def round_table(result):
    """The per-round question table: round → ordered (question, answer)."""
    table = {}
    for round_no, question, answer in result.question_log:
        table.setdefault(round_no, []).append((question.key(), answer))
    return table


def result_digest(result):
    """Every cross-graph observable of one scheduler run."""
    return {
        "skyline": result.skyline,
        "questions": result.stats.questions,
        "rounds": result.stats.rounds,
        "worker_assignments": result.stats.worker_assignments,
        "round_sizes": result.stats.round_sizes,
        "cached_hits": result.stats.cached_hits,
        "rejected": result.rejected_answers,
        "question_log": result.question_log,
        "round_table": round_table(result),
    }


def spec_sky_ac(system, members):
    """``SKY_AC`` of one group by the pair loop: drop each member that
    another member strictly AC-dominates, or that ties a lower-indexed
    member on every attribute."""
    survivors = []
    for v in members:
        dominated = False
        for u in members:
            if u == v:
                continue
            rels = system.pair_relations(u, v)
            weak = all(
                rel is not None and rel is not Preference.RIGHT
                for rel in rels
            )
            if weak and (Preference.LEFT in rels or u < v):
                dominated = True
                break
        if not dominated:
            survivors.append(v)
    return survivors


def spec_open_pairs(system, members):
    """Positions ``(i, j)``, ``i < j``, of the member pairs a probe walk
    can act on, by the pair loop: every pair but those known on every
    attribute with ``LEFT`` on one and ``RIGHT`` on another."""
    opened = []
    for i in range(len(members)):
        for j in range(i + 1, len(members)):
            rels = system.pair_relations(members[i], members[j])
            settled = (
                None not in rels
                and Preference.LEFT in rels
                and Preference.RIGHT in rels
            )
            if not settled:
                opened.append((i, j))
    return opened


def assert_graphs_agree(by_graph):
    """Compare each optimized graph's value against the reference."""
    reference = by_graph["reference"]
    for name, value in by_graph.items():
        assert value == reference, f"{name} diverges from reference"


def on_each_graph(run):
    """``run()``'s value with every run inside it built on each closure
    graph, by graph name."""
    values = {}
    for name in GRAPHS:
        with closure_graph(name):
            values[name] = run()
    return values


class TestGraphDifferential:
    @settings(
        parent=DIFFERENTIAL_SETTINGS,
    )
    @given(answer_sequences(max_attributes=1))
    def test_keep_first_state_identical(self, sequence):
        """Random histories (contradictions included) yield identical
        acceptance decisions and identical derivable state."""
        n, _, events = sequence
        graphs = {name: graph(n) for name, graph in GRAPHS.items()}
        assert_graphs_agree(
            {b: replay(g, events) for b, g in graphs.items()}
        )
        assert_graphs_agree(
            {b: graph_state(g, n) for b, g in graphs.items()}
        )

    @settings(parent=DIFFERENTIAL_SETTINGS, max_examples=60)
    @given(answer_sequences(max_attributes=1))
    def test_graphs_reject_at_same_event(self, sequence):
        """Every graph rejects exactly the same events: ``add_answer``
        returns the same at each event, and at the first rejection the
        graphs hold identical state."""
        n, _, events = sequence
        graphs = {name: graph(n) for name, graph in GRAPHS.items()}
        rejected = False
        for u, v, _, answer in events:
            accepted = {
                name: graph.add_answer(u, v, answer)
                for name, graph in graphs.items()
            }
            assert_graphs_agree(accepted)
            if not rejected and not accepted["reference"]:
                rejected = True
                assert_graphs_agree(
                    {b: graph_state(g, n) for b, g in graphs.items()}
                )

    @settings(parent=DIFFERENTIAL_SETTINGS, max_examples=60)
    @given(consistent_answer_sequences())
    def test_consistent_histories_never_reject(self, sequence):
        """Histories drawn from a latent weak order are accepted whole
        by every graph, which then agrees with the latent order."""
        n, _, events, ranks = sequence
        for graph_class in GRAPHS.values():
            graph = graph_class(n)
            for u, v, _, answer in events:
                assert graph.add_answer(u, v, answer)
            assert graph.rejected_answers == 0
            for u in range(n):
                for v in range(n):
                    rel = graph.relation(u, v)
                    if u != v and rel is Preference.LEFT:
                        assert ranks[u] < ranks[v]
                    elif u != v and rel is Preference.RIGHT:
                        assert ranks[u] > ranks[v]
                    elif u != v and rel is Preference.EQUAL:
                        assert ranks[u] == ranks[v]

    @settings(parent=DIFFERENTIAL_SETTINGS, max_examples=240)
    @given(
        sequence=answer_sequences(max_attributes=3, tie_heavy=True),
        data=st.data(),
    )
    def test_system_predicates_identical(self, sequence, data):
        """AC-level predicates (the pruning machinery's inputs) agree on
        every ordered pair, as do the batched resolve_pairs view, every
        graph's class representatives and ``sky_ac`` of every prefix of
        a drawn member order."""
        n, num_attributes, events = sequence
        systems = {
            name: PreferenceSystem(n, num_attributes, graph=graph)
            for name, graph in GRAPHS.items()
        }
        for u, v, attribute, answer in events:
            assert_graphs_agree({
                name: system.add_answer(u, v, attribute, answer)
                for name, system in systems.items()
            })
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        assert_graphs_agree({
            b: s.resolve_pairs(pairs) for b, s in systems.items()
        })
        for predicate in (
            "ac_dominates",
            "ac_equal",
            "weakly_prefers_all",
            "cannot_dominate",
            "unknown_attributes",
        ):
            assert_graphs_agree({
                b: [getattr(s, predicate)(u, v) for u, v in pairs]
                for b, s in systems.items()
            })
        assert_graphs_agree({
            b: s.total_rejected() for b, s in systems.items()
        })
        for system in systems.values():
            for graph in system.graphs:
                assert list(graph.find_roots(range(n))) == [
                    graph.class_of(v) for v in range(n)
                ]
        order = data.draw(st.permutations(range(n)))
        for size in range(n + 1):
            assert_graphs_agree({
                b: s.sky_ac([order[:size]]) for b, s in systems.items()
            })

    @settings(parent=DIFFERENTIAL_SETTINGS, max_examples=160)
    @given(
        sequence=answer_sequences(max_attributes=3, tie_heavy=True),
        data=st.data(),
    )
    def test_grouped_sky_ac_matches_per_group_spec(self, sequence, data):
        """One grouped ``sky_ac`` call answers every group as the pair
        loop does on that group alone, on both graphs. The groups of
        a call include empty and singleton ones, and they share
        tuples, so a kernel whose member mask or twin test reads
        another group's members shows here."""
        n, num_attributes, events = sequence
        groups = data.draw(
            st.lists(
                st.lists(st.integers(0, n - 1), unique=True, max_size=n),
                min_size=1,
                max_size=6,
            )
        )
        for name, graph in GRAPHS.items():
            system = PreferenceSystem(n, num_attributes, graph=graph)
            for u, v, attribute, answer in events:
                system.add_answer(u, v, attribute, answer)
            assert system.sky_ac(groups) == [
                spec_sky_ac(system, group) for group in groups
            ], name

    @settings(parent=DIFFERENTIAL_SETTINGS, max_examples=240)
    @given(
        sequence=answer_sequences(max_attributes=3, tie_heavy=True),
        picks=st.lists(st.integers(0, 11), max_size=14),
    )
    @example(
        # (0, 1) settled with a tie on the third attribute; (0, 2)
        # LEFT everywhere, so open.
        sequence=(3, 3, [
            (0, 1, 0, Preference.LEFT),
            (0, 1, 1, Preference.RIGHT),
            (0, 1, 2, Preference.EQUAL),
            (0, 2, 0, Preference.LEFT),
            (0, 2, 1, Preference.LEFT),
            (0, 2, 2, Preference.LEFT),
        ]),
        picks=[0, 1, 2],
    )
    @example(
        # LEFT and RIGHT, but the third attribute unknown: open.
        sequence=(3, 3, [
            (0, 1, 0, Preference.LEFT),
            (0, 1, 1, Preference.RIGHT),
        ]),
        picks=[1, 0, 2],
    )
    def test_open_pairs_match_pair_loop_spec(self, sequence, picks):
        """``open_pairs`` leaves out exactly the pairs the pair loop
        finds settled, on both graphs. Tie-heavy histories make
        members of one tie class common, and a drawn member list may
        repeat a tuple; three attributes let a settled pair be tied or
        unknown on the third, which the two fixed examples always
        cover."""
        n, num_attributes, events = sequence
        members = [pick % n for pick in picks]
        for name, graph in GRAPHS.items():
            system = PreferenceSystem(n, num_attributes, graph=graph)
            for u, v, attribute, answer in events:
                system.add_answer(u, v, attribute, answer)
            first, second = system.open_pairs(members)
            assert list(zip(first.tolist(), second.tolist())) == (
                spec_open_pairs(system, members)
            ), name

    @settings(parent=DIFFERENTIAL_SETTINGS, max_examples=60)
    @given(verdict_rounds())
    def test_apply_verdicts_matches_scalar_ingestion(self, sequence):
        """Round-shaped closure transactions accept exactly the answers
        the scalar path accepts, in the same order, on every graph.

        The first answer wins, so acceptance is order-sensitive, and
        this is the pin that a transaction must never reorder or dedupe
        its batch."""
        n, num_attributes, rounds = sequence
        scalar = PreferenceSystem(
            n, num_attributes, graph=ReferencePreferenceGraph
        )
        scalar_accepted = [
            sum(
                scalar.add_answer(u, v, attribute, answer)
                for u, v, attribute, answer in batch
            )
            for batch in rounds
        ]
        states = {}
        for name, graph in GRAPHS.items():
            system = PreferenceSystem(n, num_attributes, graph=graph)
            accepted = [system.apply_verdicts(batch) for batch in rounds]
            assert accepted == scalar_accepted
            states[name] = [
                graph_state(graph, n) for graph in system.graphs
            ]
        states["reference-scalar"] = [
            graph_state(graph, n) for graph in scalar.graphs
        ]
        assert_graphs_agree(states)

    @settings(parent=DIFFERENTIAL_SETTINGS, max_examples=60)
    @given(sequence=answer_sequences(max_n=10, max_attributes=1), data=st.data())
    def test_numpy_bulk_kernels_match_scalar_queries(self, sequence, data):
        """The numpy bulk kernel answers exactly like the scalar API."""
        n, _, events = sequence
        graph = NumpyPreferenceGraph(n)
        replay(graph, events)
        pairs = data.draw(pair_query_batches(n))
        us = [u for u, _ in pairs]
        vs = [v for _, v in pairs]
        codes = list(graph.relations_batch(us, vs))
        expected = [
            {None: 0, Preference.LEFT: 1, Preference.RIGHT: 2,
             Preference.EQUAL: 3}[graph.relation(u, v)]
            for u, v in pairs
        ]
        assert codes == expected
        assert list(graph.find_roots(list(range(n)))) == [
            graph.class_of(v) for v in range(n)
        ]


class TestEndToEndDifferential:
    """Full CrowdSky runs must be bit-identical across the graphs."""

    @settings(parent=ROBUSTNESS_SETTINGS)
    @given(
        seed=st.integers(0, 10_000),
        distribution=st.sampled_from(list(Distribution)),
        num_crowd=st.integers(1, 2),
    )
    def test_seeded_instances_identical(self, seed, distribution, num_crowd):
        relation = generate_synthetic(
            28, 2, num_crowd, distribution, seed=seed
        )
        for scheduler in SCHEDULERS.values():
            assert_graphs_agree(on_each_graph(
                lambda: result_digest(scheduler(relation, None, None))
            ))

    @settings(parent=ROBUSTNESS_SETTINGS, max_examples=15)
    @given(relation=small_relations())
    def test_arbitrary_relations_identical(self, relation):
        """Grid relations with ties/duplicates — the degenerate-case
        preprocessing and tie-merge paths — agree end to end."""
        assert_graphs_agree(on_each_graph(
            lambda: result_digest(crowdsky(relation))
        ))

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_journal_bytes_identical(self, scheduler, tmp_path):
        """The write-ahead journal is byte-for-byte independent of the
        graph, noisy crowd included: the header holds only the config,
        which names no graph."""
        relation = generate_synthetic(24, 2, 2, seed=11)

        def journal_bytes(name):
            journal = tmp_path / name
            crowd = SimulatedCrowd(
                relation,
                pool=WorkerPool.uniform(size=25, accuracy=0.9),
                seed=9,
                journal=journal,
            )
            with closure_graph(name):
                SCHEDULERS[scheduler](relation, crowd, None)
            return b"".join(
                path.read_bytes() for path in segment_paths(journal)
            )

        assert_graphs_agree({name: journal_bytes(name) for name in GRAPHS})


class TestBackendSelection:
    def test_default_is_numpy(self, monkeypatch):
        """Every run is built on the numpy graph: ``REPRO_PREF_BACKEND``
        no longer picks one."""
        monkeypatch.setenv("REPRO_PREF_BACKEND", "reference")
        context = build_context(generate_synthetic(8, 2, 2, seed=0))
        assert [type(graph) for graph in context.prefs.graphs] == [
            NumpyPreferenceGraph, NumpyPreferenceGraph
        ]
        assert context.prefs.backend == "numpy"

    def test_constructor_flag_overrides_env(self, monkeypatch):
        """The ``graph`` keyword of :class:`PreferenceSystem` picks the
        closure graph, whatever the environment holds."""
        monkeypatch.setenv("REPRO_PREF_BACKEND", "numpy")
        system = PreferenceSystem(4, 1, graph=ReferencePreferenceGraph)
        assert isinstance(system.graphs[0], ReferencePreferenceGraph)
        assert system.backend == "reference"
