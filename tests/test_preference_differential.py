"""Differential suite: the two preference backends, pinned pairwise.

The numpy backend (:class:`repro.core.preference.NumpyPreferenceGraph`)
is an optimization of the reference implementation, not a
reinterpretation — every observable it exposes must match the reference
bit for bit. These properties replay random answer histories (edges,
ties, contradictions under both :class:`ContradictionPolicy` values)
into both backends and compare the complete derivable state, pin the
round-shaped closure transactions (:meth:`PreferenceSystem.
apply_verdicts`) and the bulk kernel against the scalar queries, then
pin full CrowdSky runs — all four schedulers — to identical question
order, round tables, skylines and journal bytes under either backend.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core import CrowdSkyConfig, crowdsky, parallel_dset, parallel_sl
from repro.core.crowdsky import crowdsky_budgeted
from repro.core.preference import (
    BACKEND_NAMES,
    ContradictionPolicy,
    NumpyPreferenceGraph,
    PreferenceGraph,
    PreferenceSystem,
    ReferencePreferenceGraph,
    default_backend,
)
from repro.crowd.journal import segment_paths
from repro.crowd.platform import SimulatedCrowd
from repro.questions import Preference
from repro.crowd.workers import WorkerPool
from repro.data.synthetic import Distribution, generate_synthetic
from repro.exceptions import CrowdSkyError, PreferenceConflictError
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

BACKENDS = BACKEND_NAMES  # ("numpy", "reference")

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
    """Every cross-backend observable of one scheduler run."""
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


def assert_backends_agree(by_backend):
    """Compare each optimized backend's value against the reference."""
    reference = by_backend["reference"]
    for backend, value in by_backend.items():
        assert value == reference, f"{backend} diverges from reference"


class TestGraphDifferential:
    @settings(
        parent=DIFFERENTIAL_SETTINGS,
    )
    @given(answer_sequences(max_attributes=1))
    def test_keep_first_state_identical(self, sequence):
        """Random histories (contradictions included) yield identical
        acceptance decisions and identical derivable state."""
        n, _, events = sequence
        graphs = {
            backend: PreferenceGraph(n, backend=backend)
            for backend in BACKENDS
        }
        assert_backends_agree(
            {b: replay(g, events) for b, g in graphs.items()}
        )
        assert_backends_agree(
            {b: graph_state(g, n) for b, g in graphs.items()}
        )

    @settings(parent=DIFFERENTIAL_SETTINGS, max_examples=60)
    @given(answer_sequences(max_attributes=1))
    def test_raise_policy_rejects_at_same_event(self, sequence):
        """Under RAISE all backends throw on exactly the same event,
        leaving identical pre-conflict state behind."""
        n, _, events = sequence
        graphs = {
            backend: PreferenceGraph(
                n, policy=ContradictionPolicy.RAISE, backend=backend
            )
            for backend in BACKENDS
        }
        failed_at = {}
        for name, graph in graphs.items():
            for index, (u, v, _, answer) in enumerate(events):
                try:
                    graph.add_answer(u, v, answer)
                except PreferenceConflictError:
                    failed_at[name] = index
                    break
        assert_backends_agree(
            {b: failed_at.get(b) for b in BACKENDS}
        )
        assert_backends_agree(
            {b: graph_state(g, n) for b, g in graphs.items()}
        )

    @settings(parent=DIFFERENTIAL_SETTINGS, max_examples=60)
    @given(consistent_answer_sequences())
    def test_consistent_histories_never_reject(self, sequence):
        """Histories drawn from a latent weak order are accepted whole
        by every backend, which then agrees with the latent order."""
        n, _, events, ranks = sequence
        for backend in BACKENDS:
            graph = PreferenceGraph(
                n, policy=ContradictionPolicy.RAISE, backend=backend
            )
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
            backend: PreferenceSystem(n, num_attributes, backend=backend)
            for backend in BACKENDS
        }
        for u, v, attribute, answer in events:
            assert_backends_agree({
                backend: system.add_answer(u, v, attribute, answer)
                for backend, system in systems.items()
            })
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        assert_backends_agree({
            b: s.resolve_pairs(pairs) for b, s in systems.items()
        })
        for predicate in (
            "ac_dominates",
            "ac_equal",
            "weakly_prefers_all",
            "cannot_dominate",
            "unknown_attributes",
        ):
            assert_backends_agree({
                b: [getattr(s, predicate)(u, v) for u, v in pairs]
                for b, s in systems.items()
            })
        assert_backends_agree({
            b: s.total_rejected() for b, s in systems.items()
        })
        for system in systems.values():
            for graph in system.graphs:
                assert list(graph.find_roots(range(n))) == [
                    graph.class_of(v) for v in range(n)
                ]
        order = data.draw(st.permutations(range(n)))
        for size in range(n + 1):
            assert_backends_agree({
                b: s.sky_ac([order[:size]]) for b, s in systems.items()
            })

    @settings(parent=DIFFERENTIAL_SETTINGS, max_examples=160)
    @given(
        sequence=answer_sequences(max_attributes=3, tie_heavy=True),
        data=st.data(),
    )
    def test_grouped_sky_ac_matches_per_group_spec(self, sequence, data):
        """One grouped ``sky_ac`` call answers every group as the pair
        loop does on that group alone, on both backends. The groups of
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
        for backend in BACKENDS:
            system = PreferenceSystem(n, num_attributes, backend=backend)
            for u, v, attribute, answer in events:
                system.add_answer(u, v, attribute, answer)
            assert system.sky_ac(groups) == [
                spec_sky_ac(system, group) for group in groups
            ], backend

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
        finds settled, on both backends. Tie-heavy histories make
        members of one tie class common, and a drawn member list may
        repeat a tuple; three attributes let a settled pair be tied or
        unknown on the third, which the two fixed examples always
        cover."""
        n, num_attributes, events = sequence
        members = [pick % n for pick in picks]
        for backend in BACKENDS:
            system = PreferenceSystem(n, num_attributes, backend=backend)
            for u, v, attribute, answer in events:
                system.add_answer(u, v, attribute, answer)
            first, second = system.open_pairs(members)
            assert list(zip(first.tolist(), second.tolist())) == (
                spec_open_pairs(system, members)
            ), backend

    @settings(parent=DIFFERENTIAL_SETTINGS, max_examples=60)
    @given(verdict_rounds())
    def test_apply_verdicts_matches_scalar_ingestion(self, sequence):
        """Round-shaped closure transactions accept exactly the answers
        the scalar path accepts, in the same order, on every backend.

        KEEP_FIRST makes acceptance order-sensitive, so this is the pin
        that a transaction must never reorder or dedupe its batch."""
        n, num_attributes, rounds = sequence
        scalar = PreferenceSystem(n, num_attributes, backend="reference")
        scalar_accepted = [
            sum(
                scalar.add_answer(u, v, attribute, answer)
                for u, v, attribute, answer in batch
            )
            for batch in rounds
        ]
        states = {}
        for backend in BACKENDS:
            system = PreferenceSystem(n, num_attributes, backend=backend)
            accepted = [system.apply_verdicts(batch) for batch in rounds]
            assert accepted == scalar_accepted
            states[backend] = [
                graph_state(graph, n) for graph in system.graphs
            ]
        states["reference-scalar"] = [
            graph_state(graph, n) for graph in scalar.graphs
        ]
        assert_backends_agree(states)

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
    """Full CrowdSky runs must be bit-identical across backends."""

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
            assert_backends_agree({
                backend: result_digest(
                    scheduler(
                        relation, None, CrowdSkyConfig(backend=backend)
                    )
                )
                for backend in BACKENDS
            })

    @settings(parent=ROBUSTNESS_SETTINGS, max_examples=15)
    @given(relation=small_relations())
    def test_arbitrary_relations_identical(self, relation):
        """Grid relations with ties/duplicates — the degenerate-case
        preprocessing and tie-merge paths — agree end to end."""
        assert_backends_agree({
            backend: result_digest(
                crowdsky(relation, config=CrowdSkyConfig(backend=backend))
            )
            for backend in BACKENDS
        })

    @pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
    def test_journal_bytes_identical(self, scheduler, tmp_path, monkeypatch):
        """The write-ahead journal is byte-for-byte independent of the
        backend, noisy crowd included.

        The backend is selected through ``REPRO_PREF_BACKEND`` (config
        ``backend=None``) so the run-header payload — which embeds the
        config — is identical too; only then is byte equality possible.
        """
        relation = generate_synthetic(24, 2, 2, seed=11)
        blobs = {}
        for backend in BACKENDS:
            monkeypatch.setenv("REPRO_PREF_BACKEND", backend)
            journal = tmp_path / backend
            crowd = SimulatedCrowd(
                relation,
                pool=WorkerPool.uniform(size=25, accuracy=0.9),
                seed=9,
                journal=journal,
            )
            SCHEDULERS[scheduler](relation, crowd, None)
            blobs[backend] = b"".join(
                path.read_bytes() for path in segment_paths(journal)
            )
        assert_backends_agree(blobs)


class TestBackendSelection:
    def test_default_is_numpy(self, monkeypatch):
        monkeypatch.delenv("REPRO_PREF_BACKEND", raising=False)
        assert default_backend() == "numpy"
        assert isinstance(PreferenceGraph(4), NumpyPreferenceGraph)

    @pytest.mark.parametrize(
        "backend, cls",
        [
            ("numpy", NumpyPreferenceGraph),
            ("reference", ReferencePreferenceGraph),
        ],
    )
    def test_env_var_selects_backend(self, backend, cls, monkeypatch):
        monkeypatch.setenv("REPRO_PREF_BACKEND", backend)
        assert default_backend() == backend
        assert isinstance(PreferenceGraph(4), cls)
        system = PreferenceSystem(4, 1)
        assert system.backend == backend
        assert isinstance(system.graphs[0], cls)

    def test_constructor_flag_overrides_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_PREF_BACKEND", "reference")
        assert isinstance(
            PreferenceGraph(4, backend="numpy"), NumpyPreferenceGraph
        )

    def test_unknown_backend_rejected(self, monkeypatch):
        """Unknown names fail fast — ``bitset`` included."""
        relation = generate_synthetic(8, 2, 1, seed=0)
        for name in ("quantum", "bitset"):
            with pytest.raises(CrowdSkyError):
                PreferenceGraph(4, backend=name)
            with pytest.raises(CrowdSkyError):
                crowdsky(relation, config=CrowdSkyConfig(backend=name))
            monkeypatch.setenv("REPRO_PREF_BACKEND", name)
            with pytest.raises(CrowdSkyError):
                default_backend()

    def test_config_backend_threads_through(self, small_independent):
        results = {
            backend: crowdsky(
                small_independent, config=CrowdSkyConfig(backend=backend)
            )
            for backend in BACKENDS
        }
        assert_backends_agree(
            {b: r.skyline for b, r in results.items()}
        )
        assert_backends_agree(
            {b: r.stats.questions for b, r in results.items()}
        )
