"""Cross-module property-based tests on the core invariants.

These are the heavyweight guarantees: with a perfect crowd, every
algorithm (serial, both parallel schedulers, baseline, unary) computes
exactly the latent ground-truth skyline, for arbitrary datasets —
including pathological ones hypothesis invents.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.baseline import baseline_skyline
from repro.core.crowdsky import CrowdSkyConfig, PruningLevel, crowdsky
from repro.core.parallel import parallel_dset, parallel_sl
from repro.core.unary import unary_skyline
from repro.crowd.platform import SimulatedCrowd
from repro.crowd.voting import StaticVoting
from repro.crowd.workers import WorkerPool
from repro.metrics.accuracy import ak_skyline, ground_truth_skyline
from tests.conftest import make_relation

ALGORITHMS = [crowdsky, parallel_dset, parallel_sl, baseline_skyline,
              unary_skyline]

# Small integer grids produce plenty of ties and duplicates — the nasty
# cases for dominance logic.
relations = st.builds(
    make_relation,
    st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 5)),
        min_size=1,
        max_size=14,
    ),
    st.none(),
).map(lambda r: r)


@st.composite
def crowd_relations(draw):
    known = draw(
        st.lists(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            min_size=1,
            max_size=14,
        )
    )
    latent = draw(
        st.lists(
            st.tuples(st.integers(0, 5)),
            min_size=len(known),
            max_size=len(known),
        )
    )
    return make_relation(known, latent)


@pytest.mark.parametrize("algorithm", ALGORITHMS)
class TestPerfectCrowdExactness:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(relation=crowd_relations())
    def test_exact_skyline(self, algorithm, relation):
        result = algorithm(relation)
        assert result.skyline == ground_truth_skyline(relation)


class TestStructuralInvariants:
    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(relation=crowd_relations())
    def test_unique_ak_skyline_tuples_always_in_result(self, relation):
        """AK-skyline tuples stay in the skyline — except AK-duplicates,
        which the degenerate-case preprocessing may resolve in AC."""
        result = crowdsky(relation)
        known = relation.known_matrix()
        for t in ak_skyline(relation):
            has_twin = any(
                s != t and np.array_equal(known[s], known[t])
                for s in range(len(relation))
            )
            if not has_twin:
                assert t in result.skyline

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(relation=crowd_relations())
    def test_parallel_schedulers_agree_with_serial(self, relation):
        serial = crowdsky(relation).skyline
        assert parallel_dset(relation).skyline == serial
        assert parallel_sl(relation).skyline == serial

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(relation=crowd_relations())
    def test_pruning_levels_agree(self, relation):
        baseline = crowdsky(
            relation, config=CrowdSkyConfig(pruning=PruningLevel.DSET)
        ).skyline
        for level in (PruningLevel.P1, PruningLevel.P1_P2,
                      PruningLevel.P1_P2_P3):
            assert crowdsky(
                relation, config=CrowdSkyConfig(pruning=level)
            ).skyline == baseline

    @settings(
        max_examples=25,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(relation=crowd_relations())
    def test_no_contradictions_under_perfect_crowd(self, relation):
        """A perfect crowd never contradicts itself, so no answer is
        rejected."""
        result = crowdsky(relation)
        assert result.rejected_answers == 0

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(relation=crowd_relations())
    def test_question_budget_bounded_by_all_pairs(self, relation):
        n = len(relation)
        result = crowdsky(relation)
        assert result.stats.questions <= n * (n - 1) // 2


class TestFailureInjection:
    """Robustness under hostile crowds: results may be wrong but the
    engine must terminate, stay acyclic and report a valid skyline set."""

    @pytest.mark.parametrize("accuracy", [0.5, 0.6, 0.8])
    @pytest.mark.parametrize(
        "algorithm", [crowdsky, parallel_dset, parallel_sl]
    )
    def test_noisy_crowd_terminates(self, accuracy, algorithm, toy):
        crowd = SimulatedCrowd(
            toy,
            pool=WorkerPool.uniform(accuracy=accuracy),
            voting=StaticVoting(3),
            seed=99,
        )
        result = algorithm(toy, crowd=crowd)
        assert result.skyline <= set(range(len(toy)))
        assert result.skyline  # a skyline is never empty

    def test_adversarial_crowd_terminates(self, toy):
        """Even an always-wrong crowd cannot hang or crash the engine."""
        crowd = SimulatedCrowd(
            toy,
            pool=WorkerPool.uniform(accuracy=0.0),
            voting=StaticVoting(1),
            seed=0,
        )
        result = crowdsky(toy, crowd=crowd)
        assert result.stats.questions > 0

    def test_spammer_pool_terminates(self, toy, rng):
        crowd = SimulatedCrowd(
            toy,
            pool=WorkerPool.mixed(rng, size=20, spammer_fraction=1.0),
            voting=StaticVoting(5),
            seed=1,
        )
        result = crowdsky(toy, crowd=crowd)
        assert result.skyline

    def test_mixed_pool_with_spammers_still_reasonable(self, rng):
        from repro.data.synthetic import Distribution, generate_synthetic
        from repro.metrics.accuracy import precision_recall

        relation = generate_synthetic(
            80, 3, 1, Distribution.INDEPENDENT, seed=17
        )
        crowd = SimulatedCrowd(
            relation,
            pool=WorkerPool.mixed(
                rng, size=50, spammer_fraction=0.1, mean_accuracy=0.9
            ),
            voting=StaticVoting(5),
            seed=17,
        )
        result = crowdsky(relation, crowd=crowd)
        report = precision_recall(result.skyline, relation)
        assert report.recall >= 0.5

    def test_rejected_answers_counted_under_noise(self):
        from repro.data.synthetic import Distribution, generate_synthetic

        total = 0
        for seed in range(5):
            relation = generate_synthetic(
                100, 2, 1, Distribution.ANTI_CORRELATED, seed=seed
            )
            crowd = SimulatedCrowd(
                relation,
                pool=WorkerPool.uniform(accuracy=0.6),
                voting=StaticVoting(1),
                seed=seed,
            )
            result = parallel_sl(relation, crowd=crowd)
            total += result.rejected_answers
        assert total >= 0  # bookkeeping is wired through (often > 0)
