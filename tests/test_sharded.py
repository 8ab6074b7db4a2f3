"""Sharded-vs-serial differential harness (docs/sharding.md).

The sharded machine phase is only allowed to exist because it is
provably invisible: for any shard count, partitioner and job count, the
dominance matrix, dominating sets, layers, question order and the full
``CrowdSkylineResult`` of every scheduler must be byte-identical to the
serial path, and the scalable local-skyline/merge protocol must return
exactly :func:`repro.skyline.dominance.skyline_mask` while shipping
O(skyline) candidates. This suite pins all of it: fixed seeded
datasets, a Hypothesis property over generated relations, edge cases
(empty shards, shards > n, all-duplicates), the `ProcessPoolExecutor`
fan-out, obs spans/counters, and a journal crash-resume differential in
the style of ``tests/test_recovery.py``.

The shard counts under test default to {1, 2, 4, 7} and can be pinned
by the CI matrix via ``REPRO_TEST_SHARDS="1"`` etc.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import CrowdSkyConfig, crowdsky, parallel_dset, parallel_sl
from repro.core.crowdsky import crowdsky_budgeted
from repro.core.engine import build_context
from repro.core.resume import resume_run
from repro.crowd.faults import FaultPlan
from repro.crowd.platform import SimulatedCrowd
from repro.crowd.retry import RetryPolicy
from repro.crowd.workers import WorkerPool
from repro.data.synthetic import Distribution, generate_synthetic
from repro.data.toy import figure1_dataset
from repro.exceptions import CrowdSkyError
from repro.obs import observe
from repro.obs.metrics import SHARD_DOMINANCE_CHECKS, SHARD_TUPLES_SHIPPED
from repro.skyline.dominance import dominance_matrix, skyline_mask
from repro.skyline.dominating import (
    dominating_sets,
    dominating_sets_from_matrix,
)
from repro.skyline.layers import (
    covering_graph_from_matrix,
    skyline_layers_from_matrix,
)
from repro.skyline.sharded import (
    PARTITIONERS,
    local_skyline_mask,
    make_plan,
    sharded_dominance_matrix,
    sharded_skyline_mask,
)
from tests.strategies import (
    DIFFERENTIAL_SETTINGS,
    crowd_relations,
    known_matrices,
)
from tests.test_recovery import (
    assert_same_result,
    crash_at,
    journal_bytes,
    record_boundaries,
)

pytestmark = pytest.mark.shard

#: Shard counts exercised everywhere; the CI matrix narrows this via
#: ``REPRO_TEST_SHARDS="4"`` to split the suite across jobs.
SHARD_COUNTS = tuple(
    int(token)
    for token in (os.environ.get("REPRO_TEST_SHARDS") or "1 2 4 7").split()
)

SCHEDULERS = {
    "crowdsky": crowdsky,
    "parallel_dset": parallel_dset,
    "parallel_sl": parallel_sl,
}


def _datasets():
    rng = np.random.default_rng(11)
    return {
        "independent": rng.random((120, 3)),
        "anticorrelated": np.column_stack(
            [rng.random(90), 1.0 - rng.random(90) * 0.1]
        ),
        "ties": rng.integers(0, 4, size=(80, 3)).astype(float),
        "all_duplicates": np.tile(rng.random((1, 3)), (25, 1)),
        "single_row": rng.random((1, 4)),
        "empty": np.zeros((0, 3)),
    }


DATASETS = _datasets()


# -- partitioners ------------------------------------------------------------


@pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
@pytest.mark.parametrize("n", [0, 1, 5, 97])
def test_partition_is_a_deterministic_cover(partitioner, n):
    for shards in SHARD_COUNTS:
        plan = make_plan(n, shards, partitioner)
        again = make_plan(n, shards, partitioner)
        assert [p.tolist() for p in plan.parts] == [
            p.tolist() for p in again.parts
        ]
        merged = np.concatenate([p for p in plan.parts]) if n else (
            np.zeros(0, dtype=int)
        )
        assert sorted(merged.tolist()) == list(range(n))
        assert len(plan.parts) == shards


def test_range_partition_is_contiguous():
    plan = make_plan(100, 7, "range")
    for part in plan.parts:
        assert part.tolist() == list(range(part[0], part[-1] + 1))


def test_hash_partition_seed_changes_assignment():
    a = make_plan(200, 4, "hash", seed=0)
    b = make_plan(200, 4, "hash", seed=1)
    assert [p.tolist() for p in a.parts] != [p.tolist() for p in b.parts]
    assert sorted(np.concatenate(b.parts).tolist()) == list(range(200))


def test_unknown_partitioner_and_bad_count_raise():
    with pytest.raises(CrowdSkyError, match="partitioner"):
        make_plan(10, 2, "zigzag")
    with pytest.raises(CrowdSkyError, match="shard count"):
        make_plan(10, 0)


# -- the local-skyline kernel and the sharded merge --------------------------


@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_local_kernel_matches_matrix_kernel(dataset):
    data = DATASETS[dataset]
    mask, checks = local_skyline_mask(data)
    assert np.array_equal(mask, skyline_mask(data))
    assert checks >= 0


@pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
@pytest.mark.parametrize("dataset", sorted(DATASETS))
def test_sharded_skyline_matches_serial(dataset, partitioner):
    data = DATASETS[dataset]
    reference = skyline_mask(data)
    for shards in SHARD_COUNTS:
        mask, stats = sharded_skyline_mask(data, shards, partitioner)
        assert np.array_equal(mask, reference), (dataset, shards)
        assert stats.tuples_shipped == sum(stats.local_skyline_sizes)
        assert stats.skyline_size == int(np.count_nonzero(reference))
        assert stats.shard_sizes == [
            int(p.size) for p in make_plan(
                data.shape[0], shards, partitioner
            ).parts
        ]


def test_shards_exceeding_n_leave_empty_shards_and_agree():
    data = DATASETS["independent"][:3]
    plan = make_plan(3, 9, "hash")
    assert sum(1 for p in plan.parts if p.size == 0) >= 6
    mask, stats = sharded_skyline_mask(data, 9, "hash")
    assert np.array_equal(mask, skyline_mask(data))
    assert len(stats.local_skyline_sizes) == 9


def test_all_duplicates_ship_every_tuple():
    """The documented degenerate case: every tuple is in the skyline,
    so shard-local pruning cannot drop anything."""
    data = DATASETS["all_duplicates"]
    mask, stats = sharded_skyline_mask(data, 4, "range")
    assert mask.all()
    assert stats.tuples_shipped == data.shape[0]


def test_tuples_shipped_stays_near_skyline_size_not_n():
    """The communication-cost claim: on independent data each shard
    ships only its local skyline, keeping total transfer O(skyline)."""
    data = np.random.default_rng(23).random((4000, 3))
    for shards in SHARD_COUNTS:
        if shards < 2:
            continue
        mask, stats = sharded_skyline_mask(data, shards, "hash")
        sky = int(np.count_nonzero(mask))
        assert stats.tuples_shipped <= 16 * max(sky, 1)
        assert stats.tuples_shipped < data.shape[0] / 10
        assert stats.dominance_checks == (
            stats.local_checks + stats.merge_checks
        )


def test_pool_fanout_is_identical_to_inline():
    data = np.random.default_rng(5).random((400, 3))
    inline_mask, inline_stats = sharded_skyline_mask(
        data, 4, "hash", jobs=1
    )
    pool_mask, pool_stats = sharded_skyline_mask(data, 4, "hash", jobs=2)
    assert np.array_equal(inline_mask, pool_mask)
    assert inline_stats.tuples_shipped == pool_stats.tuples_shipped
    assert inline_stats.local_checks == pool_stats.local_checks
    assert np.array_equal(
        sharded_dominance_matrix(data, 4, "range", jobs=2),
        dominance_matrix(data),
    )


def test_plan_size_mismatch_raises():
    plan = make_plan(10, 2)
    with pytest.raises(CrowdSkyError, match="plan was built"):
        sharded_skyline_mask(np.zeros((4, 2)), 2, plan=plan)
    with pytest.raises(CrowdSkyError, match="plan was built"):
        sharded_dominance_matrix(np.zeros((4, 2)), 2, plan=plan)


# -- machine-phase structures ------------------------------------------------


@pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
def test_sharded_matrix_and_derived_structures_are_identical(partitioner):
    for dataset in ("independent", "ties", "all_duplicates"):
        data = DATASETS[dataset]
        serial = dominance_matrix(data)
        for shards in SHARD_COUNTS:
            sharded = sharded_dominance_matrix(data, shards, partitioner)
            assert np.array_equal(sharded, serial), (dataset, shards)
            assert dominating_sets_from_matrix(sharded) == (
                dominating_sets(data)
            )
            assert skyline_layers_from_matrix(sharded) == (
                skyline_layers_from_matrix(serial)
            )
            assert covering_graph_from_matrix(sharded) == (
                covering_graph_from_matrix(serial)
            )


def test_build_context_shard_switch_is_invisible():
    relation = generate_synthetic(40, 2, 1, seed=42)
    serial = build_context(relation)
    for shards in SHARD_COUNTS:
        sharded = build_context(
            relation, shards=shards, shard_partitioner="hash"
        )
        assert np.array_equal(sharded.matrix, serial.matrix)
        assert sharded.ds_sizes == serial.ds_sizes
        for t in range(40):
            assert np.array_equal(
                sharded.ds_in_eval_order(t), serial.ds_in_eval_order(t)
            )
        assert sharded.eval_order() == serial.eval_order()


def test_build_context_rejects_invalid_shard_config():
    relation = generate_synthetic(10, 2, 1, seed=42)
    with pytest.raises(CrowdSkyError, match="shards"):
        build_context(relation, shards=0)
    with pytest.raises(CrowdSkyError, match="shard_jobs"):
        build_context(relation, shards=2, shard_jobs=0)
    with pytest.raises(CrowdSkyError, match="partitioner"):
        build_context(relation, shards=2, shard_partitioner="nope")


# -- full crowd runs: every scheduler, every shard count ---------------------


@pytest.fixture(scope="module")
def serial_results():
    relation = generate_synthetic(
        36, 2, 1, Distribution.ANTI_CORRELATED, seed=7
    )
    return relation, {
        name: run(relation) for name, run in SCHEDULERS.items()
    }


@pytest.mark.parametrize("partitioner", sorted(PARTITIONERS))
@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_full_runs_are_byte_identical(
    serial_results, scheduler, partitioner
):
    relation, baselines = serial_results
    for shards in SHARD_COUNTS:
        result = SCHEDULERS[scheduler](
            relation,
            config=CrowdSkyConfig(
                shards=shards, shard_partitioner=partitioner
            ),
        )
        assert_same_result(result, baselines[scheduler])


def test_budgeted_scheduler_matches_serial():
    relation = generate_synthetic(30, 2, 1, seed=11)
    baseline = crowdsky_budgeted(relation, 25)
    for shards in SHARD_COUNTS:
        result = crowdsky_budgeted(
            relation, 25, config=CrowdSkyConfig(
                shards=shards, shard_partitioner="hash"
            )
        )
        assert_same_result(result, baseline)


def test_toy_dataset_with_pool_jobs_matches_serial():
    relation = figure1_dataset()
    baseline = crowdsky(relation)
    result = crowdsky(
        relation, config=CrowdSkyConfig(shards=3, shard_jobs=2)
    )
    assert_same_result(result, baseline)


def test_shards_exceeding_n_full_run_matches_serial():
    relation = generate_synthetic(6, 2, 1, seed=3)
    baseline = crowdsky(relation)
    for partitioner in sorted(PARTITIONERS):
        result = crowdsky(
            relation,
            config=CrowdSkyConfig(
                shards=19, shard_partitioner=partitioner
            ),
        )
        assert_same_result(result, baseline)


# -- Hypothesis differentials ------------------------------------------------


@settings(max_examples=60, deadline=None, parent=DIFFERENTIAL_SETTINGS)
@given(data=known_matrices(max_rows=40))
def test_property_sharded_skyline_equals_serial(data):
    reference = skyline_mask(data)
    n = data.shape[0]
    for shards, partitioner in ((1, "range"), (3, "hash"), (n + 2, "hash")):
        mask, stats = sharded_skyline_mask(data, shards, partitioner)
        assert np.array_equal(mask, reference)
        assert stats.tuples_shipped >= int(np.count_nonzero(reference))
    assert np.array_equal(
        sharded_dominance_matrix(data, 3, "hash"), dominance_matrix(data)
    )


@settings(max_examples=25, deadline=None, parent=DIFFERENTIAL_SETTINGS)
@given(relation=crowd_relations())
def test_property_full_run_is_shard_invariant(relation):
    baseline = crowdsky(relation)
    for shards in (2, 5):
        result = crowdsky(
            relation,
            config=CrowdSkyConfig(
                shards=shards, shard_partitioner="hash"
            ),
        )
        assert_same_result(result, baseline)


# -- journal crash-resume ----------------------------------------------------


def _sharded_journaled_run(relation, journal, shards):
    crowd = SimulatedCrowd(
        relation,
        pool=WorkerPool.uniform(size=25, accuracy=0.85),
        seed=9,
        journal=journal,
        faults=FaultPlan(
            abandonment_rate=0.05,
            hit_timeout_rate=0.04,
            transient_error_rate=0.04,
            seed=13,
        ),
        retry=RetryPolicy(max_attempts=4),
    )
    result = crowdsky(
        relation,
        crowd,
        CrowdSkyConfig(shards=shards, shard_partitioner="hash"),
    )
    if crowd.journal is not None:
        crowd.journal.close()
    return result


def test_journaled_sharded_run_resumes_byte_identical(tmp_path):
    """Crash-resume differential for a sharded config: the journal
    header records the shard fields, so a resume re-executes the
    sharded machine phase and must converge to the identical run —
    which is itself identical to the serial run."""
    relation = generate_synthetic(24, 2, 1, seed=5)
    baseline = _sharded_journaled_run(relation, tmp_path / "base", 4)
    serial = _sharded_journaled_run(relation, tmp_path / "serial", 1)
    assert_same_result(baseline, serial)
    raw = journal_bytes(tmp_path / "base")
    boundaries = record_boundaries(raw)
    assert len(boundaries) > 10
    samples = sorted(
        {boundaries[0], boundaries[len(boundaries) // 3],
         boundaries[2 * len(boundaries) // 3], boundaries[-1]}
    )
    for index, cut in enumerate(samples):
        crashed = crash_at(tmp_path, f"cut{index}", raw, cut)
        resumed = resume_run(crashed, relation)
        assert_same_result(resumed, baseline)
        assert journal_bytes(crashed) == raw, f"cut {index}"


# -- observability -----------------------------------------------------------


def test_shard_spans_and_transfer_counters_are_emitted(tmp_path):
    data = np.random.default_rng(2).random((300, 3))
    trace = tmp_path / "trace.jsonl"
    with observe(trace_path=str(trace)) as observation:
        _, stats = sharded_skyline_mask(data, 4, "hash")
        metrics = observation.metrics
        assert metrics.value(SHARD_TUPLES_SHIPPED) == stats.tuples_shipped
        assert metrics.value(
            SHARD_DOMINANCE_CHECKS, stage="local"
        ) == stats.local_checks
        assert metrics.value(
            SHARD_DOMINANCE_CHECKS, stage="merge"
        ) == stats.merge_checks
    text = trace.read_text()
    assert '"shard.map"' in text and '"shard.merge"' in text


def test_matrix_regime_counts_full_rows_shipped(tmp_path):
    data = np.random.default_rng(3).random((60, 3))
    with observe(trace_path=str(tmp_path / "t.jsonl")) as observation:
        sharded_dominance_matrix(data, 4, "hash")
        metrics = observation.metrics
        assert metrics.value(SHARD_TUPLES_SHIPPED) == 60
        assert metrics.value(
            SHARD_DOMINANCE_CHECKS, stage="matrix"
        ) == 60 * 60


def test_disabled_observability_emits_nothing_and_agrees():
    data = np.random.default_rng(2).random((120, 3))
    mask, _ = sharded_skyline_mask(data, 3, "range")
    assert np.array_equal(mask, skyline_mask(data))
