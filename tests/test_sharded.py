"""Sharded-vs-serial differential harness (docs/sharding.md).

The sharded skyline is only allowed to exist because it is provably
invisible: for any shard count, partitioner and job count, the
local-skyline/merge protocol must return exactly
:func:`repro.skyline.dominance.skyline_mask` while shipping O(skyline)
candidates. This suite pins it: fixed seeded datasets, a Hypothesis
property over generated matrices, edge cases (empty shards,
shards > n, all-duplicates), the `ProcessPoolExecutor` fan-out, and
obs spans/counters.

The shard counts under test default to {1, 2, 4, 7} and can be pinned
by the CI matrix via ``REPRO_TEST_SHARDS="1"`` etc.
"""

from __future__ import annotations

import os

import numpy as np
import pytest
from hypothesis import given, settings

from repro.exceptions import CrowdSkyError
from repro.obs import observe
from repro.obs.metrics import SHARD_DOMINANCE_CHECKS, SHARD_TUPLES_SHIPPED
from repro.skyline.dominance import skyline_mask
from repro.skyline.sharded import (
    PARTITIONERS,
    local_skyline_mask,
    make_plan,
    sharded_skyline_mask,
)
from tests.strategies import DIFFERENTIAL_SETTINGS, known_matrices

pytestmark = pytest.mark.shard

#: Shard counts exercised everywhere; the CI matrix narrows this via
#: ``REPRO_TEST_SHARDS="4"`` to split the suite across jobs.
SHARD_COUNTS = tuple(
    int(token)
    for token in (os.environ.get("REPRO_TEST_SHARDS") or "1 2 4 7").split()
)

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


def test_plan_size_mismatch_raises():
    plan = make_plan(10, 2)
    with pytest.raises(CrowdSkyError, match="plan was built"):
        sharded_skyline_mask(np.zeros((4, 2)), 2, plan=plan)


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


def test_disabled_observability_emits_nothing_and_agrees():
    data = np.random.default_rng(2).random((120, 3))
    mask, _ = sharded_skyline_mask(data, 3, "range")
    assert np.array_equal(mask, skyline_mask(data))
