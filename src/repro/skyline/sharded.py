"""Sharded machine-phase skyline (distributed-skyline template).

Partition the relation into deterministic shards, compute each shard's
local skyline with the vectorized dominance kernels (optionally fanned
out over a ``ProcessPoolExecutor``), then merge — the
local-skyline/merge scheme of *Computing Skylines on Distributed Data*
(see PAPERS.md). A tuple dominated inside its own shard can never be in
the global skyline, so only shard-local skyline survivors are shipped
to the coordinator (``tuples_shipped`` stays near the final skyline
size, not ``n``), and no ``n × n`` matrix is ever built.

This regime serves machine-only skylines. The crowd pipeline needs
``DS(t)`` for *every* tuple, so it builds the full dominance matrix
with :func:`repro.skyline.dominance.dominance_matrix` instead.

Determinism contract (docs/sharding.md): partitioners are pure
functions of ``(n, shards, seed)`` — no RNG objects, no dict-order or
scheduling dependence — and the merge walks shards in plan order, so a
sharded skyline is identical across processes, job counts and repeat
invocations.

:func:`sharded_skyline_mask` emits ``shard.map`` / ``shard.merge``
tracer spans and one ``shard.stats`` event, which folds into the
:data:`repro.obs.metrics.SHARD_TUPLES_SHIPPED` and
:data:`repro.obs.metrics.SHARD_DOMINANCE_CHECKS` counters.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from repro.exceptions import CrowdSkyError
from repro.obs import NOOP_TRACER, current_observation
from repro.skyline.dominance import _dominance_blocks, skyline_mask


# ---------------------------------------------------------------------------
# Partitioners
# ---------------------------------------------------------------------------


def range_partition(n: int, shards: int, seed: int = 0) -> List[np.ndarray]:
    """Contiguous index ranges, sizes differing by at most one.

    ``seed`` is accepted for signature uniformity and ignored — a range
    partition has nothing to randomize.
    """
    return [
        part for part in np.array_split(np.arange(n, dtype=np.int64), shards)
    ]


def hash_partition(n: int, shards: int, seed: int = 0) -> List[np.ndarray]:
    """Seeded hash partition: shard ``i`` gets indices whose mixed hash
    lands in residue class ``i``.

    Uses a splitmix64-style integer finalizer over ``index + seed·φ``
    rather than a stateful RNG, so the assignment is a pure function of
    ``(n, shards, seed)`` (RA002: nothing here depends on process or
    call order). Within a shard, indices stay in ascending order.
    """
    index = np.arange(n, dtype=np.uint64)
    golden = np.uint64(0x9E3779B97F4A7C15)
    with np.errstate(over="ignore"):
        x = index * golden + np.uint64(seed) * np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(30)
        x *= np.uint64(0xBF58476D1CE4E5B9)
        x ^= x >> np.uint64(27)
        x *= np.uint64(0x94D049BB133111EB)
        x ^= x >> np.uint64(31)
    assignment = (x % np.uint64(shards)).astype(np.int64)
    return [
        np.flatnonzero(assignment == shard).astype(np.int64)
        for shard in range(shards)
    ]


#: partitioner name -> callable(n, shards, seed) -> list of index arrays.
PARTITIONERS: Dict[str, Callable[[int, int, int], List[np.ndarray]]] = {
    "range": range_partition,
    "hash": hash_partition,
}


@dataclass(frozen=True)
class ShardPlan:
    """A deterministic assignment of tuple indices to shards.

    ``parts[s]`` holds the (ascending) global indices of shard ``s``;
    empty shards are legal (``shards > n`` simply leaves some empty).
    """

    n: int
    shards: int
    partitioner: str
    seed: int
    parts: Tuple[np.ndarray, ...]

    def sizes(self) -> List[int]:
        return [int(part.size) for part in self.parts]


def make_plan(
    n: int, shards: int, partitioner: str = "range", seed: int = 0
) -> ShardPlan:
    """Build the shard plan; validates the partitioner name and count."""
    if shards < 1:
        raise CrowdSkyError(f"shard count must be >= 1, got {shards}")
    build = PARTITIONERS.get(partitioner)
    if build is None:
        raise CrowdSkyError(
            f"unknown shard partitioner {partitioner!r}; "
            f"pick one of {sorted(PARTITIONERS)}"
        )
    return ShardPlan(
        n=n,
        shards=shards,
        partitioner=partitioner,
        seed=seed,
        parts=tuple(build(n, shards, seed)),
    )


# ---------------------------------------------------------------------------
# Local skyline kernel (sort-filter, no n x n matrix)
# ---------------------------------------------------------------------------


def local_skyline_mask(
    data: np.ndarray, block_size: int = 1024
) -> Tuple[np.ndarray, int]:
    """Skyline membership mask without the quadratic matrix.

    Sort-filter (Chomicki's SFS idea, vectorized): rows are processed in
    ascending attribute-sum order. Strict dominance implies a strictly
    smaller sum, so every dominator of a row precedes it — each block
    only needs checking against the skyline grown so far, plus a
    pairwise pass among the block's own sky-survivors (a row dominated
    only by a sky-dominated blockmate is sky-dominated too, by
    transitivity, so checking survivors suffices).

    Returns ``(mask, dominance_checks)`` where ``dominance_checks``
    counts evaluated candidate pairs; equality with
    :func:`repro.skyline.dominance.skyline_mask` is pinned by
    ``tests/test_sharded.py``.
    """
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    keep = np.zeros(n, dtype=bool)
    if n == 0:
        return keep, 0
    order = np.argsort(data.sum(axis=1), kind="stable")
    sky_blocks: List[np.ndarray] = []
    sky_size = 0
    checks = 0
    for start in range(0, n, block_size):
        indices = order[start:start + block_size]
        rows = data[indices]
        dominated = np.zeros(indices.size, dtype=bool)
        if sky_size:
            if len(sky_blocks) > 1:
                sky_blocks = [np.concatenate(sky_blocks)]
            sky = sky_blocks[0]
            # block[j, i] = sky[j] ≺ rows[i], in blocks of the skyline.
            for _, block in _dominance_blocks(sky, rows, block_size):
                dominated |= block.any(axis=0)
            checks += indices.size * sky_size
        survivors = indices[~dominated]
        if survivors.size > 1:
            checks += survivors.size * survivors.size
            survivors = survivors[skyline_mask(data[survivors])]
        keep[survivors] = True
        if survivors.size:
            sky_blocks.append(data[survivors])
            sky_size += survivors.size
    return keep, checks


# ---------------------------------------------------------------------------
# Pool worker (module-level so ProcessPoolExecutor can pickle it)
# ---------------------------------------------------------------------------


def _local_skyline_cell(rows: np.ndarray) -> Tuple[np.ndarray, int]:
    """Worker: local skyline of one shard's rows."""
    return local_skyline_mask(rows)


# ---------------------------------------------------------------------------
# Sharded skyline (local skylines + communication-aware merge)
# ---------------------------------------------------------------------------


@dataclass
class ShardStats:
    """Communication/work accounting for one sharded computation."""

    shards: int
    partitioner: str
    shard_sizes: List[int] = field(default_factory=list)
    #: Local-skyline sizes — exactly what each shard ships to the merge.
    local_skyline_sizes: List[int] = field(default_factory=list)
    #: Candidate tuples transferred from shards to the coordinator.
    tuples_shipped: int = 0
    #: Candidate pairs evaluated inside shards (map stage).
    local_checks: int = 0
    #: Candidate pairs evaluated by the coordinator (merge stage).
    merge_checks: int = 0
    skyline_size: int = 0

    @property
    def dominance_checks(self) -> int:
        """Total pairs evaluated across map and merge stages."""
        return self.local_checks + self.merge_checks


def sharded_skyline_mask(
    data: np.ndarray,
    shards: int,
    partitioner: str = "range",
    jobs: int = 1,
    seed: int = 0,
    plan: Optional[ShardPlan] = None,
) -> Tuple[np.ndarray, ShardStats]:
    """Global skyline mask via per-shard local skylines plus a merge.

    The merge is communication-cost-aware: each shard prunes its own
    dominated tuples *before* transfer, so only local-skyline survivors
    (``stats.tuples_shipped`` of them, tracked per run) reach the
    coordinator, which then computes the skyline of the concatenated
    candidates. Correct for any partition: a global skyline tuple is
    undominated within its shard, so it always survives the map stage;
    a shipped non-skyline candidate is dominated by some tuple whose
    own shard-local dominator chain ends in a shipped survivor, so the
    merge removes it (transitivity).

    ``jobs > 1`` fans the map stage over a ``ProcessPoolExecutor``;
    results are aggregated in plan order, so the output is identical
    for every job count.
    """
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    if plan is None:
        plan = make_plan(n, shards, partitioner, seed)
    elif plan.n != n:
        raise CrowdSkyError(
            f"shard plan was built for n={plan.n}, data has n={n}"
        )
    stats = ShardStats(
        shards=plan.shards,
        partitioner=plan.partitioner,
        shard_sizes=plan.sizes(),
    )
    observation = current_observation()
    spans = observation.tracer if observation.enabled else NOOP_TRACER

    with spans.span(
        "shard.map", shards=plan.shards, partitioner=plan.partitioner,
        jobs=jobs, n=n,
    ):
        shard_rows = [data[part] for part in plan.parts]
        if jobs > 1 and sum(1 for rows in shard_rows if rows.size) > 1:
            workers = min(jobs, len(shard_rows))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [
                    pool.submit(_local_skyline_cell, rows)
                    for rows in shard_rows
                ]
                local = [future.result() for future in futures]
        else:
            local = [_local_skyline_cell(rows) for rows in shard_rows]
        candidates: List[np.ndarray] = []
        for part, (mask, checks) in zip(plan.parts, local):
            survivors = part[mask]
            candidates.append(survivors)
            stats.local_skyline_sizes.append(int(survivors.size))
            stats.local_checks += checks

    with spans.span("shard.merge", shards=plan.shards):
        shipped = np.concatenate(candidates) if candidates else (
            np.zeros(0, dtype=np.int64)
        )
        stats.tuples_shipped = int(shipped.size)
        merged_mask, merge_checks = local_skyline_mask(data[shipped])
        stats.merge_checks = merge_checks
        keep = np.zeros(n, dtype=bool)
        keep[shipped[merged_mask]] = True
        stats.skyline_size = int(np.count_nonzero(keep))

    if observation.enabled:
        observation.tracer.event(
            "shard.stats",
            shipped=stats.tuples_shipped,
            local_checks=stats.local_checks,
            merge_checks=stats.merge_checks,
        )
    return keep, stats
