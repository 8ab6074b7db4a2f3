"""Regenerate ``tests/fixtures/golden_counts.json``.

Run via ``make regen-golden`` (or ``PYTHONPATH=src python -m
tests.regen_golden``) after an *intentional* behaviour change — e.g. a
new pruning rule that legitimately alters question counts. The golden
test (``tests/test_golden_counts.py``) fails on any drift in questions,
rounds, skylines or rejected answers across a small seeded matrix of
(dataset × scheduler × preference backend).

The matrix is deliberately tiny: it is a drift tripwire, not a
benchmark. Cross-backend agreement is additionally asserted at
generation time, so a broken backend cannot be baked into the fixture.
"""

from __future__ import annotations

import json
from math import ceil
from pathlib import Path

from repro.core import CrowdSkyConfig, crowdsky, parallel_dset, parallel_sl
from repro.crowd.platform import QUESTIONS_PER_HIT
from repro.data.synthetic import Distribution, generate_synthetic
from repro.data.toy import figure1_dataset

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "golden_counts.json"

BACKENDS = ("reference", "numpy")

SCHEDULERS = {
    "crowdsky": crowdsky,
    "parallel_dset": parallel_dset,
    "parallel_sl": parallel_sl,
}

#: Shard count pinned alongside the serial counts (``@shards4`` keys).
#: The hash partitioner is the interesting one — non-contiguous shards.
GOLDEN_SHARDS = 4


def datasets():
    """The golden dataset matrix — small, seeded, diverse."""
    return {
        "toy_fig1": figure1_dataset(),
        "ind_n40": generate_synthetic(
            40, 2, 1, Distribution.INDEPENDENT, seed=42
        ),
        "ant_n36": generate_synthetic(
            36, 2, 1, Distribution.ANTI_CORRELATED, seed=7
        ),
        "cor_n40": generate_synthetic(
            40, 2, 1, Distribution.CORRELATED, seed=3
        ),
        "ind_ac2_n30": generate_synthetic(
            30, 2, 2, Distribution.INDEPENDENT, seed=11
        ),
    }


def run_case(
    relation, scheduler_name: str, backend: str, shards: int = 1
) -> dict:
    result = SCHEDULERS[scheduler_name](
        relation,
        config=CrowdSkyConfig(
            backend=backend,
            shards=shards,
            shard_partitioner="hash" if shards > 1 else "range",
        ),
    )
    return {
        "questions": result.stats.questions,
        "rounds": result.stats.rounds,
        "hits": sum(
            ceil(size / QUESTIONS_PER_HIT)
            for size in result.stats.round_sizes
            if size
        ),
        "skyline": sorted(result.skyline),
        "rejected_answers": result.rejected_answers,
    }


def build_golden() -> dict:
    golden: dict = {}
    for dataset_name, relation in datasets().items():
        for scheduler_name in SCHEDULERS:
            per_backend = {
                backend: run_case(relation, scheduler_name, backend)
                for backend in BACKENDS
            }
            if any(
                per_backend[backend] != per_backend["reference"]
                for backend in BACKENDS
            ):
                raise SystemExit(
                    f"backend drift while regenerating golden counts: "
                    f"{dataset_name}/{scheduler_name}: {per_backend}"
                )
            golden[f"{dataset_name}/{scheduler_name}"] = per_backend
            # Sharded machine phase: pinned with its own keys, and
            # asserted equal to the serial counts at generation time so
            # shard divergence can never be baked into the fixture.
            sharded = {
                backend: run_case(
                    relation, scheduler_name, backend,
                    shards=GOLDEN_SHARDS,
                )
                for backend in BACKENDS
            }
            if sharded != per_backend:
                raise SystemExit(
                    f"sharded drift while regenerating golden counts: "
                    f"{dataset_name}/{scheduler_name}: {sharded} != "
                    f"{per_backend}"
                )
            golden[
                f"{dataset_name}/{scheduler_name}@shards{GOLDEN_SHARDS}"
            ] = sharded
    return golden


def main() -> None:
    golden = build_golden()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
