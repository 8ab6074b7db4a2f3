"""Regenerate ``tests/fixtures/golden_counts.json``.

Run via ``make regen-golden`` (or ``PYTHONPATH=src python -m
tests.regen_golden``) after an *intentional* behaviour change — e.g. a
new pruning rule that legitimately alters question counts. The golden
test (``tests/test_golden_counts.py``) fails on any drift in questions,
rounds, skylines, rejected answers, budget fields, the question log or
the cost records across a small seeded matrix of (dataset × scheduler ×
preference backend).

The matrix is deliberately tiny: it is a drift tripwire, not a
benchmark. Beside the default configuration with a perfect crowd it
holds :func:`extra_cases`: the budgeted scheduler, every pruning level,
m-ary probing, round-robin asking and noisy and fault-injecting crowds,
so a change to the scheduler loops cannot move any of them unseen.
Cross-backend agreement is additionally asserted at generation time, so
a broken backend cannot be baked into the fixture.
"""

from __future__ import annotations

import hashlib
import json
from math import ceil
from pathlib import Path
from typing import Dict, Tuple

from repro.core import (
    CrowdSkyConfig,
    PruningLevel,
    crowdsky,
    parallel_dset,
    parallel_sl,
)
from repro.core.crowdsky import crowdsky_budgeted
from repro.crowd.faults import FaultPlan
from repro.crowd.platform import QUESTIONS_PER_HIT, SimulatedCrowd
from repro.crowd.retry import RetryPolicy
from repro.crowd.workers import WorkerPool
from repro.data.synthetic import Distribution, generate_synthetic
from repro.data.toy import figure1_dataset

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "golden_counts.json"

BACKENDS = ("reference", "numpy")

SCHEDULERS = {
    "crowdsky": crowdsky,
    "parallel_dset": parallel_dset,
    "parallel_sl": parallel_sl,
}

BUDGETED = "crowdsky_budgeted"

#: Shard count pinned alongside the serial counts (``@shards4`` keys).
#: The hash partitioner is the interesting one — non-contiguous shards.
GOLDEN_SHARDS = 4


def _noisy_pool() -> WorkerPool:
    return WorkerPool.uniform(size=9, accuracy=0.75)


#: Crowd platforms of the golden cases, by name; each is seeded.
CROWDS = {
    "perfect": lambda relation: SimulatedCrowd(relation),
    "noisy": lambda relation: SimulatedCrowd(
        relation, pool=_noisy_pool(), seed=17
    ),
    "faulty": lambda relation: SimulatedCrowd(
        relation,
        pool=_noisy_pool(),
        seed=17,
        strict=False,
        faults=FaultPlan(
            abandonment_rate=0.2,
            hit_timeout_rate=0.15,
            transient_error_rate=0.15,
            spam_burst_rate=0.05,
            seed=18,
        ),
        retry=RetryPolicy(max_attempts=2, deadline_rounds=4),
    ),
}

#: One extra case: (dataset, scheduler, crowd, CrowdSkyConfig options).
Case = Tuple[str, str, str, Dict[str, object]]


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


def extra_cases() -> Dict[str, Case]:
    """The cases beyond the default configuration with a perfect crowd,
    keyed ``dataset/scheduler[label]``.

    A ``crowdsky_budgeted`` case spends half the questions of its
    ``crowdsky`` twin (the key with ``crowdsky`` in its place, which is
    in the matrix too), so its budget stop and its default-skyline
    finalization both run.
    """
    cases: Dict[str, Case] = {}

    def add(dataset, scheduler, crowd="perfect", label="", **options):
        suffix = f"[{label}]" if label else ""
        cases[f"{dataset}/{scheduler}{suffix}"] = (
            dataset, scheduler, crowd, options
        )

    for dataset in datasets():
        add(dataset, BUDGETED)
    for scheduler in (*SCHEDULERS, BUDGETED):
        for dataset in ("ind_n40", "ant_n36", "ind_ac2_n30"):
            for level in PruningLevel:
                if level is not PruningLevel.P1_P2_P3:
                    add(
                        dataset, scheduler, label=f"pruning={level.value}",
                        pruning=level,
                    )
        add("ant_n36", scheduler, label="multiway=3", multiway=3)
        for crowd in ("noisy", "faulty"):
            add("ind_ac2_n30", scheduler, crowd=crowd, label=f"crowd={crowd}")
    for scheduler in ("crowdsky", BUDGETED):
        add(
            "ind_ac2_n30", scheduler, label="round_robin",
            ac_round_robin=True,
        )
    return cases


def serial_twin(key: str) -> str:
    """The ``crowdsky`` case whose question count sets the budget of
    the ``crowdsky_budgeted`` case ``key``."""
    return key.replace(f"/{BUDGETED}", "/crowdsky", 1)


def _digest(rows) -> str:
    return hashlib.sha256(
        json.dumps(rows, sort_keys=True).encode()
    ).hexdigest()


def _log_rows(question_log):
    """(round, question with its orientation, answer) of every logged
    answer, in a JSON-able form."""
    return [
        [
            round_index,
            repr(question),
            answer.value if hasattr(answer, "value") else answer,
        ]
        for round_index, question, answer in question_log
    ]


def run_case(
    relation,
    scheduler_name: str,
    backend: str,
    shards: int = 1,
    crowd: str = "perfect",
    budget: int = 0,
    **options,
) -> dict:
    config = CrowdSkyConfig(
        backend=backend,
        shards=shards,
        shard_partitioner="hash" if shards > 1 else "range",
        **options,
    )
    platform = CROWDS[crowd](relation)
    if scheduler_name == BUDGETED:
        result = crowdsky_budgeted(relation, budget, platform, config=config)
    else:
        result = SCHEDULERS[scheduler_name](relation, platform, config=config)
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
        "budget_exhausted": result.budget_exhausted,
        "complete_tuples": result.complete_tuples,
        "degraded": result.degraded,
        "unresolved_pairs": len(result.unresolved_pairs),
        "question_log_sha256": _digest(_log_rows(result.question_log)),
        "cost_records_sha256": _digest(result.cost_records),
    }


def run_extra_case(relation, case: Case, backend: str, budget: int) -> dict:
    _, scheduler, crowd, options = case
    return run_case(
        relation, scheduler, backend, crowd=crowd, budget=budget, **options
    )


def _agreeing(key: str, per_backend: dict) -> dict:
    if any(
        per_backend[backend] != per_backend["reference"]
        for backend in BACKENDS
    ):
        raise SystemExit(
            f"backend drift while regenerating golden counts: "
            f"{key}: {per_backend}"
        )
    return per_backend


def build_golden() -> dict:
    golden: dict = {}
    relations = datasets()
    for dataset_name, relation in relations.items():
        for scheduler_name in SCHEDULERS:
            key = f"{dataset_name}/{scheduler_name}"
            per_backend = _agreeing(
                key,
                {
                    backend: run_case(relation, scheduler_name, backend)
                    for backend in BACKENDS
                },
            )
            golden[key] = per_backend
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
                    f"{key}: {sharded} != {per_backend}"
                )
            golden[f"{key}@shards{GOLDEN_SHARDS}"] = sharded
    # Budgeted cases last: their budgets come from their serial twins.
    cases = extra_cases()
    for key in sorted(cases, key=lambda key: BUDGETED in key):
        case = cases[key]
        budget = 0
        if case[1] == BUDGETED:
            budget = golden[serial_twin(key)]["reference"]["questions"] // 2
        golden[key] = _agreeing(
            key,
            {
                backend: run_extra_case(
                    relations[case[0]], case, backend, budget
                )
                for backend in BACKENDS
            },
        )
    return golden


def main() -> None:
    golden = build_golden()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN_PATH}")


if __name__ == "__main__":
    main()
