"""Regenerate ``tests/fixtures/golden_counts.json``.

Run via ``make regen-golden`` (or ``PYTHONPATH=src python -m
tests.regen_golden``) after an *intentional* behaviour change — e.g. a
new pruning rule that legitimately alters question counts. The golden
test (``tests/test_golden_counts.py``) fails on any drift in questions,
rounds, skylines, rejected answers, budget fields, the question log or
the cost records across a small seeded matrix of (dataset × scheduler ×
closure graph); the reference graph runs through
:func:`tests.closure_graphs.closure_graph`.

The matrix is deliberately tiny: it is a drift tripwire, not a
benchmark. Beside the default configuration with a perfect crowd it
holds :func:`extra_cases`: the budgeted scheduler, every pruning level,
m-ary probing, round-robin asking, noisy and fault-injecting crowds and
runs with every second tuple's crowd values visible, so a change to the
scheduler loops cannot move any of them unseen.
Cross-graph agreement is additionally asserted at generation time, so
a broken graph cannot be baked into the fixture.

The same run writes ``tests/fixtures/posting_digests.json``
(``tests/test_posting_digests.py``): per :data:`POSTING_SCENARIOS` run,
a digest of everything the crowd layer reports about its postings —
the normalised trace, the observation's metrics, ``CrowdStats``, the
cost records, the question log, ``summary()``, ``round_table()``,
``cost_breakdown()`` and, where one is attached, the HIT ledger. Each
scenario is recorded twice and the regeneration aborts if the two
recordings differ.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import re
import tempfile
from math import ceil
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

from repro.core import (
    CrowdSkyConfig,
    PruningLevel,
    baseline_skyline,
    crowdsky,
    parallel_dset,
    parallel_sl,
    unary_skyline,
)
from repro.core.crowdsky import crowdsky_budgeted
from repro.core.resume import replay_run
from repro.core.result import CrowdSkylineResult
from repro.crowd.faults import FaultPlan
from repro.crowd.hits import HitLedger
from repro.crowd.platform import QUESTIONS_PER_HIT, SimulatedCrowd
from repro.crowd.retry import RetryPolicy
from repro.crowd.voting import StaticVoting
from repro.crowd.workers import WorkerPool
from repro.data.synthetic import Distribution, generate_synthetic
from repro.data.toy import figure1_dataset
from repro.obs import observe
from tests.closure_graphs import closure_graph

GOLDEN_PATH = Path(__file__).parent / "fixtures" / "golden_counts.json"
POSTING_DIGESTS_PATH = (
    Path(__file__).parent / "fixtures" / "posting_digests.json"
)

#: The closure graphs each golden case runs on, by name.
BACKENDS = ("reference", "numpy")

SCHEDULERS = {
    "crowdsky": crowdsky,
    "parallel_dset": parallel_dset,
    "parallel_sl": parallel_sl,
}

BUDGETED = "crowdsky_budgeted"


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
    # Visible tuples are seeded into the closure, so a ParallelSL task
    # activated mid-pass can decide on its first advance and ready its
    # waiters in the same pass.
    for scheduler in SCHEDULERS:
        for dataset in ("ant_n36", "ind_ac2_n30"):
            add(dataset, scheduler, label="visible=half", visible=True)
            add(
                dataset, scheduler, crowd="noisy",
                label="visible=half,crowd=noisy", visible=True,
            )
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
    crowd: str = "perfect",
    budget: int = 0,
    visible: bool = False,
    **options,
) -> dict:
    """One golden case on the closure graph ``backend``. ``visible``
    makes every second tuple's crowd values visible (``visible_crowd``
    of the unbudgeted schedulers); ``options`` are the config's."""
    config = CrowdSkyConfig(**options)
    platform = CROWDS[crowd](relation)
    with closure_graph(backend):
        if scheduler_name == BUDGETED:
            result = crowdsky_budgeted(
                relation, budget, platform, config=config
            )
        else:
            result = SCHEDULERS[scheduler_name](
                relation, platform, config=config,
                visible_crowd=(
                    range(0, len(relation), 2) if visible else None
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
            f"closure graph drift while regenerating golden counts: "
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


# ---------------------------------------------------------------------------
# Posting-path digests
# ---------------------------------------------------------------------------

MULTIWAY = CrowdSkyConfig(multiway=3)

#: A scenario runs one algorithm under an active observation and
#: returns its result and the crowd's HIT ledger (or None). It gets a
#: scratch directory for journals.
Scenario = Callable[[Path], Tuple[CrowdSkylineResult, Optional[HitLedger]]]


def _ind_ac2():
    return generate_synthetic(30, 2, 2, Distribution.INDEPENDENT, seed=11)


def _ant():
    return generate_synthetic(36, 2, 1, Distribution.ANTI_CORRELATED, seed=7)


def _noisy_crowd(relation, **options) -> SimulatedCrowd:
    """Uniform 0.8-accurate workers, five votes per question."""
    return SimulatedCrowd(
        relation,
        pool=WorkerPool.uniform(size=9, accuracy=0.8),
        voting=StaticVoting(5),
        seed=17,
        **options,
    )


#: Retry policies of the faulty scenarios: the first gives up when a
#: question's attempts run out, the second when its deadline passes.
RETRY_ATTEMPTS = RetryPolicy(max_attempts=2, deadline_rounds=4)
RETRY_DEADLINE = RetryPolicy(max_attempts=3, deadline_rounds=4)


def _faulty_crowd(
    relation, retry: Optional[RetryPolicy], abandonment_rate=0.2, **options
) -> SimulatedCrowd:
    return _noisy_crowd(
        relation,
        strict=False,
        faults=FaultPlan(
            abandonment_rate=abandonment_rate,
            hit_timeout_rate=0.15,
            transient_error_rate=0.15,
            spam_burst_rate=0.05,
            seed=18,
        ),
        retry=retry,
        **options,
    )


def _serial(crowd_factory, config=None, relation_factory=_ind_ac2):
    def scenario(_scratch):
        relation = relation_factory()
        return crowdsky(relation, crowd_factory(relation), config=config), None
    return scenario


def _faulty_serial_with_ledger(_scratch):
    relation = _ind_ac2()
    ledger = HitLedger(seed=19)
    crowd = _faulty_crowd(relation, RETRY_DEADLINE, ledger=ledger)
    return crowdsky(relation, crowd), ledger


def _budgeted(strict: bool, config=None, relation_factory=_ind_ac2):
    def scenario(_scratch):
        relation = relation_factory()
        crowd = SimulatedCrowd(relation, strict=strict)
        return crowdsky_budgeted(relation, 25, crowd, config=config), None
    return scenario


def _faulty_dset(_scratch):
    relation = _ind_ac2()
    crowd = _faulty_crowd(relation, RETRY_ATTEMPTS)
    return parallel_dset(relation, crowd), None


def _journaled_dset(scratch):
    relation = _ind_ac2()
    crowd = _faulty_crowd(
        relation, RETRY_ATTEMPTS, journal=scratch / "journal"
    )
    try:
        return parallel_dset(relation, crowd), None
    finally:
        crowd.journal.close()


def _replayed_dset(scratch):
    # The recorded run gets an observation of its own, so only the
    # replay lands in the digested trace and metrics.
    with observe():
        _journaled_dset(scratch)
    return replay_run(scratch / "journal", _ind_ac2()), None


def _noisy_sl(_scratch):
    relation = _ant()
    return parallel_sl(relation, _noisy_crowd(relation)), None


def _multiway_sl_with_ledger(_scratch):
    relation = _ant()
    ledger = HitLedger(seed=19)
    crowd = _noisy_crowd(relation, ledger=ledger)
    return parallel_sl(relation, crowd, config=MULTIWAY), ledger


def _unary(_scratch):
    relation = _ind_ac2()
    return unary_skyline(relation, _noisy_crowd(relation)), None


def _baseline(_scratch):
    relation = _ind_ac2()
    return baseline_skyline(relation, _noisy_crowd(relation)), None


#: The posting-path scenarios, by name: every posting format (pairwise,
#: m-ary merged and not, unary), every fault kind and way of giving up
#: on a question, the budget in both modes and on m-ary questions, the
#: journal and its replay.
POSTING_SCENARIOS: Dict[str, Scenario] = {
    "crowdsky[perfect]": _serial(SimulatedCrowd),
    "crowdsky[noisy]": _serial(_noisy_crowd),
    "crowdsky[faulty,retry,ledger]": _faulty_serial_with_ledger,
    "crowdsky[faulty,no_retry]": _serial(
        lambda relation: _faulty_crowd(relation, None, abandonment_rate=0.6)
    ),
    "crowdsky_budgeted[strict]": _budgeted(strict=True),
    "crowdsky_budgeted[non_strict]": _budgeted(strict=False),
    "crowdsky_budgeted[non_strict,multiway=3]": _budgeted(
        strict=False, config=MULTIWAY, relation_factory=_ant
    ),
    "crowdsky[round_robin]": _serial(
        SimulatedCrowd, CrowdSkyConfig(ac_round_robin=True)
    ),
    "crowdsky[multiway=3,noisy]": _serial(
        _noisy_crowd, MULTIWAY, relation_factory=_ant
    ),
    "parallel_dset[faulty]": _faulty_dset,
    "parallel_dset[faulty,journaled]": _journaled_dset,
    "parallel_dset[replayed]": _replayed_dset,
    "parallel_sl[noisy]": _noisy_sl,
    "parallel_sl[multiway=3,ledger]": _multiway_sl_with_ledger,
    "unary_skyline[noisy]": _unary,
    "baseline_skyline[noisy]": _baseline,
}


def _ledger_rows(ledger: HitLedger):
    return {
        "hits": [
            [hit.hit_id, hit.round_number, hit.num_questions,
             hit.duration_seconds]
            for record in ledger.rounds()
            for hit in record.hits
        ],
        "backoff_rounds": ledger.backoff_rounds,
    }


def normalised_trace(events):
    """A trace without its ``ts`` and ``cpu`` clock stamps: the part
    of it that a seeded run repeats."""
    return [
        {
            key: value
            for key, value in event.items()
            if key not in ("ts", "cpu")
        }
        for event in events
    ]


def record_posting(name: str) -> Dict[str, str]:
    """Run one posting scenario under a fresh observation and digest
    each of its reported outputs separately (so a drift names the
    output that moved)."""
    with tempfile.TemporaryDirectory() as scratch:
        with observe() as observation:
            result, ledger = POSTING_SCENARIOS[name](Path(scratch))
    outputs = {
        "trace": normalised_trace(observation.tracer.events),
        "metrics": {
            series: value
            for series, value in observation.metrics.snapshot().items()
            if "_seconds" not in series
        },
        "stats": dataclasses.asdict(result.stats),
        "cost_records": result.cost_records,
        "question_log": _log_rows(result.question_log),
        "summary": re.sub(r" wall=\S+", "", result.summary()),
        "round_table": result.round_table(),
        "cost_breakdown": result.cost_breakdown(),
    }
    if ledger is not None:
        outputs["ledger"] = _ledger_rows(ledger)
    return {output: _digest(value) for output, value in outputs.items()}


def build_posting_digests() -> dict:
    digests = {}
    for name in POSTING_SCENARIOS:
        first, second = record_posting(name), record_posting(name)
        if first != second:
            raise SystemExit(
                f"posting digests differ between two recordings of "
                f"{name}: {first} != {second}"
            )
        digests[name] = first
    return digests


def main() -> None:
    golden = build_golden()
    GOLDEN_PATH.write_text(json.dumps(golden, indent=2) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN_PATH}")
    digests = build_posting_digests()
    POSTING_DIGESTS_PATH.write_text(json.dumps(digests, indent=2) + "\n")
    print(f"wrote {len(digests)} scenarios to {POSTING_DIGESTS_PATH}")


if __name__ == "__main__":
    main()
