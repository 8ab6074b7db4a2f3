"""Accuracy experiments for Figures 10-11 (paper §6.1).

All runs use noisy Bernoulli workers (``p = 0.8``) with ``ω = 5`` and
average precision/recall over several seeded runs, exactly mirroring the
paper's setup:

* Figure 10 — StaticVoting vs DynamicVoting inside CrowdSky.
* Figure 11 — Baseline (noisy tournament sort), Unary (the [12]
  simulation) and CrowdSky with dynamic voting.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.core.baseline import baseline_skyline
from repro.core.crowdsky import crowdsky
from repro.core.result import CrowdSkylineResult
from repro.core.unary import unary_skyline
from repro.crowd.platform import SimulatedCrowd
from repro.crowd.voting import (
    DEFAULT_OMEGA,
    DynamicVoting,
    StaticVoting,
    VotingPolicy,
)
from repro.crowd.workers import WorkerPool
from repro.data.relation import Relation
from repro.data.synthetic import Distribution, generate_synthetic
from repro.experiments.sweep import Cell, CacheLike, run_cells
from repro.metrics.accuracy import precision_recall
from repro.skyline.dominating import FrequencyOracle
from repro.skyline.dominance import dominance_matrix

#: The paper's Figure 10/11 grid.
PAPER_ACCURACY_CARDINALITIES = (200, 400, 600, 800, 1000)
CI_ACCURACY_CARDINALITIES = (100, 200, 300)
SMOKE_ACCURACY_CARDINALITIES = (60,)

DEFAULT_WORKER_ACCURACY = 0.8


def _noisy_crowd(
    relation: Relation,
    voting: VotingPolicy,
    seed: int,
    accuracy: float = DEFAULT_WORKER_ACCURACY,
) -> SimulatedCrowd:
    pool = WorkerPool.uniform(accuracy=accuracy)
    return SimulatedCrowd(relation, pool=pool, voting=voting, seed=seed)


def _dynamic_voting(relation: Relation, omega: int = DEFAULT_OMEGA) -> DynamicVoting:
    frequency = FrequencyOracle(dominance_matrix(relation.known_matrix()))
    return DynamicVoting.from_frequency(frequency, omega=omega)


def run_with_voting(
    relation: Relation,
    voting: VotingPolicy,
    seed: int,
) -> CrowdSkylineResult:
    """CrowdSky under a noisy crowd with the given voting policy."""
    crowd = _noisy_crowd(relation, voting, seed)
    return crowdsky(relation, crowd=crowd)


def voting_cell(config: Dict[str, object], seed: int) -> Dict[str, float]:
    """Sweep-cell runner for Figure 10 (one dataset, both policies)."""
    n = int(config["n"])
    num_known = int(config["num_known"])
    num_crowd = int(config["num_crowd"])
    distribution = Distribution(config["distribution"])
    omega = int(config["omega"])
    scores: Dict[str, float] = {}

    relation = generate_synthetic(
        n, num_known, num_crowd, distribution, seed=seed
    )
    static = run_with_voting(relation, StaticVoting(omega), seed)
    report = precision_recall(static.skyline, relation)
    scores["StaticVoting precision"] = report.precision
    scores["StaticVoting recall"] = report.recall

    relation = generate_synthetic(
        n, num_known, num_crowd, distribution, seed=seed
    )
    dynamic = run_with_voting(
        relation, _dynamic_voting(relation, omega), seed
    )
    report = precision_recall(dynamic.skyline, relation)
    scores["DynamicVoting precision"] = report.precision
    scores["DynamicVoting recall"] = report.recall
    return scores


def method_cell(config: Dict[str, object], seed: int) -> Dict[str, float]:
    """Sweep-cell runner for Figure 11 (one dataset, all methods)."""
    n = int(config["n"])
    num_known = int(config["num_known"])
    num_crowd = int(config["num_crowd"])
    distribution = Distribution(config["distribution"])
    omega = int(config["omega"])
    scores: Dict[str, float] = {}
    for name, runner in _methods(omega):
        relation = generate_synthetic(
            n, num_known, num_crowd, distribution, seed=seed
        )
        result = runner(relation, seed)
        report = precision_recall(result.skyline, relation)
        scores[f"{name} precision"] = report.precision
        scores[f"{name} recall"] = report.recall
    return scores


VOTING_RUNNER = "repro.experiments.accuracy_runs:voting_cell"
METHOD_RUNNER = "repro.experiments.accuracy_runs:method_cell"


def _accuracy_sweep(
    runner: str,
    series: Sequence[str],
    cardinalities: Sequence[int],
    num_known: int,
    num_crowd: int,
    distribution: Distribution,
    num_seeds: int,
    base_seed: int,
    omega: int,
    jobs: int,
    cache: CacheLike,
) -> List[Dict[str, object]]:
    label = runner.rsplit(":", 1)[-1]
    seeds = range(base_seed, base_seed + num_seeds)
    plan = [
        (
            n,
            [
                Cell.make(
                    label,
                    runner,
                    {
                        "n": n,
                        "num_known": num_known,
                        "num_crowd": num_crowd,
                        "distribution": distribution.value,
                        "omega": omega,
                    },
                    seed,
                )
                for seed in seeds
            ],
        )
        for n in cardinalities
    ]
    results = run_cells(
        [cell for _, cells in plan for cell in cells],
        jobs=jobs, cache=cache,
    )
    rows: List[Dict[str, object]] = []
    for n, cells in plan:  # seed order inside each n is plan order
        samples = [results[cell] for cell in cells]
        row: Dict[str, object] = {"n": n}
        row.update(
            {
                name: float(np.mean([sample[name] for sample in samples]))
                for name in series
            }
        )
        rows.append(row)
    return rows


def voting_accuracy(
    cardinalities: Sequence[int] = CI_ACCURACY_CARDINALITIES,
    num_known: int = 4,
    num_crowd: int = 1,
    distribution: Distribution = Distribution.INDEPENDENT,
    num_seeds: int = 5,
    base_seed: int = 0,
    omega: int = DEFAULT_OMEGA,
    jobs: int = 1,
    cache: CacheLike = None,
) -> List[Dict[str, object]]:
    """Figure 10: precision/recall of Static vs Dynamic voting."""
    return _accuracy_sweep(
        VOTING_RUNNER,
        (
            "StaticVoting precision",
            "StaticVoting recall",
            "DynamicVoting precision",
            "DynamicVoting recall",
        ),
        cardinalities, num_known, num_crowd, distribution,
        num_seeds, base_seed, omega, jobs, cache,
    )


def method_accuracy(
    cardinalities: Sequence[int] = CI_ACCURACY_CARDINALITIES,
    num_known: int = 4,
    num_crowd: int = 1,
    distribution: Distribution = Distribution.INDEPENDENT,
    num_seeds: int = 5,
    base_seed: int = 0,
    omega: int = DEFAULT_OMEGA,
    jobs: int = 1,
    cache: CacheLike = None,
) -> List[Dict[str, object]]:
    """Figure 11: precision/recall of Baseline vs Unary vs CrowdSky.

    The comparison is budget-normalized, matching the paper's setup:
    the Baseline spends its worker budget across ``Θ(n log n)``
    tournament comparisons (one worker each — roughly the same total
    assignments as CrowdSky's few hundred questions at ``ω ≈ 5``); the
    Unary simulation of [12] draws a single normal-noise estimate per
    tuple (the paper's "randomly select a value from the normal
    distribution of the actual value"); CrowdSky runs with dynamic
    majority voting, as stated in §6.1.
    """
    return _accuracy_sweep(
        METHOD_RUNNER,
        (
            "Baseline precision",
            "Baseline recall",
            "Unary precision",
            "Unary recall",
            "CrowdSky precision",
            "CrowdSky recall",
        ),
        cardinalities, num_known, num_crowd, distribution,
        num_seeds, base_seed, omega, jobs, cache,
    )


def _methods(omega: int) -> Sequence:
    """The Figure 11 contenders, budget-normalized (see above)."""
    return (
        (
            "Baseline",
            lambda relation, seed: baseline_skyline(
                relation,
                crowd=_noisy_crowd(relation, StaticVoting(1), seed),
            ),
        ),
        (
            "Unary",
            lambda relation, seed: unary_skyline(
                relation,
                crowd=_noisy_crowd(relation, StaticVoting(omega), seed),
                omega=1,
            ),
        ),
        (
            "CrowdSky",
            lambda relation, seed: crowdsky(
                relation,
                crowd=_noisy_crowd(
                    relation, _dynamic_voting(relation, omega), seed
                ),
            ),
        ),
    )
