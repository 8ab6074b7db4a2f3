"""Ablation benchmarks for design choices called out in DESIGN.md.

* Probe ordering: descending ``freq`` (the §3.4 prose, our default) vs
  ascending (Algorithm 1 line 11's literal wording).
* Round-robin multi-``AC`` questioning (mentioned but unapplied in §6.1).
* First-answer-wins contradiction bookkeeping under a noisy crowd.
"""

import numpy as np

from repro.core.crowdsky import CrowdSkyConfig, crowdsky
from repro.crowd.platform import SimulatedCrowd
from repro.crowd.voting import StaticVoting
from repro.crowd.workers import WorkerPool
from repro.data.synthetic import Distribution, generate_synthetic
from repro.data.toy import figure1_dataset


def _question_total(config, seeds, n=150, num_known=2, num_crowd=1,
                    distribution=Distribution.ANTI_CORRELATED):
    total = 0
    for seed in seeds:
        relation = generate_synthetic(
            n, num_known, num_crowd, distribution, seed=seed
        )
        total += crowdsky(relation, config=config).stats.questions
    return total


def test_probe_order_descending_vs_ascending(benchmark):
    """Descending-frequency probing should not lose to ascending, and on
    the toy dataset it reproduces the paper's 12-question trace."""

    def run():
        seeds = range(4)
        descending = _question_total(CrowdSkyConfig(), seeds)
        ascending = _question_total(
            CrowdSkyConfig(probe_ascending=True), seeds
        )
        return descending, ascending

    descending, ascending = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nprobe order: descending={descending} ascending={ascending}")
    benchmark.extra_info["descending"] = descending
    benchmark.extra_info["ascending"] = ascending
    assert descending <= ascending * 1.1
    assert crowdsky(figure1_dataset()).stats.questions == 12


def test_ac_round_robin_saves_questions(benchmark):
    """With |AC| = 2, round-robin asking skips decided attributes."""

    def run():
        totals = {}
        for name, config in (
            ("batched", CrowdSkyConfig()),
            ("round_robin", CrowdSkyConfig(ac_round_robin=True)),
        ):
            totals[name] = _question_total(
                config,
                range(3),
                n=100,
                num_crowd=2,
                distribution=Distribution.INDEPENDENT,
            )
        return totals

    totals = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nround robin: {totals}")
    benchmark.extra_info.update(totals)
    assert totals["round_robin"] <= totals["batched"]


def test_multiway_probing_saves_probe_questions(benchmark):
    """§2.1's m-ary extension: k-ary probing resolves a dominating set
    with ⌈(d−1)/(k−1)⌉ micro-tasks instead of d−1 pairwise probes."""

    def run():
        totals = {}
        for k in (2, 4):
            totals[k] = _question_total(
                CrowdSkyConfig(multiway=k),
                range(4),
                n=200,
                num_known=2,
                distribution=Distribution.ANTI_CORRELATED,
            )
        return totals

    totals = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nmultiway probing questions: {totals}")
    benchmark.extra_info.update({str(k): v for k, v in totals.items()})
    assert totals[4] <= totals[2]


def test_contradiction_bookkeeping_under_noise(benchmark):
    """A noisy parallel run records (not silently drops) contradictions."""

    def run():
        rejected = 0
        for seed in range(5):
            relation = generate_synthetic(
                120, 2, 1, Distribution.ANTI_CORRELATED, seed=seed
            )
            crowd = SimulatedCrowd(
                relation,
                pool=WorkerPool.uniform(accuracy=0.7),
                voting=StaticVoting(1),
                seed=seed,
            )
            from repro.core.parallel import parallel_sl

            rejected += parallel_sl(relation, crowd=crowd).rejected_answers
        return rejected

    rejected = benchmark.pedantic(run, rounds=1, iterations=1)
    print(f"\nrejected contradictory answers: {rejected}")
    benchmark.extra_info["rejected"] = rejected
    assert rejected >= 0
