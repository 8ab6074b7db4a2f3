"""Tests for the HIT ledger (AMT-level bookkeeping)."""

import numpy as np
import pytest

from repro.core.baseline import baseline_skyline
from repro.core.crowdsky import CrowdSkyConfig
from repro.core.parallel import parallel_sl
from repro.crowd.hits import Hit, HitLedger, RoundRecord
from repro.crowd.platform import SimulatedCrowd
from repro.data.movies import movies_dataset
from repro.exceptions import CrowdPlatformError


class TestHitLedger:
    def test_parameters_validated(self):
        with pytest.raises(CrowdPlatformError):
            HitLedger(seconds_per_hit=0.0)
        with pytest.raises(CrowdPlatformError):
            HitLedger(questions_per_hit=0)
        with pytest.raises(CrowdPlatformError):
            HitLedger(rng=np.random.default_rng(0), seed=1)

    def test_packing_five_questions_per_hit(self):
        ledger = HitLedger(seed=0)
        ledger.record_round(1, 12)
        (record,) = ledger.rounds()
        assert [hit.num_questions for hit in record.hits] == [5, 5, 2]
        assert ledger.num_hits == 3

    def test_empty_round_ignored(self):
        ledger = HitLedger(seed=0)
        ledger.record_round(1, 0)
        assert ledger.num_hits == 0
        assert ledger.wall_clock_seconds() == 0.0

    def test_sampled_mean_near_configured(self):
        ledger = HitLedger(seconds_per_hit=49.0, seed=1)
        for round_number in range(1, 201):
            ledger.record_round(round_number, 5)
        assert abs(ledger.mean_hit_duration() - 49.0) < 5.0

    def test_makespan_is_slowest_hit(self):
        record = RoundRecord(
            1,
            hits=[
                Hit(0, 1, 5, 10.0),
                Hit(1, 1, 5, 30.0),
                Hit(2, 1, 2, 20.0),
            ],
        )
        assert record.makespan == 30.0

    def test_wall_clock_sums_round_makespans(self):
        ledger = HitLedger(seconds_per_hit=10.0, round_overhead=5.0, seed=2)
        ledger.record_round(1, 3)
        ledger.record_round(2, 3)
        records = ledger.rounds()
        expected = sum(r.makespan + 5.0 for r in records)
        assert ledger.wall_clock_seconds() == pytest.approx(expected)

    def test_seed_reproducibility(self):
        a, b = HitLedger(seed=7), HitLedger(seed=7)
        a.record_round(1, 10)
        b.record_round(1, 10)
        assert a.wall_clock_seconds() == b.wall_clock_seconds()


class TestPlatformIntegration:
    def test_ledger_tracks_every_round(self):
        # multiway=3 merges m-ary postings into their pairwise round
        # (2 on this relation); the ledger packs each round's HITs
        # together, as the cost prices them.
        for config in (None, CrowdSkyConfig(multiway=3)):
            relation = movies_dataset()
            ledger = HitLedger(seconds_per_hit=49.0, seed=1)
            crowd = SimulatedCrowd(relation, ledger=ledger)
            result = parallel_sl(relation, crowd=crowd, config=config)
            assert len(ledger.rounds()) == result.stats.rounds
            total_questions = sum(
                hit.num_questions
                for record in ledger.rounds()
                for hit in record.hits
            )
            assert total_questions == result.stats.questions
            assert ledger.num_hits == result.cost_breakdown()["hits"]

    def test_parallel_wall_clock_dwarfs_baseline(self):
        """§6.2's practical story: minutes instead of hours on Q2."""
        relation = movies_dataset()
        fast_ledger = HitLedger(seconds_per_hit=49.0, seed=2)
        parallel_sl(
            relation, crowd=SimulatedCrowd(relation, ledger=fast_ledger)
        )
        relation = movies_dataset()
        slow_ledger = HitLedger(seconds_per_hit=49.0, seed=2)
        baseline_skyline(
            relation, crowd=SimulatedCrowd(relation, ledger=slow_ledger)
        )
        assert fast_ledger.wall_clock_seconds() < (
            slow_ledger.wall_clock_seconds() / 5
        )
