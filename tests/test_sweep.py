"""Sweep engine suite: parallel/serial equivalence, the result cache,
cross-process obs merging, and the mixed-batch single-round fix.

Run via ``make test-sweep`` (marker: ``sweep``).
"""

import json

import pytest

from repro.core.engine import ask_batch, build_context
from repro.core.tasks import MultiwayRequest, PairRequest
from repro.crowd.platform import SimulatedCrowd
from repro.questions import MultiwayQuestion
from repro.experiments.registry import available_experiments, run_experiment
from repro.experiments.sweep import (
    CACHE_VERSION,
    Cell,
    SweepCache,
    code_fingerprint,
    resolve_cache,
    resolve_jobs,
    run_cells,
)
from repro.obs import (
    Tracer,
    observe,
    parse_prometheus_text,
    profile_spans,
    read_trace_jsonl,
)
from repro.obs.metrics import PHASE_SECONDS, SWEEP_CELLS
from repro.obs.schema import check_metrics_consistency, validate_events
from tests.conftest import make_relation

pytestmark = pytest.mark.sweep

#: Cheap cell runner for cache/engine tests (resolvable by workers).
ECHO = "tests.test_sweep:echo_cell"


def echo_cell(config, seed):
    return {"value": int(config["x"]) * 10 + seed}


class TestParallelSerialEquivalence:
    """The headline guarantee: ``--jobs N`` never changes the rows."""

    @pytest.mark.parametrize("experiment_id", available_experiments())
    def test_parallel_rows_match_serial(self, experiment_id):
        serial = run_experiment(experiment_id, scale="smoke", jobs=1)
        parallel = run_experiment(experiment_id, scale="smoke", jobs=4)
        assert parallel.rows == serial.rows
        assert list(parallel.columns) == list(serial.columns)

    def test_cached_rows_match_fresh(self, tmp_path):
        cache = SweepCache(tmp_path)
        fresh = run_experiment("fig6a", scale="smoke", cache=cache)
        assert cache.stats.stored > 0
        warm = run_experiment("fig6a", scale="smoke", cache=cache)
        assert cache.stats.hits == cache.stats.stored
        assert warm.rows == fresh.rows


class TestCell:
    def test_config_roundtrip_and_run(self):
        cell = Cell.make("t", ECHO, {"x": 3, "a": 1}, 7)
        assert cell.config_dict() == {"x": 3, "a": 1}
        assert cell.run() == {"value": 37}

    def test_malformed_runner_rejected(self):
        from repro.exceptions import ExperimentError

        with pytest.raises(ExperimentError):
            Cell.make("t", "no-colon", {}, 0).resolve_runner()
        with pytest.raises(ExperimentError):
            Cell.make("t", "tests.test_sweep:missing", {}, 0).run()


class TestSweepCache:
    def test_miss_then_hit(self, tmp_path):
        cache = SweepCache(tmp_path)
        cell = Cell.make("t", ECHO, {"x": 1}, 0)
        hit, _ = cache.get(cell)
        assert not hit
        cache.put(cell, {"value": 10})
        hit, payload = cache.get(cell)
        assert hit and payload == {"value": 10}
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stored == 1

    def test_key_is_content_addressed(self, tmp_path):
        cache = SweepCache(tmp_path)
        base = Cell.make("fig6a", ECHO, {"x": 1}, 0)
        # The experiment id labels traces only — cells shared between
        # experiments share entries.
        assert cache.key(base) == cache.key(
            Cell.make("fig6b", ECHO, {"x": 1}, 0)
        )
        assert cache.key(base) != cache.key(
            Cell.make("fig6a", ECHO, {"x": 2}, 0)
        )
        assert cache.key(base) != cache.key(
            Cell.make("fig6a", ECHO, {"x": 1}, 1)
        )
        assert cache.key(base) != cache.key(
            Cell.make("fig6a", "tests.test_sweep:other", {"x": 1}, 0)
        )

    def test_fingerprint_invalidates(self, tmp_path):
        cell = Cell.make("t", ECHO, {"x": 1}, 0)
        old = SweepCache(tmp_path, fingerprint="old-code")
        old.put(cell, {"value": 10})
        new = SweepCache(tmp_path, fingerprint="new-code")
        hit, _ = new.get(cell)
        assert not hit  # a source edit must never serve stale cells

    def test_corrupted_entry_recovers(self, tmp_path):
        cache = SweepCache(tmp_path)
        cell = Cell.make("t", ECHO, {"x": 2}, 1)
        cache.put(cell, {"value": 21})
        cache.entry_path(cell).write_text("{corrupt json")
        hit, _ = cache.get(cell)
        assert not hit
        assert cache.stats.corrupt == 1
        assert not cache.entry_path(cell).exists()  # healed
        results = run_cells([cell], cache=cache)
        assert results[cell] == {"value": 21}
        hit, payload = cache.get(cell)
        assert hit and payload == {"value": 21}

    def test_version_mismatch_treated_as_corrupt(self, tmp_path):
        cache = SweepCache(tmp_path)
        cell = Cell.make("t", ECHO, {"x": 5}, 0)
        cache.put(cell, {"value": 50})
        path = cache.entry_path(cell)
        entry = json.loads(path.read_text())
        entry["version"] = CACHE_VERSION + 1
        path.write_text(json.dumps(entry))
        hit, _ = cache.get(cell)
        assert not hit
        assert cache.stats.corrupt == 1

    def test_code_fingerprint_stable(self):
        assert code_fingerprint() == code_fingerprint()
        assert len(code_fingerprint()) == 64

    def test_resolvers(self, tmp_path):
        assert resolve_cache(None) is None
        assert resolve_cache(False) is None
        assert resolve_cache(True).directory.name == "sweeps"
        assert resolve_cache(tmp_path).directory == tmp_path
        cache = SweepCache(tmp_path)
        assert resolve_cache(cache) is cache
        assert resolve_jobs(1) == 1
        assert resolve_jobs(None) >= 1
        assert resolve_jobs(0) >= 1
        assert resolve_jobs(-3) == 1


class TestRunCells:
    def test_duplicate_cells_execute_once(self, tmp_path):
        cache = SweepCache(tmp_path)
        cell = Cell.make("t", ECHO, {"x": 1}, 0)
        results = run_cells([cell, cell, cell], cache=cache)
        assert results == {cell: {"value": 10}}
        assert cache.stats.stored == 1

    def test_parallel_matches_serial(self):
        cells = [Cell.make("t", ECHO, {"x": x}, s)
                 for x in (1, 2) for s in (0, 1)]
        assert run_cells(cells, jobs=4) == run_cells(cells, jobs=1)

    def test_cache_serves_across_calls(self, tmp_path):
        cache = SweepCache(tmp_path)
        cell = Cell.make("t", ECHO, {"x": 9}, 3)
        first = run_cells([cell], cache=cache)
        second = run_cells([cell], jobs=4, cache=cache)
        assert first == second
        assert cache.stats.hits == 1


class TestObsMerging:
    def test_parallel_trace_and_metrics_consistent(self):
        with observe() as o:
            run_experiment("fig6a", scale="smoke", jobs=2)
        assert validate_events(o.tracer.events) == []
        assert check_metrics_consistency(
            o.tracer.events, o.metrics.snapshot()
        ) == []
        assert o.metrics.value(SWEEP_CELLS, status="computed") == 4

    def test_parallel_trace_folds_to_its_dump_with_worker_durations(
        self, tmp_path
    ):
        """The written trace of a ``jobs=2`` run folds to exactly the
        written dump, and absorbed worker spans keep their durations:
        the span profile's evaluate time is the dump's, in another
        float summation order."""
        trace, dump = tmp_path / "run.jsonl", tmp_path / "run.prom"
        with observe(trace_path=str(trace), metrics_path=str(dump)):
            run_experiment("fig6a", scale="smoke", jobs=2)
        events = read_trace_jsonl(str(trace))
        values = parse_prometheus_text(dump.read_text())
        assert validate_events(events) == []
        assert check_metrics_consistency(events, values) == []
        profiled = profile_spans(events)["phase.evaluate"].wall_ns / 1e9
        assert profiled > 0
        assert profiled == pytest.approx(
            values[f'{PHASE_SECONDS}{{phase="evaluate"}}'], abs=1e-6
        )

    def test_parallel_metrics_equal_serial_metrics(self):
        def deterministic(snapshot):
            # Phase timers measure wall clock; everything else is
            # seeded and must match across execution strategies.
            return {
                key: value
                for key, value in snapshot.items()
                if not key.startswith("crowdsky_phase_seconds")
            }

        with observe() as serial:
            run_experiment("fig6a", scale="smoke", jobs=1)
        with observe() as parallel:
            run_experiment("fig6a", scale="smoke", jobs=2)
        assert deterministic(parallel.metrics.snapshot()) == deterministic(
            serial.metrics.snapshot()
        )

    def test_warm_cache_trace_stays_consistent(self, tmp_path):
        cache = SweepCache(tmp_path)
        run_experiment("fig6a", scale="smoke", cache=cache)
        with observe() as o:
            run_experiment("fig6a", scale="smoke", cache=cache)
        names = [e["name"] for e in o.tracer.events]
        assert names.count("sweep.cached") == 4
        assert "crowd.round" not in names  # skipped work is not replayed
        assert validate_events(o.tracer.events) == []
        assert check_metrics_consistency(
            o.tracer.events, o.metrics.snapshot()
        ) == []
        assert o.metrics.value(SWEEP_CELLS, status="cached") == 4

    def test_tracer_absorb_remaps_spans(self):
        child = Tracer()
        with child.span("run", algorithm="x"):
            child.event("engine.visible_seed", edges=0)
        parent = Tracer()
        with parent.span("outer") as outer:
            parent.absorb(child.events)
        assert validate_events(parent.events) == []
        absorbed_start = [
            e for e in parent.events
            if e["name"] == "run" and e["kind"] == "span_start"
        ]
        assert absorbed_start[0]["span"] != outer.span_id
        assert absorbed_start[0]["parent"] == outer.span_id

    def test_tracer_absorb_keeps_durations_and_moves_the_clocks(self):
        def stepping(step):
            ticks = iter(range(step, 10**9, step))
            return lambda: next(ticks)

        child = Tracer(clock=stepping(1000), cpu_clock=stepping(10))
        with child.span("sweep.cell", id="t", seed=0):
            child.event("engine.visible_seed", edges=0)
        parent = Tracer(clock=stepping(1), cpu_clock=stepping(1))
        parent.event("engine.visible_seed", edges=0)
        parent.absorb(child.events)
        with parent.span("phase.evaluate"):
            pass
        assert validate_events(parent.events) == []
        cell = profile_spans(parent.events)["sweep.cell"]
        assert (cell.wall_ns, cell.cpu_ns) == (2000, 10)
        absorbed_end = parent.events[-3]
        later = parent.events[-2]
        assert absorbed_end["name"] == "sweep.cell"
        assert later["ts"] >= absorbed_end["ts"]
        assert later["cpu"] >= absorbed_end["cpu"]


class TestMixedBatchSingleRound:
    """Regression: a mixed pairwise+multiway batch costs ONE round."""

    def _context(self):
        relation = make_relation(
            [(1, 6), (2, 5), (3, 4), (4, 3), (5, 2), (6, 1)],
            [(1,), (2,), (3,), (4,), (5,), (6,)],
        )
        return build_context(relation, crowd=SimulatedCrowd(relation))

    def test_mixed_batch_counts_one_round(self):
        context = self._context()
        before = context.crowd.stats.rounds
        ask_batch(
            context,
            [PairRequest(0, 1), MultiwayRequest((2, 3, 4))],
        )
        stats = context.crowd.stats
        assert stats.rounds == before + 1
        # 1 pairwise micro-question (|AC| = 1) + 1 m-ary task share a slot.
        assert stats.round_sizes[-1] == 2

    def test_multiway_only_batch_is_its_own_round(self):
        context = self._context()
        before = context.crowd.stats.rounds
        ask_batch(context, [MultiwayRequest((0, 1, 2))])
        assert context.crowd.stats.rounds == before + 1

    def test_same_round_without_prior_round_opens_one(self):
        relation = make_relation(
            [(1, 2), (2, 1), (3, 3)], [(1,), (2,), (3,)]
        )
        crowd = SimulatedCrowd(relation)
        crowd.ask_multiway_round(
            [MultiwayQuestion((0, 1, 2))], same_round=True
        )
        assert crowd.stats.rounds == 1
        assert crowd.stats.round_sizes == [1]

    def test_merged_round_trace_and_metrics_consistent(self):
        with observe() as o:
            context = self._context()
            ask_batch(
                context,
                [PairRequest(0, 1), MultiwayRequest((2, 3, 4))],
            )
        names = [e["name"] for e in o.tracer.events]
        assert "crowd.round_merged" in names
        assert validate_events(o.tracer.events) == []
        assert check_metrics_consistency(
            o.tracer.events, o.metrics.snapshot()
        ) == []

    def test_hit_ledger_merges_same_round(self):
        from repro.crowd.hits import HitLedger

        relation = make_relation(
            [(1, 6), (2, 5), (3, 4), (4, 3), (5, 2), (6, 1)],
            [(1,), (2,), (3,), (4,), (5,), (6,)],
        )
        ledger = HitLedger(seconds_per_hit=60.0, seed=0)
        crowd = SimulatedCrowd(relation, ledger=ledger)
        context = build_context(relation, crowd=crowd)
        ask_batch(
            context,
            [PairRequest(0, 1), MultiwayRequest((2, 3, 4))],
        )
        # Both postings landed in the same ledger round.
        assert len(ledger.rounds()) == 1


class TestCliFlags:
    def test_run_with_jobs_and_cache_dir(self, tmp_path, capsys):
        from repro.experiments.cli import main

        cache_dir = tmp_path / "cache"
        assert main([
            "run", "table1", "--scale", "smoke",
            "--jobs", "2", "--cache-dir", str(cache_dir),
        ]) == 0
        assert any(cache_dir.rglob("*.json"))
        first = capsys.readouterr().out
        assert main([
            "run", "table1", "--scale", "smoke",
            "--cache-dir", str(cache_dir),
        ]) == 0
        assert capsys.readouterr().out == first  # warm == cold output

    def test_run_no_cache(self, capsys):
        from repro.experiments.cli import main

        assert main(
            ["run", "table1", "--scale", "smoke", "--no-cache"]
        ) == 0
        assert "table1" in capsys.readouterr().out.lower()
