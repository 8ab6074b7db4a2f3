"""Tests for span-derived profiling, cost attribution and RunReports.

The two acceptance properties this file pins:

* profiler exactness — per-phase *self* times partition the trace, so
  they sum to the total traced wall time (well inside the 5% band);
* cost exactness — every cost breakdown (ledger-side
  ``CrowdSkylineResult.cost_breakdown`` and trace-side
  ``cost_from_events``) totals *bit-for-bit* what the platform's AMT
  ledger charged, because both price the same integer HIT sum.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.core.crowdsky import CrowdSkyConfig, crowdsky, crowdsky_budgeted
from repro.core.parallel import parallel_dset, parallel_sl
from repro.data.movies import movies_dataset
from repro.data.synthetic import generate_synthetic
from repro.data.toy import figure1_dataset
from repro.exceptions import TraceSchemaError
from repro.experiments.cli import main as cli_main
from repro.obs import observe, read_trace_jsonl, summarize_trace
from repro.obs import report as R
from repro.obs.perf import (
    machine_fingerprint,
    phase_breakdown,
    profile_spans,
    regress,
    same_machine,
)
from repro.obs.schema import validate_events

pytestmark = pytest.mark.obs

BASELINES = os.path.join(
    os.path.dirname(__file__), "..", "benchmarks", "baselines",
    "bench_trajectory.json",
)


@pytest.fixture(scope="module")
def traced_run():
    """One traced end-to-end run shared by the read-only tests."""
    relation = generate_synthetic(80, 2, 2, seed=11)
    with observe() as observation:
        result = crowdsky(relation)
    events = list(observation.tracer.events)
    assert validate_events(events) == []
    return events, result


# ---------------------------------------------------------------------------
# Profiler
# ---------------------------------------------------------------------------


class TestProfiler:
    def test_self_times_partition_the_trace(self, traced_run):
        events, _ = traced_run
        breakdown = phase_breakdown(events)
        total = breakdown["total_wall_s"]
        assert total > 0
        summed = sum(phase["self_s"] for phase in breakdown["phases"])
        # Acceptance bound is 5%; self-time partitions exactly, so the
        # only slack we allow is float rounding.
        assert summed == pytest.approx(total, rel=1e-9)
        assert abs(summed - total) <= 0.05 * total

    def test_expected_phases_present(self, traced_run):
        events, _ = traced_run
        names = set(profile_spans(events))
        assert {"engine.preprocess", "engine.dominance",
                "engine.dominating_sets", "crowd.post"} <= names

    def test_histogram_counts_match_span_counts(self, traced_run):
        events, _ = traced_run
        for stats in profile_spans(events).values():
            assert sum(stats.histogram) == stats.count
            payload = stats.to_dict()
            assert sum(payload["histogram"].values()) == stats.count

    def test_cpu_time_captured(self, traced_run):
        events, _ = traced_run
        breakdown = phase_breakdown(events)
        assert breakdown["total_cpu_s"] is not None
        assert breakdown["total_cpu_s"] >= 0


# ---------------------------------------------------------------------------
# Cost attribution
# ---------------------------------------------------------------------------


class TestCostAttribution:
    @pytest.mark.parametrize(
        "algorithm",
        [crowdsky, parallel_dset, parallel_sl],
        ids=["serial", "parallel_dset", "parallel_sl"],
    )
    def test_breakdown_total_equals_ledger_exactly(self, algorithm):
        relation = generate_synthetic(60, 2, 2, seed=4)
        result = algorithm(relation)
        breakdown = result.cost_breakdown()
        assert breakdown["total_cost"] == result.stats.hit_cost()
        assert breakdown["questions"] == result.stats.questions

    def test_breakdown_exact_with_multiway_merging(self):
        relation = generate_synthetic(90, 2, 2, seed=9)
        result = parallel_sl(relation, config=CrowdSkyConfig(multiway=3))
        breakdown = result.cost_breakdown()
        assert breakdown["total_cost"] == result.stats.hit_cost()

    def test_budgeted_breakdown_exact_and_attributed(self):
        toy = figure1_dataset()
        result = crowdsky_budgeted(toy, 5)
        breakdown = result.cost_breakdown()
        assert breakdown["total_cost"] == result.stats.hit_cost()
        assert "crowdsky_budgeted" in breakdown["by_scheduler"]

    def test_dimension_buckets_sum_to_total(self):
        relation = generate_synthetic(60, 2, 2, seed=4)
        result = parallel_sl(relation)
        breakdown = result.cost_breakdown()
        for dim in ("by_scheduler", "by_phase", "by_layer"):
            groups = breakdown[dim]
            assert groups, dim
            assert sum(b["hits"] for b in groups.values()) == (
                breakdown["hits"]
            )
        # parallel_sl charges per activation wave.
        assert all(k.isdigit() for k in breakdown["by_layer"])

    def test_trace_side_cost_matches_ledger(self, traced_run):
        events, result = traced_run
        cost = R.cost_from_events(events)
        assert cost["total_cost"] == result.stats.hit_cost()
        assert cost["questions"] == result.stats.questions

    def test_multi_run_trace_scopes_round_counters(self):
        # Round numbering restarts per crowd; two runs in one trace
        # must still price like the sum of their ledgers.
        with observe() as observation:
            first = parallel_sl(
                generate_synthetic(70, 2, 2, seed=3),
                config=CrowdSkyConfig(multiway=3),
            )
            second = crowdsky(generate_synthetic(50, 2, 2, seed=5))
        cost = R.cost_from_events(list(observation.tracer.events))
        # Each run's scheduler bucket prices its own integer HIT count
        # — the ledger's exact expression; the grand total prices the
        # combined count, so it only matches the *sum of floats* to
        # rounding.
        assert cost["by_scheduler"]["parallel_sl"]["cost"] == (
            first.stats.hit_cost()
        )
        assert cost["by_scheduler"]["crowdsky"]["cost"] == (
            second.stats.hit_cost()
        )
        assert cost["total_cost"] == pytest.approx(
            first.stats.hit_cost() + second.stats.hit_cost(), rel=1e-12
        )


# ---------------------------------------------------------------------------
# Trace summary + RunReport artifact
# ---------------------------------------------------------------------------


class TestRunReport:
    def test_trace_summary_validates_and_counts(self, traced_run):
        events, result = traced_run
        summary = R.trace_summary(events)
        R.validate_trace_summary(summary)
        assert summary["questions"] == result.stats.questions
        assert summary["rounds"] == result.stats.rounds
        with pytest.raises(TraceSchemaError):
            R.validate_trace_summary({"schema": "bogus"})

    def test_text_summary_prints_the_json_numbers(self):
        # multiway=3 merges 2 m-ary postings into their pairwise rounds
        # on this relation; their questions count like any other.
        relation = movies_dataset()
        with observe() as observation:
            result = parallel_sl(relation, config=CrowdSkyConfig(multiway=3))
        events = list(observation.tracer.events)
        assert any(e["name"] == "crowd.round_merged" for e in events)
        summary = R.trace_summary(events)
        assert summary["rounds"] == result.stats.rounds
        assert summary["questions"] == result.stats.questions
        lines = summarize_trace(events).splitlines()
        assert f"rounds:            {summary['rounds']}" in lines
        assert f"questions asked:   {summary['questions']}" in lines
        # without the trace's last record, its span never ended
        assert events[-1]["kind"] == "span_end"
        assert "(unclosed)" in summarize_trace(events[:-1])

    def test_report_roundtrip_and_acceptance_bounds(
        self, traced_run, tmp_path
    ):
        events, result = traced_run
        report = R.build_run_report(
            events, metrics={"crowdsky_questions_total": 1.0},
            journal={"segments": 1}, meta={"run": "unit"},
        )
        R.validate_run_report(report)
        # Acceptance: phases sum within 5% of total, cost equals ledger.
        profile = report["profile"]
        summed = sum(p["self_s"] for p in profile["phases"])
        assert abs(summed - profile["total_wall_s"]) <= (
            0.05 * profile["total_wall_s"]
        )
        assert report["cost"]["total_cost"] == result.stats.hit_cost()

        paths = R.write_run_report(report, str(tmp_path))
        loaded = json.loads(
            open(paths["json"]).read()
        )
        R.validate_run_report(loaded)
        markdown = open(paths["markdown"]).read()
        assert "# CrowdSky run report" in markdown
        assert "Where the time went" in markdown
        assert "Where the money went" in markdown

    def test_cli_report_and_json_summary(self, tmp_path, capsys):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        trace = run_dir / "trace.jsonl"
        code = cli_main(
            ["run", "fig6a", "--scale", "smoke", "--no-cache",
             "--trace", str(trace)]
        )
        assert code == 0
        assert cli_main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "report.json" in out and "report.md" in out
        report = json.loads((run_dir / "report.json").read_text())
        R.validate_run_report(report)

        assert cli_main(
            ["trace", "summarize", str(trace), "--format", "json"]
        ) == 0
        summary = json.loads(capsys.readouterr().out)
        R.validate_trace_summary(summary)
        assert summary == report["trace"]


# ---------------------------------------------------------------------------
# Regression gate
# ---------------------------------------------------------------------------


def _committed_baseline(suite="smoke"):
    with open(BASELINES) as handle:
        return json.load(handle)["suites"][suite]


def _slowed(record, factor):
    slow = json.loads(json.dumps(record))
    for entry in slow["results"]:
        entry["median_s"] *= factor
        entry["runs_s"] = [value * factor for value in entry["runs_s"]]
    return slow


class TestRegressionGate:
    def test_detects_2x_slowdown_against_committed_baseline(self):
        baseline = _committed_baseline()
        candidate = _slowed(baseline, 2.0)
        findings = regress(candidate, baseline, tolerance=0.30)
        flagged = {finding.benchmark for finding in findings}
        # Every benchmark above the 5ms noise floor must be caught.
        expected = {
            entry["id"]
            for entry in baseline["results"]
            if entry["median_s"] * 2.0 > 0.005
        }
        assert expected and expected <= flagged
        assert all(
            finding.ratio == pytest.approx(2.0) for finding in findings
        )

    def test_self_comparison_is_clean(self):
        baseline = _committed_baseline()
        assert regress(baseline, baseline) == []

    def test_noise_floor_suppresses_fast_benchmarks(self):
        baseline = _committed_baseline()
        candidate = _slowed(baseline, 2.0)
        findings = regress(
            candidate, baseline, tolerance=0.30, min_seconds=10_000.0
        )
        assert findings == []

    def test_fastest_run_rescues_a_noisy_median(self):
        baseline = _committed_baseline()
        candidate = _slowed(baseline, 2.0)
        for entry in candidate["results"]:
            entry["runs_s"].append(entry["median_s"] / 2.0)  # one fast run
        assert regress(candidate, baseline, tolerance=0.30) == []

    def test_fingerprint_mismatch_skips(self):
        baseline = _committed_baseline()
        candidate = _slowed(baseline, 2.0)
        candidate["fingerprint"] = dict(
            candidate["fingerprint"], machine="riscv64"
        )
        assert not same_machine(
            candidate["fingerprint"], baseline["fingerprint"]
        )
        assert regress(candidate, baseline) == []
        assert regress(candidate, baseline, ignore_fingerprint=True)

    def test_committed_baseline_has_both_suites(self):
        with open(BASELINES) as handle:
            suites = json.load(handle)["suites"]
        assert {"smoke", "ci"} <= set(suites)
        for suite, record in suites.items():
            assert record["suite"] == suite
            assert record["results"]
            for entry in record["results"]:
                assert entry["runs_s"]
                assert entry["median_s"] > 0


# ---------------------------------------------------------------------------
# Bench harness
# ---------------------------------------------------------------------------


class TestBenchHarness:
    def test_smoke_suite_records_and_appends(self, tmp_path):
        from repro.experiments import bench

        record = bench.run_suite("smoke", repeats=1)
        assert record["schema"] == bench.BENCH_RECORD_SCHEMA
        assert record["fingerprint"] == machine_fingerprint()
        ids = [entry["id"] for entry in record["results"]]
        assert ids == [
            "closure_numpy_n512", "fig6a_smoke_cold",
            "fig6a_smoke_warm", "crowdsky_e2e_n200",
        ]
        # The warm sweep must actually hit the cache.
        by_id = {entry["id"]: entry for entry in record["results"]}
        assert by_id["fig6a_smoke_warm"]["median_s"] < (
            by_id["fig6a_smoke_cold"]["median_s"]
        )

        trajectory = tmp_path / "BENCH_trajectory.json"
        assert bench.append_record(record, trajectory) == 1
        assert bench.append_record(record, trajectory) == 2
        assert len(bench.load_trajectory(trajectory)) == 2

        baseline_file = tmp_path / "baselines.json"
        baseline_file.write_text(
            json.dumps({"suites": {"smoke": record}})
        )
        findings, message = bench.check_against_baseline(
            record, baseline_file
        )
        assert findings == []
        findings, message = bench.check_against_baseline(
            _slowed(record, 3.0), baseline_file
        )
        assert findings
        assert "regression" in message

    def test_unknown_suite_rejected(self):
        from repro.exceptions import ExperimentError
        from repro.experiments.bench import run_suite

        with pytest.raises(ExperimentError):
            run_suite("warp")
        with pytest.raises(ExperimentError):
            run_suite("smoke", repeats=0)

    def test_cli_accepts_every_suite(self):
        from repro.experiments.bench import SUITES
        from repro.experiments.cli import _build_parser

        parser = _build_parser()
        for suite in SUITES:
            args = parser.parse_args(["bench", "--suite", suite])
            assert args.suite == suite

    def test_cli_bench_gates(self, tmp_path, capsys):
        trajectory = tmp_path / "BT.json"
        code = cli_main(
            ["bench", "--suite", "smoke", "--repeats", "1",
             "--output", str(trajectory)]
        )
        assert code == 0
        records = json.loads(trajectory.read_text())
        assert len(records) == 1
        capsys.readouterr()

        # Gate the recorded run against a 2x-slower "baseline": the
        # candidate is then *faster*, so the gate passes; gate it
        # against a 2x-faster baseline and it must fail.
        record = records[0]
        slower = tmp_path / "slower.json"
        slower.write_text(
            json.dumps({"suites": {"smoke": _slowed(record, 2.0)}})
        )
        assert cli_main(
            ["bench", "--suite", "smoke", "--repeats", "1",
             "--output", str(trajectory), "--check",
             "--baseline", str(slower)]
        ) == 0
        capsys.readouterr()

        faster = tmp_path / "faster.json"
        faster.write_text(
            json.dumps({"suites": {"smoke": _slowed(record, 0.25)}})
        )
        assert cli_main(
            ["bench", "--suite", "smoke", "--repeats", "1",
             "--output", str(trajectory), "--check",
             "--baseline", str(faster)]
        ) == 1
        assert cli_main(
            ["bench", "--suite", "smoke", "--repeats", "1",
             "--output", str(trajectory), "--check", "--report-only",
             "--baseline", str(faster)]
        ) == 0
