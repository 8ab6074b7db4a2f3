"""Observability layer: tracer, metrics, exporters, schema, logging.

Covers:

* tracer structure — span nesting, parent ids, event/span pairing —
  checked against the trace schema validator,
* the metrics registry (counters, gauges, labelled series, histograms)
  and its Prometheus text round-trip,
* the metrics fold: one record of each kind it reads yields every
  canonical series, and every event it reads is registered,
* the ``observe`` scope: trace/metrics files written, per-round question
  counts in the trace summing exactly to the exported counter and to
  ``CrowdStats`` (the acceptance identity),
* results reporting fault numbers from ``CrowdStats`` (which agree with
  the metrics their trace folds to), and wall-clock stamping under an
  active trace,
* seeded determinism: same seed + same fault plan => identical event
  sequences modulo timestamps (Hypothesis, reusing ``tests/strategies``),
* the no-op guarantee and an emission-overhead smoke test,
* the stdlib-logging helper and the ``crowdsky trace`` CLI round-trip.
"""

from __future__ import annotations

import logging
import time

import pytest
from hypothesis import given

from repro.core.crowdsky import crowdsky
from repro.core.parallel import parallel_sl
from repro.core.result import CrowdSkylineResult
from repro.crowd.faults import FaultPlan
from repro.crowd.platform import CrowdStats, SimulatedCrowd
from repro.data.toy import figure1_dataset
from repro.exceptions import ObservabilityError, TraceSchemaError
from repro.experiments.cli import main as cli_main
from repro.obs import (
    Observation,
    Tracer,
    current_observation,
    install,
    observe,
    parse_prometheus_text,
    read_trace_jsonl,
    summarize_trace,
    uninstall,
    write_trace_jsonl,
)
from repro.obs import metrics as M
from repro.obs.logging import (
    LEVEL_ENV_VAR,
    configure_logging,
    get_logger,
    level_from_env,
)
from repro.obs.schema import (
    check_metrics_consistency,
    trace_totals,
    validate_events,
    validate_jsonl,
)
from tests.strategies import (
    ROBUSTNESS_SETTINGS,
    fault_plans,
    retry_policies,
    small_crowd_relations,
)

pytestmark = pytest.mark.obs


# ---------------------------------------------------------------------------
# Tracer
# ---------------------------------------------------------------------------


class TestTracer:
    def test_span_nesting_and_event_attribution(self):
        tracer = Tracer()
        with tracer.span("outer", n=3) as outer:
            tracer.event("hello", x=1)
            with tracer.span("inner") as inner:
                tracer.event("deep")
        assert validate_events(tracer.events) == []
        kinds = [e["kind"] for e in tracer.events]
        assert kinds == [
            "span_start", "event", "span_start", "event",
            "span_end", "span_end",
        ]
        hello, deep = tracer.events[1], tracer.events[3]
        assert hello["span"] == outer.span_id
        assert deep["span"] == inner.span_id
        start_inner = tracer.events[2]
        assert start_inner["parent"] == outer.span_id
        assert outer.duration_ns >= inner.duration_ns >= 0

    def test_span_records_error_flag(self):
        tracer = Tracer()
        with pytest.raises(ValueError):
            with tracer.span("failing"):
                raise ValueError("boom")
        assert tracer.events[-1]["attrs"] == {"error": True}
        assert validate_events(tracer.events) == []

    def test_timestamps_monotonic_and_relative(self):
        tracer = Tracer()
        for i in range(5):
            tracer.event("tick", i=i)
        stamps = [e["ts"] for e in tracer.events]
        assert stamps == sorted(stamps)
        assert all(ts >= 0 for ts in stamps)


# ---------------------------------------------------------------------------
# Metrics registry
# ---------------------------------------------------------------------------


class TestMetrics:
    def test_counter_labels_value_and_total(self):
        registry = M.MetricsRegistry()
        registry.counter(M.FAULTS_INJECTED, kind="spam").inc()
        registry.counter(M.FAULTS_INJECTED, kind="spam").inc(2)
        registry.counter(M.FAULTS_INJECTED, kind="timeout").inc()
        assert registry.value(M.FAULTS_INJECTED, kind="spam") == 3
        assert registry.total(M.FAULTS_INJECTED) == 4

    def test_histogram_buckets(self):
        registry = M.MetricsRegistry()
        hist = registry.histogram(
            M.ROUND_SIZE, buckets=M.ROUND_SIZE_BUCKETS
        )
        for size in (1, 3, 3, 150):
            hist.observe(size)
        snapshot = registry.snapshot()
        assert snapshot[M.ROUND_SIZE + "_count"] == 4
        assert snapshot[M.ROUND_SIZE + "_sum"] == 157
        assert snapshot[M.ROUND_SIZE + '_bucket{le="1.0"}'] == 1
        assert snapshot[M.ROUND_SIZE + '_bucket{le="+Inf"}'] == 4

    def test_prometheus_round_trip(self):
        registry = M.MetricsRegistry()
        registry.counter(M.QUESTIONS_ASKED).inc(17)
        registry.counter(M.PHASE_SECONDS, phase="evaluate").inc(0.25)
        registry.counter(M.PHASE_SECONDS, phase="post").inc(0.1234567890123)
        registry.gauge(M.MEAN_VOTES_PER_QUESTION).set(5)
        sizes = registry.histogram(M.ROUND_SIZE, buckets=(1, 5, 20))
        for size in (1, 3, 3, 150):
            sizes.observe(size)
        text = registry.to_prometheus()
        assert "# TYPE crowdsky_questions_asked_total counter" in text
        values = parse_prometheus_text(text)
        assert values[M.QUESTIONS_ASKED] == 17
        assert values[M.PHASE_SECONDS + '{phase="evaluate"}'] == 0.25
        assert values[M.MEAN_VOTES_PER_QUESTION] == 5
        assert values == registry.snapshot()


def _every_folded_record():
    """One record of each event and span that the metrics fold reads."""
    tracer = Tracer()
    emit = tracer.event
    question = [0, 1, 0]
    with tracer.span("phase.evaluate"):
        emit("crowd.batch", requested=2, fresh=1, cached=1,
             format="pairwise")
        emit("crowd.round", round=1, questions=1, assignments=5,
             retried=0, format="pairwise")
        emit("crowd.round_merged", round=1, questions=1, assignments=5,
             retried=0, format="multiway")
        emit("crowd.fault", question=question, fault="timeout")
        emit("crowd.fault", question=question, fault="spam")
        emit("crowd.degraded", question=question)
        emit("crowd.deadline", question=question)
        emit("crowd.retry", question=question, attempt=1, backoff=1)
        emit("crowd.backoff", rounds=1)
        emit("crowd.unresolved", question=question, reason="deadline")
        emit("crowd.budget", budget=1, spent=1, requested=1, strict=False)
        emit("crowd.replayed")
        emit("journal.append", records=3)
        with tracer.span("engine.ask_batch", pairs=1, multiway=1,
                         questions=1, saved=1):
            with tracer.span("pref.apply_verdicts", verdicts=1,
                             backend="numpy", accepted=1):
                pass
        emit("engine.tuple", t=0, outcome="skyline")
        emit("pref.totals", backend="numpy", closure_updates=1)
        emit("shard.stats", shipped=1, local_checks=1, merge_checks=1)
        emit("sweep.cached", id="fig6a", seed=0)
        with tracer.span("journal.fsync"):
            pass
        with tracer.span("sweep.cache_get") as lookup:
            lookup.attrs["status"] = "miss"
        with tracer.span("sweep.cache_put", status="store"):
            pass
        with tracer.span("sweep.cell", id="fig6a", seed=0):
            pass
    return tracer.events


class TestMetricsFold:
    def test_one_record_of_each_kind_yields_every_series(self):
        events = _every_folded_record()
        names = {
            series.name for series in M.metrics_from_events(events).series()
        }
        assert names == set(M.DEFAULT_HELP)

    def test_every_folded_event_is_registered_and_read(self):
        events = _every_folded_record()
        # Registered, with the attributes the fold reads.
        assert validate_events(events, strict_names=True) == []
        folded = M.metrics_from_events(events).snapshot()
        for index, record in enumerate(events):
            if record["kind"] == "event":
                rest = events[:index] + events[index + 1:]
                assert M.metrics_from_events(rest).snapshot() != folded, (
                    f"the fold does not read {record['name']}"
                )


# ---------------------------------------------------------------------------
# observe(): files, consistency, results
# ---------------------------------------------------------------------------


class TestObserve:
    def test_disabled_by_default(self):
        observation = current_observation()
        assert not observation.enabled
        result = crowdsky(figure1_dataset())
        assert current_observation().tracer.events == []
        assert result.wall_time_s is None
        # the platform's own accounting is on regardless of the switch
        assert result.stats.questions == len(result.question_log) > 0
        assert result.stats.questions == sum(
            record["questions"] for record in result.cost_records
        )

    def test_untraced_run_builds_no_registry(self, monkeypatch):
        """Counters go only to an active observation: with observability
        off no metrics registry exists anywhere in a run."""
        built = []
        init = M.MetricsRegistry.__init__

        def counted(registry):
            built.append(registry)
            init(registry)

        monkeypatch.setattr(M.MetricsRegistry, "__init__", counted)
        toy = figure1_dataset()
        crowdsky(toy)
        faulty = SimulatedCrowd(
            toy, seed=0, faults=FaultPlan(hit_timeout_rate=0.3, seed=3),
        )
        parallel_sl(toy, crowd=faulty)
        assert built == []

    def test_observed_run_writes_consistent_artifacts(self, tmp_path):
        trace_path = tmp_path / "run.jsonl"
        metrics_path = tmp_path / "run.prom"
        with observe(
            trace_path=str(trace_path), metrics_path=str(metrics_path)
        ) as observation:
            result = crowdsky(figure1_dataset())
        assert validate_jsonl(str(trace_path)) == []
        events = read_trace_jsonl(str(trace_path))
        totals = trace_totals(events)
        # the acceptance identity: trace == exported counter == stats
        assert totals["questions"] == result.stats.questions
        assert totals["rounds"] == result.stats.rounds
        values = parse_prometheus_text(metrics_path.read_text())
        assert check_metrics_consistency(events, values) == []
        assert values[M.QUESTIONS_ASKED] == result.stats.questions
        # the derived gauge is part of the fold
        assert values[M.MEAN_VOTES_PER_QUESTION] == pytest.approx(
            observation.metrics.total(M.WORKER_ASSIGNMENTS)
            / result.stats.questions
        )
        assert result.wall_time_s is not None
        assert f"wall={result.wall_time_s:.3f}s" in result.summary()
        summary = summarize_trace(events)
        assert "crowd.round" in summary and "phase.evaluate" in summary

    def test_phase_seconds_accounted(self):
        with observe() as observation:
            parallel_sl(figure1_dataset())
        phases = {
            dict(series.labels).get("phase")
            for series in observation.metrics.series()
            if series.name == M.PHASE_SECONDS
        }
        assert {"build_context", "evaluate"} <= phases

    def test_install_uninstall_lifo(self):
        first, second = Observation(), Observation()
        install(first)
        install(second)
        with pytest.raises(ObservabilityError):
            uninstall(first)
        uninstall(second)
        uninstall(first)
        assert not current_observation().enabled

    def test_read_trace_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"ts": 0}\nnot json\n')
        with pytest.raises(TraceSchemaError):
            read_trace_jsonl(str(path))


class TestResultReporting:
    def test_summary_reports_faults_from_stats(self):
        result = CrowdSkylineResult(
            skyline={0}, stats=CrowdStats(retries=4, timeouts=1)
        )
        assert "retries=4 timeouts=1" in result.summary()

    def test_faulted_run_reports_from_metrics(self):
        toy = figure1_dataset()
        crowd = SimulatedCrowd(
            toy, seed=0,
            faults=FaultPlan(hit_timeout_rate=0.3, seed=3),
        )
        with observe() as observation:
            result = crowdsky(toy, crowd=crowd)
        metrics = observation.metrics
        assert metrics.total(M.FAULTS_INJECTED) == (
            crowd.fault_stats.total_events()
        )
        assert metrics.total(M.TIMEOUTS) == result.stats.timeouts
        if result.stats.timeouts:
            assert "timeouts=" in result.summary()
            assert all("retried" in row for row in result.round_table(toy))


# ---------------------------------------------------------------------------
# Determinism and overhead
# ---------------------------------------------------------------------------


def _normalized(events):
    # "ts" and "cpu" are the two wall/CPU clock stamps; everything else
    # (ids, names, attrs) must replay identically.
    return [
        {
            key: value
            for key, value in event.items()
            if key not in ("ts", "cpu")
        }
        for event in events
    ]


class TestDeterminism:
    @ROBUSTNESS_SETTINGS
    @given(
        relation=small_crowd_relations(),
        plan_kwargs=fault_plans(),
        policy=retry_policies(),
    )
    def test_same_seed_same_fault_plan_same_trace(
        self, relation, plan_kwargs, policy
    ):
        traces = []
        for _ in range(2):
            crowd = SimulatedCrowd(
                relation, seed=17,
                faults=FaultPlan(**plan_kwargs), retry=policy,
            )
            with observe() as observation:
                crowdsky(relation, crowd=crowd)
            traces.append(_normalized(observation.tracer.events))
        assert traces[0] == traces[1]


class TestOverhead:
    def test_noop_emission_is_cheap(self):
        """Guarded emission (the hot-path pattern) must stay a constant
        few attribute reads when observability is off."""
        iterations = 200_000
        start = time.perf_counter()
        for _ in range(iterations):
            observation = current_observation()
            if observation.enabled:  # pragma: no cover - off in this test
                observation.tracer.event("never")
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0  # generous: ~5µs per guarded site
        assert current_observation().tracer.events == []


# ---------------------------------------------------------------------------
# Logging helper
# ---------------------------------------------------------------------------


class TestLogging:
    def test_get_logger_namespacing(self):
        assert get_logger().name == "repro"
        assert get_logger("crowd").name == "repro.crowd"
        assert get_logger("repro.crowd.platform").name == (
            "repro.crowd.platform"
        )

    def test_level_from_env(self, monkeypatch):
        monkeypatch.delenv(LEVEL_ENV_VAR, raising=False)
        assert level_from_env() == logging.WARNING
        monkeypatch.setenv(LEVEL_ENV_VAR, "debug")
        assert level_from_env() == logging.DEBUG
        monkeypatch.setenv(LEVEL_ENV_VAR, "15")
        assert level_from_env() == 15
        monkeypatch.setenv(LEVEL_ENV_VAR, "bogus")
        assert level_from_env() == logging.WARNING

    def test_configure_logging_idempotent(self):
        logger = logging.getLogger("repro")
        configure_logging(logging.INFO)
        configure_logging(logging.DEBUG)
        streams = [
            h for h in logger.handlers
            if isinstance(h, logging.StreamHandler)
            and not isinstance(h, logging.NullHandler)
        ]
        assert len(streams) == 1
        assert logger.level == logging.DEBUG


# ---------------------------------------------------------------------------
# CLI round trip
# ---------------------------------------------------------------------------


class TestCli:
    def test_traced_run_validates_and_summarizes(self, tmp_path, capsys):
        trace_path = str(tmp_path / "t.jsonl")
        metrics_path = str(tmp_path / "m.prom")
        assert cli_main([
            "run", "table3", "--scale", "smoke",
            "--trace", trace_path, "--metrics", metrics_path,
        ]) == 0
        assert cli_main([
            "trace", "validate", trace_path, "--metrics", metrics_path,
        ]) == 0
        assert "ok:" in capsys.readouterr().out
        assert cli_main(["trace", "summarize", trace_path]) == 0
        assert "== trace summary ==" in capsys.readouterr().out

    def test_validate_flags_corrupted_trace(self, tmp_path, capsys):
        tracer = Tracer()
        tracer.event("crowd.round", round=1)  # missing required attrs
        path = str(tmp_path / "bad.jsonl")
        write_trace_jsonl(tracer.events, path)
        assert cli_main(["trace", "validate", path]) == 1
        assert "invalid:" in capsys.readouterr().err

    def test_validate_rejects_unregistered_event_name(self, tmp_path, capsys):
        tracer = Tracer()
        tracer.event("crowd.rnd", round=1)
        path = str(tmp_path / "typo.jsonl")
        write_trace_jsonl(tracer.events, path)
        assert cli_main(["trace", "validate", path]) == 1
        assert "unknown event name 'crowd.rnd'" in capsys.readouterr().err
