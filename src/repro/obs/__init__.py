"""``repro.obs`` — structured tracing, metrics and profiling hooks.

The observability layer turns every run into an analyzable artifact:

* :class:`~repro.obs.tracer.Tracer` records structured events and
  nestable spans (one event per round, batch, vote, retry, fault and
  budget decision),
* :class:`~repro.obs.metrics.MetricsRegistry` accumulates the paper's
  headline metrics (questions, rounds, cache hits, unresolved pairs,
  per-phase wall time) as counters/gauges/histograms,
* exporters persist JSONL traces and Prometheus text dumps
  (:mod:`repro.obs.exporters`), validated against the event schema
  (:mod:`repro.obs.schema`); :mod:`repro.obs.report` summarizes a
  trace as text or JSON and assembles RunReports.

**Cost model.** Observability is off by default: the globally installed
observation is a no-op singleton and every instrumentation site guards
with ``observation.enabled`` — one attribute read on the hot path. The
active observation's registry is the only one: with observability off
no registry exists, and results report from the platform's own
accounting (``CrowdStats`` and the per-posting cost records), which is
on regardless of the switch.

Usage::

    from repro.obs import observe

    with observe(trace_path="run.jsonl", metrics_path="run.prom") as o:
        result = crowdsky(relation)
    # run.jsonl now holds the trace, run.prom the metrics dump
    print(result.summary())   # includes wall-clock time

or via the CLI: ``crowdsky run fig6a --trace run.jsonl --metrics
run.prom`` and ``crowdsky trace summarize run.jsonl``.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Any, Iterator, List, Optional, Union

from repro.exceptions import ObservabilityError
from repro.obs.exporters import (
    parse_prometheus_text,
    read_trace_jsonl,
    write_metrics_prometheus,
    write_trace_jsonl,
)
from repro.obs.metrics import (
    MEAN_VOTES_PER_QUESTION,
    PHASE_SECONDS,
    QUESTIONS_ASKED,
    WORKER_ASSIGNMENTS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)
from repro.obs.perf import (
    machine_fingerprint,
    phase_breakdown,
    profile_spans,
    regress,
)
from repro.obs.report import (
    build_run_report,
    render_markdown,
    summarize_trace,
    trace_summary,
    write_run_report,
)
from repro.obs.tracer import NOOP_TRACER, NoOpTracer, Span, Tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NOOP_TRACER",
    "NoOpTracer",
    "Observation",
    "Span",
    "Tracer",
    "build_run_report",
    "current_observation",
    "machine_fingerprint",
    "observe",
    "parse_prometheus_text",
    "phase",
    "phase_breakdown",
    "profile_spans",
    "read_trace_jsonl",
    "regress",
    "render_markdown",
    "run_span",
    "summarize_trace",
    "trace_summary",
    "write_metrics_prometheus",
    "write_run_report",
    "write_trace_jsonl",
]


class Observation:
    """A live tracer + aggregate metrics registry, installed for a scope.

    Instrumented code reaches the active observation through
    :func:`current_observation`; when none is installed the no-op
    observation is returned and every emission site skips its work after
    a single ``enabled`` check.
    """

    enabled = True

    def __init__(self) -> None:
        self.tracer = Tracer()
        self.metrics = MetricsRegistry()

    def finalize(self) -> None:
        """Compute derived gauges (called before export)."""
        questions = self.metrics.total(QUESTIONS_ASKED)
        if questions:
            assignments = self.metrics.total(WORKER_ASSIGNMENTS)
            self.metrics.gauge(MEAN_VOTES_PER_QUESTION).set(
                assignments / questions
            )


class _NoOpObservation:
    """Disabled observation; ``metrics`` is deliberately ``None`` so an
    unguarded emission fails loudly instead of leaking into a shared
    registry."""

    enabled = False
    tracer = NOOP_TRACER
    metrics: Optional[MetricsRegistry] = None


_NOOP_OBSERVATION = _NoOpObservation()
_STACK: List[Observation] = []


def current_observation() -> Union[Observation, _NoOpObservation]:
    """The innermost installed observation, or the no-op singleton."""
    return _STACK[-1] if _STACK else _NOOP_OBSERVATION


def install(observation: Observation) -> None:
    """Push an observation; prefer the :func:`observe` context manager."""
    _STACK.append(observation)


def uninstall(observation: Observation) -> None:
    """Pop a previously installed observation (LIFO discipline)."""
    if not _STACK or _STACK[-1] is not observation:
        raise ObservabilityError(
            "uninstall order violates the observation stack"
        )
    _STACK.pop()


@contextmanager
def observe(
    trace_path: Optional[str] = None,
    metrics_path: Optional[str] = None,
) -> Iterator[Observation]:
    """Install a fresh observation for the ``with`` block.

    On exit, derived gauges are finalized and — when paths are given —
    the JSONL trace and/or Prometheus metrics dump are written even if
    the block raised (partial runs are still analyzable).
    """
    observation = Observation()
    install(observation)
    try:
        yield observation
    finally:
        uninstall(observation)
        observation.finalize()
        if trace_path is not None:
            write_trace_jsonl(observation.tracer.events, trace_path)
        if metrics_path is not None:
            write_metrics_prometheus(observation.metrics, metrics_path)


@contextmanager
def phase(name: str) -> Iterator[Optional[Span]]:
    """Trace one named phase and account its wall time.

    Yields the live span (or ``None`` when observability is off); on
    exit the duration feeds the ``crowdsky_phase_seconds_total{phase=}``
    counter of the active observation.
    """
    observation = current_observation()
    if not observation.enabled:
        yield None
        return
    with observation.tracer.span(f"phase.{name}") as span:
        yield span
    observation.metrics.counter(PHASE_SECONDS, phase=name).inc(
        span.duration_s or 0.0
    )


@contextmanager
def run_span(algorithm: str, **attrs: Any) -> Iterator[Optional[Span]]:
    """Trace one whole algorithm run as a ``run`` span.

    Yields the live span (``None`` when observability is off); callers
    use ``span.duration_s`` to stamp wall time onto their result.
    """
    observation = current_observation()
    if not observation.enabled:
        yield None
        return
    with observation.tracer.span("run", algorithm=algorithm, **attrs) as span:
        yield span
