"""Span-derived profiling and the benchmark-trajectory regression gate.

Two halves, both pure functions over plain data (this module sits in
the ``obs`` layer and may import nothing above ``repro.io``):

* **Profiler** — :func:`profile_spans` aggregates a recorded trace's
  span records into per-span-name wall/CPU statistics with *self* time
  (time inside a span excluding its children) and exact-bucket latency
  histograms; :func:`phase_breakdown` turns that into the per-phase
  table a :mod:`RunReport <repro.obs.report>` prints. Because self
  times partition each root span exactly, the per-phase wall times sum
  to the total traced wall time by construction — the property the
  acceptance tests pin.

* **Regression gate** — :func:`regress` diffs one benchmark-trajectory
  record (see :mod:`repro.experiments.bench`) against a committed
  baseline record: a benchmark regresses when its median-of-k exceeds
  the baseline median by more than ``tolerance`` *and* an absolute
  noise floor, and even its fastest run exceeds the band (a single
  noisy run never fails the gate). :func:`machine_fingerprint`
  identifies the recording host so trajectories from different
  machines are never compared silently.

This module owns the wall-clock reads the deterministic packages are
forbidden (RA001): :func:`utc_timestamp` is how the bench harness
stamps its records.
"""

from __future__ import annotations

import os
import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.exceptions import ObservabilityError

#: Bucket upper bounds (seconds) for the profiler's per-span latency
#: histograms; the final implicit bucket is +Inf. Mirrors the metric
#: histograms' :data:`repro.obs.metrics.LATENCY_BUCKETS_S` but is owned
#: here so the profiler works on traces alone.
SPAN_LATENCY_BUCKETS_S: Tuple[float, ...] = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0,
)

NS_PER_S = 1_000_000_000


# ---------------------------------------------------------------------------
# Span profiler
# ---------------------------------------------------------------------------


@dataclass
class SpanStats:
    """Aggregated timing of every span sharing one name."""

    name: str
    #: Number of completed (or force-closed) spans of this name.
    count: int = 0
    #: Total wall nanoseconds inside the spans (children included).
    wall_ns: int = 0
    #: Wall nanoseconds exclusive of child spans (self time). Self
    #: times of all spans partition the trace: they sum to the total.
    self_ns: int = 0
    #: Total CPU nanoseconds inside the spans (children included);
    #: None when the trace predates CPU stamping.
    cpu_ns: Optional[int] = None
    #: CPU nanoseconds exclusive of child spans.
    self_cpu_ns: Optional[int] = None
    min_ns: Optional[int] = None
    max_ns: Optional[int] = None
    #: Exact (non-cumulative) duration histogram: one count per bucket
    #: of :data:`SPAN_LATENCY_BUCKETS_S`, final entry is +Inf.
    histogram: List[int] = field(
        default_factory=lambda: [0] * (len(SPAN_LATENCY_BUCKETS_S) + 1)
    )

    def observe(
        self,
        wall_ns: int,
        self_ns: int,
        cpu_ns: Optional[int],
        self_cpu_ns: Optional[int],
    ) -> None:
        self.count += 1
        self.wall_ns += wall_ns
        self.self_ns += self_ns
        if cpu_ns is not None:
            self.cpu_ns = (self.cpu_ns or 0) + cpu_ns
            self.self_cpu_ns = (self.self_cpu_ns or 0) + (self_cpu_ns or 0)
        if self.min_ns is None or wall_ns < self.min_ns:
            self.min_ns = wall_ns
        if self.max_ns is None or wall_ns > self.max_ns:
            self.max_ns = wall_ns
        seconds = wall_ns / NS_PER_S
        for index, bound in enumerate(SPAN_LATENCY_BUCKETS_S):
            if seconds <= bound:
                self.histogram[index] += 1
                return
        self.histogram[-1] += 1

    def to_dict(self) -> Dict[str, Any]:
        """JSON-able form (histogram keyed by bucket upper bound)."""
        buckets = {
            str(bound): count
            for bound, count in zip(SPAN_LATENCY_BUCKETS_S, self.histogram)
            if count
        }
        if self.histogram[-1]:
            buckets["+Inf"] = self.histogram[-1]
        return {
            "name": self.name,
            "count": self.count,
            "wall_s": self.wall_ns / NS_PER_S,
            "self_s": self.self_ns / NS_PER_S,
            "cpu_s": (
                None if self.cpu_ns is None else self.cpu_ns / NS_PER_S
            ),
            "self_cpu_s": (
                None
                if self.self_cpu_ns is None
                else self.self_cpu_ns / NS_PER_S
            ),
            "min_s": (
                None if self.min_ns is None else self.min_ns / NS_PER_S
            ),
            "max_s": (
                None if self.max_ns is None else self.max_ns / NS_PER_S
            ),
            "histogram": buckets,
        }


def index_spans(events: Sequence[Dict[str, Any]]) -> Dict[int, Dict[str, Any]]:
    """Per-span summary keyed by span id.

    Each entry holds ``name`` / ``start`` / ``end`` / ``cpu_start`` /
    ``cpu_end`` / ``parent`` / ``attrs`` / ``children`` / ``closed``.
    Spans that never ended (crashed runs) keep ``closed`` False and are
    force-closed at the trace's last timestamp so a partial trace still
    profiles.
    """
    spans: Dict[int, Dict[str, Any]] = {}
    last_ts = 0
    last_cpu: Optional[int] = None
    for event in events:
        ts = event.get("ts", 0)
        if isinstance(ts, int) and ts > last_ts:
            last_ts = ts
        cpu = event.get("cpu")
        if isinstance(cpu, int):
            last_cpu = cpu
        kind = event.get("kind")
        span_id = event.get("span")
        if kind == "span_start":
            spans[span_id] = {
                "name": event.get("name"),
                "start": event.get("ts"),
                "end": None,
                "cpu_start": cpu,
                "cpu_end": None,
                "parent": event.get("parent"),
                "attrs": event.get("attrs", {}),
                "children": [],
                "closed": False,
            }
        elif kind == "span_end" and span_id in spans:
            spans[span_id]["end"] = event.get("ts")
            spans[span_id]["cpu_end"] = cpu
            spans[span_id]["closed"] = True
    for span in spans.values():
        if span["end"] is None:
            span["end"] = last_ts
            if span["cpu_start"] is not None and last_cpu is not None:
                span["cpu_end"] = last_cpu
    for span_id, span in spans.items():
        parent = span["parent"]
        if parent in spans:
            spans[parent]["children"].append(span_id)
    return spans


def profile_spans(
    events: Sequence[Dict[str, Any]],
    spans: Optional[Dict[int, Dict[str, Any]]] = None,
) -> Dict[str, SpanStats]:
    """Aggregate a trace's spans into per-name wall/CPU statistics.

    Self time is each span's duration minus the sum of its direct
    children's durations, clamped at zero.
    ``spans`` is the trace's :func:`index_spans`, when the caller has
    already built it.
    """
    if spans is None:
        spans = index_spans(events)
    stats: Dict[str, SpanStats] = {}
    for span in spans.values():
        if span["start"] is None or span["end"] is None:
            continue
        wall = max(0, span["end"] - span["start"])
        child_wall = 0
        child_cpu = 0
        for child_id in span["children"]:
            child = spans[child_id]
            if child["start"] is not None and child["end"] is not None:
                child_wall += max(0, child["end"] - child["start"])
            if (
                child["cpu_start"] is not None
                and child["cpu_end"] is not None
            ):
                child_cpu += max(0, child["cpu_end"] - child["cpu_start"])
        cpu: Optional[int] = None
        self_cpu: Optional[int] = None
        if span["cpu_start"] is not None and span["cpu_end"] is not None:
            cpu = max(0, span["cpu_end"] - span["cpu_start"])
            self_cpu = max(0, cpu - child_cpu)
        entry = stats.get(span["name"])
        if entry is None:
            entry = stats[span["name"]] = SpanStats(span["name"])
        entry.observe(wall, max(0, wall - child_wall), cpu, self_cpu)
    return stats


def phase_breakdown(
    events: Sequence[Dict[str, Any]],
    spans: Optional[Dict[int, Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """The per-phase table a RunReport prints.

    ``total_wall_ns`` is the summed duration of the trace's *root*
    spans (spans without a recorded parent). Every span's self time is
    attributed to its name; the residue of the roots (time outside any
    child span) already lives in the roots' own self entries, so
    ``sum(phase.self_ns) == total_wall_ns`` exactly — phases partition
    the traced time. ``spans`` is as for :func:`profile_spans`.
    """
    if spans is None:
        spans = index_spans(events)
    return _phase_table(spans, profile_spans(events, spans))


def _phase_table(
    spans: Dict[int, Dict[str, Any]], stats: Dict[str, SpanStats]
) -> Dict[str, Any]:
    """:func:`phase_breakdown` from a trace's :func:`index_spans` and
    their :func:`profile_spans`, for a caller that has built both."""
    total = 0
    total_cpu = 0
    cpu_known = False
    for span in spans.values():
        if span["parent"] in spans:
            continue
        if span["start"] is None or span["end"] is None:
            continue
        total += max(0, span["end"] - span["start"])
        if span["cpu_start"] is not None and span["cpu_end"] is not None:
            total_cpu += max(0, span["cpu_end"] - span["cpu_start"])
            cpu_known = True
    phases = [
        stats[name].to_dict() for name in sorted(stats)
    ]
    for phase in phases:
        phase["share"] = (
            phase["self_s"] / (total / NS_PER_S) if total else 0.0
        )
    return {
        "total_wall_s": total / NS_PER_S,
        "total_cpu_s": (total_cpu / NS_PER_S) if cpu_known else None,
        "phases": phases,
    }


# ---------------------------------------------------------------------------
# Machine identity and wall-clock (owned by obs; see RA001)
# ---------------------------------------------------------------------------


def machine_fingerprint() -> Dict[str, Any]:
    """A JSON-able identity of the recording host.

    Benchmark numbers are only comparable on the same machine and
    interpreter; :func:`regress` refuses cross-machine diffs unless
    explicitly told otherwise.
    """
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "system": platform.system(),
        "release": platform.release(),
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
    }


def same_machine(a: Optional[Dict[str, Any]], b: Optional[Dict[str, Any]]) -> bool:
    """Whether two fingerprints identify comparable environments."""
    if not a or not b:
        return False
    keys = ("python", "implementation", "system", "machine", "cpus")
    return all(a.get(key) == b.get(key) for key in keys)


def utc_timestamp() -> str:
    """Current UTC time as an ISO-8601 string (seconds precision)."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


# ---------------------------------------------------------------------------
# Benchmark-trajectory regression gate
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Regression:
    """One benchmark that slowed past the tolerance band."""

    benchmark: str
    baseline_s: float
    candidate_s: float
    ratio: float
    tolerance: float

    def describe(self) -> str:
        return (
            f"{self.benchmark}: {self.candidate_s:.4f}s vs baseline "
            f"{self.baseline_s:.4f}s ({self.ratio:.2f}x, tolerance "
            f"{1.0 + self.tolerance:.2f}x)"
        )


def _result_map(record: Dict[str, Any]) -> Dict[str, Dict[str, Any]]:
    results = record.get("results", [])
    if not isinstance(results, list):
        raise ObservabilityError(
            "malformed trajectory record: 'results' must be a list"
        )
    return {r["id"]: r for r in results if isinstance(r, dict) and "id" in r}


def regress(
    candidate: Dict[str, Any],
    baseline: Dict[str, Any],
    tolerance: float = 0.30,
    min_seconds: float = 0.005,
    ignore_fingerprint: bool = False,
) -> List[Regression]:
    """Diff a candidate trajectory record against a baseline record.

    A benchmark regresses when its candidate median exceeds
    ``baseline_median * (1 + tolerance)`` *and* ``baseline_median +
    min_seconds`` (sub-noise-floor benchmarks never fail), *and* the
    fastest candidate run also exceeds the band — a genuine slowdown
    shows in every repeat, a scheduler hiccup does not. Benchmarks
    present in only one record are skipped (suites may grow).

    Records from different machines are incomparable; unless
    ``ignore_fingerprint`` is set they yield no findings (callers
    should surface the skip). Returns the regressions, worst first.
    """
    if not ignore_fingerprint and not same_machine(
        candidate.get("fingerprint"), baseline.get("fingerprint")
    ):
        return []
    base = _result_map(baseline)
    findings: List[Regression] = []
    for result in _result_map(candidate).values():
        reference = base.get(result["id"])
        if reference is None:
            continue
        base_s = float(reference["median_s"])
        cand_s = float(result["median_s"])
        threshold = max(base_s * (1.0 + tolerance), base_s + min_seconds)
        runs = [float(r) for r in result.get("runs_s", [])] or [cand_s]
        if cand_s > threshold and min(runs) > threshold:
            findings.append(
                Regression(
                    benchmark=result["id"],
                    baseline_s=base_s,
                    candidate_s=cand_s,
                    ratio=(cand_s / base_s) if base_s else float("inf"),
                    tolerance=tolerance,
                )
            )
    findings.sort(key=lambda f: f.ratio, reverse=True)
    return findings


def _main() -> int:  # pragma: no cover - thin debug helper
    """``python -m repro.obs.perf trace.jsonl`` prints a breakdown."""
    from repro.obs.exporters import read_trace_jsonl

    if len(sys.argv) != 2:
        print("usage: python -m repro.obs.perf TRACE.jsonl")
        return 2
    breakdown = phase_breakdown(read_trace_jsonl(sys.argv[1]))
    print(f"total wall: {breakdown['total_wall_s']:.4f}s")
    for phase in breakdown["phases"]:
        print(
            f"  {phase['name']:<28} x{phase['count']:<6} "
            f"self {phase['self_s']:.4f}s ({phase['share']:.1%})"
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(_main())
