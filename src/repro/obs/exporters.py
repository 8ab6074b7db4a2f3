"""Trace and metrics exporters.

Two output formats:

* **JSONL traces** — one event record per line
  (:func:`write_trace_jsonl` / :func:`read_trace_jsonl`), the archival
  format every ``--trace`` run persists,
* **Prometheus text** — :func:`write_metrics_prometheus` dumps a
  :class:`~repro.obs.metrics.MetricsRegistry`;
  :func:`parse_prometheus_text` reads the dump back for cross-checking
  traces against counters.

The human-readable trace summary lives beside its JSON twin in
:mod:`repro.obs.report` (:func:`~repro.obs.report.summarize_trace`).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List

from repro.exceptions import TraceSchemaError
from repro.io.atomic import atomic_write_text
from repro.obs.metrics import MetricsRegistry


def write_trace_jsonl(events: Iterable[Dict[str, Any]], path: str) -> int:
    """Write event records as JSON Lines; returns the number written.

    The file is replaced atomically, so a crash mid-export leaves any
    previous trace intact rather than a torn half-written one.
    """
    lines = [
        json.dumps(event, separators=(",", ":")) for event in events
    ]
    atomic_write_text(path, "".join(line + "\n" for line in lines))
    return len(lines)


def read_trace_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a JSONL trace; raises :class:`TraceSchemaError` on non-JSON
    lines (blank lines are tolerated)."""
    events: List[Dict[str, Any]] = []
    with open(path) as handle:
        for number, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                events.append(json.loads(line))
            except json.JSONDecodeError as error:
                raise TraceSchemaError(
                    f"{path}:{number}: not valid JSON ({error})"
                ) from None
    return events


def write_metrics_prometheus(registry: MetricsRegistry, path: str) -> None:
    """Dump a registry in Prometheus text exposition format
    (atomically — scrapers never observe a partial dump)."""
    atomic_write_text(path, registry.to_prometheus())


def parse_prometheus_text(text: str) -> Dict[str, float]:
    """Parse a Prometheus text dump back into ``{series: value}``.

    Series keys keep their label string (``name{k="v"}``) exactly as
    rendered, so ``parse_prometheus_text(registry.to_prometheus()) ==
    registry.snapshot()``: both expand the registry's series through one
    helper, and values are written exactly.
    """
    values: Dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        if not key:
            raise TraceSchemaError(f"malformed metrics line: {line!r}")
        try:
            values[key] = float(value)
        except ValueError:
            raise TraceSchemaError(
                f"malformed metrics value in line: {line!r}"
            ) from None
    return values
