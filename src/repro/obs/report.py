"""Unified RunReport: one artifact per run, from trace + metrics.

A *RunReport* is a JSON document (with a Markdown rendering) that
answers the three questions every CrowdSky experiment is ultimately
about — where did the wall time go, where did the money go, and what
did the crowd actually do. It is assembled purely from recorded
artifacts (the JSONL trace, the Prometheus metrics dump, and optional
journal statistics passed in as plain dicts — this module sits in the
``obs`` layer and cannot import :mod:`repro.crowd`), so a report can be
produced long after the run, on a different machine, via ``crowdsky
report <trace-dir>``.

Money is modelled as the paper prices it (§6.2, AMT): each latency
round of *q* fresh questions costs :func:`round_hits` HITs,
``ceil(q / per_hit)``, and every HIT pays ``price`` to each of
``omega`` assigned workers. This module is the one home of that model:
it assigns :data:`DEFAULT_PRICE`, :data:`DEFAULT_OMEGA` and
:data:`QUESTIONS_PER_HIT`, which the crowd layer imports, and
:func:`round_hits` is the one HIT count that ``CrowdStats.hit_cost``,
the HIT ledger and :func:`price_rounds` share. :func:`price_rounds` is
the one pricer: it serves both this report (from round events, see
:func:`cost_from_events`) and
:meth:`~repro.core.result.CrowdSkylineResult.cost_breakdown` (from the
platform's cost records). Its total is computed with the *identical
expression* — ``price * omega * sum(hits)`` — so it matches
``hit_cost`` bit for bit; the acceptance tests pin that equality.

The text trace summary (:func:`summarize_trace`, ``crowdsky trace
summarize``) is a rendering of its JSON twin :func:`trace_summary`, so
the two print the same numbers.

Each of these reads the trace's span index (:func:`index_spans`). A
caller that needs several of them, as :func:`build_run_report` does,
indexes the trace once and passes the index down as ``spans``.
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, \
    Tuple

from repro.exceptions import TraceSchemaError
from repro.io.atomic import atomic_write_text
from repro.obs.perf import (
    SpanStats,
    _phase_table,
    index_spans,
    profile_spans,
    utc_timestamp,
)
from repro.obs.schema import trace_totals

#: AMT price per question per worker (§6.2: $0.02).
DEFAULT_PRICE = 0.02
#: Workers assigned per question (§5, §6.2: ω = 5).
DEFAULT_OMEGA = 5
#: Questions grouped into one HIT (§6.2). The simulated backend also
#: rolls faults per HIT of this size.
QUESTIONS_PER_HIT = 5

#: Event names that contribute fresh questions to a latency round.
ROUND_EVENTS = ("crowd.round", "crowd.round_merged")

#: Cost-context attributes stamped on round events (see
#: ``SimulatedCrowd.set_cost_context``); each becomes one breakdown
#: dimension.
COST_DIMENSIONS = ("scheduler", "phase", "layer", "tuple")

TRACE_SUMMARY_SCHEMA = "crowdsky.trace_summary/1"
RUN_REPORT_SCHEMA = "crowdsky.run_report/1"


# ---------------------------------------------------------------------------
# Trace summary (``crowdsky trace summarize [--format json]``)
# ---------------------------------------------------------------------------


def trace_summary(
    events: Sequence[Dict[str, Any]],
    spans: Optional[Dict[int, Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """The headline numbers of a trace, machine-readable, plus the
    per-span-name profile.

    :func:`summarize_trace` renders it as text. Validated by
    :func:`validate_trace_summary` and embedded verbatim in every
    RunReport.
    """
    return _summary(events, profile_spans(events, spans))


def _summary(
    events: Sequence[Dict[str, Any]], stats: Dict[str, SpanStats]
) -> Dict[str, Any]:
    """:func:`trace_summary` with the span profile ``stats`` built."""
    summary = _headline(events)
    summary["spans"] = [
        profile.to_dict() for _, profile in sorted(stats.items())
    ]
    return summary


def _headline(events: Sequence[Dict[str, Any]]) -> Dict[str, Any]:
    """:func:`trace_summary` without its span profile."""
    totals = trace_totals(events)
    faults: Dict[str, int] = {}
    for event in events:
        if event.get("name") == "crowd.fault":
            kind = str(event.get("attrs", {}).get("fault", "?"))
            faults[kind] = faults.get(kind, 0) + 1
    by_name: Dict[str, int] = {}
    for event in events:
        if event.get("kind") == "event":
            name = event.get("name", "?")
            by_name[name] = by_name.get(name, 0) + 1
    wall_s: Optional[float] = None
    if events:
        first = events[0].get("ts", 0)
        wall_s = (max(e.get("ts", 0) for e in events) - first) / 1e9
    return {
        "schema": TRACE_SUMMARY_SCHEMA,
        "events": len(events),
        "wall_s": wall_s,
        "rounds": totals["rounds"],
        "questions": totals["questions"],
        "retried": totals["retried"],
        "faults": faults,
        "events_by_name": by_name,
    }


def summarize_trace(events: Sequence[Dict[str, Any]]) -> str:
    """Human-readable report: the :func:`trace_summary` numbers, the
    event histogram and the span tree with durations."""
    summary = _headline(events)
    lines = ["== trace summary =="]
    lines.append(f"events:            {summary['events']}")
    if summary["wall_s"] is not None:
        lines.append(f"trace wall time:   {summary['wall_s'] * 1e3:.3f} ms")
    lines.append(f"rounds:            {summary['rounds']}")
    lines.append(f"questions asked:   {summary['questions']}")
    if summary["retried"]:
        lines.append(f"retried questions: {summary['retried']}")
    faults = summary["faults"]
    if faults:
        rendered = ", ".join(
            f"{kind}={count}" for kind, count in sorted(faults.items())
        )
        lines.append(f"injected faults:   {rendered}")

    by_name = summary["events_by_name"]
    if by_name:
        lines.append("")
        lines.append("-- events by name --")
        for name in sorted(by_name):
            lines.append(f"{by_name[name]:8d}  {name}")

    spans = index_spans(events)
    roots = [
        span_id for span_id, span in sorted(spans.items())
        if span["parent"] not in spans
    ]
    if roots:
        lines.append("")
        lines.append("-- span tree --")
        for root in roots:
            _render_span(spans, root, lines, 0)
    return "\n".join(lines)


def _render_span(
    spans: Dict[int, Dict[str, Any]],
    span_id: int,
    lines: List[str],
    depth: int,
) -> None:
    span = spans[span_id]
    if span["closed"] and span["start"] is not None:
        duration = f"{(span['end'] - span['start']) / 1e6:10.3f} ms"
    else:
        duration = "  (unclosed)"
    attrs = span["attrs"]
    suffix = ""
    if attrs:
        inner = ", ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
        suffix = f"  [{inner}]"
    lines.append(f"{duration}  {'  ' * depth}{span['name']}{suffix}")
    for child in span["children"]:
        _render_span(spans, child, lines, depth + 1)


def validate_trace_summary(document: Mapping[str, Any]) -> None:
    """Structural check; raises :class:`TraceSchemaError` on mismatch."""
    if document.get("schema") != TRACE_SUMMARY_SCHEMA:
        raise TraceSchemaError(
            f"not a trace summary: schema={document.get('schema')!r}"
        )
    for key, kinds in (
        ("events", int),
        ("rounds", int),
        ("questions", int),
        ("retried", int),
        ("faults", dict),
        ("events_by_name", dict),
        ("spans", list),
    ):
        if not isinstance(document.get(key), kinds):
            raise TraceSchemaError(
                f"trace summary field {key!r} missing or mistyped"
            )
    wall = document.get("wall_s")
    if wall is not None and not isinstance(wall, (int, float)):
        raise TraceSchemaError("trace summary field 'wall_s' mistyped")
    for span in document["spans"]:
        if not isinstance(span, dict) or "name" not in span:
            raise TraceSchemaError("trace summary span entry mistyped")


# ---------------------------------------------------------------------------
# Cost attribution from round events
# ---------------------------------------------------------------------------


def _run_span_of(spans: Dict[int, Dict[str, Any]]) -> Dict[Any, Any]:
    """Map each span id to its nearest ancestor span named ``run``
    (itself included), or None — the scope of one crowd instance's
    round counter."""
    resolved: Dict[Any, Any] = {}
    for span_id in spans:
        chain = []
        current = span_id
        while current in spans and current not in resolved:
            if spans[current]["name"] == "run":
                resolved[current] = current
                break
            chain.append(current)
            current = spans[current]["parent"]
        anchor = resolved.get(current)
        for link in chain:
            resolved[link] = anchor
    return resolved


def round_hits(questions: int, per_hit: int = QUESTIONS_PER_HIT) -> int:
    """HITs one latency round of ``questions`` fresh questions fills:
    ``ceil(questions / per_hit)`` (§6.2)."""
    return math.ceil(questions / per_hit)


def price_rounds(
    postings: Iterable[Tuple[Any, Mapping[str, Any], Mapping[str, Any]]],
    price: float = DEFAULT_PRICE,
    omega: int = DEFAULT_OMEGA,
    per_hit: int = QUESTIONS_PER_HIT,
) -> Dict[str, Any]:
    """Price postings by latency round and charge each round's money
    back to the cost context that caused it.

    ``postings`` yields ``(round key, counts, context)`` per posting:
    ``counts`` carries its ``questions``, ``retried`` and
    ``assignments``; ``context`` the cost context recorded with it
    (scheduler, phase, layer, tuple — see
    ``SimulatedCrowd.set_cost_context``). Postings that share a round
    key share that round's HIT arithmetic — a merged multiway posting
    adds its questions to its predecessor's round, exactly as
    :class:`CrowdStats` accounts them — and a round is attributed to
    the context of its first posting. Per-dimension costs each price an
    integer HIT count, and the grand total prices the integer sum — the
    same expression the ledger uses, so equality is exact.
    """
    per_round: Dict[Any, List[Any]] = {}
    questions = 0
    retried = 0
    assignments = 0
    for key, counts, context in postings:
        entry = per_round.get(key)
        if entry is None:
            entry = per_round[key] = [0, context]
        entry[0] += counts.get("questions", 0)
        questions += counts.get("questions", 0)
        retried += counts.get("retried", 0)
        assignments += counts.get("assignments", 0)

    total_hits = 0
    by_dimension: Dict[str, Dict[str, Dict[str, Any]]] = {
        dim: {} for dim in COST_DIMENSIONS
    }
    for round_questions, context in per_round.values():
        hits = round_hits(round_questions, per_hit)
        total_hits += hits
        for dim in COST_DIMENSIONS:
            value = context.get(dim)
            key = "(unattributed)" if value is None else str(value)
            bucket = by_dimension[dim].setdefault(
                key, {"rounds": 0, "questions": 0, "hits": 0}
            )
            bucket["rounds"] += 1
            bucket["questions"] += round_questions
            bucket["hits"] += hits
    for groups in by_dimension.values():
        for bucket in groups.values():
            bucket["cost"] = price * omega * bucket["hits"]
    return {
        "price": price,
        "omega": omega,
        "questions_per_hit": per_hit,
        "rounds": len(per_round),
        "questions": questions,
        "retried": retried,
        "assignments": assignments,
        "hits": total_hits,
        "total_cost": price * omega * total_hits,
        "by_scheduler": by_dimension["scheduler"],
        "by_phase": by_dimension["phase"],
        "by_layer": by_dimension["layer"],
        "by_tuple": by_dimension["tuple"],
    }


def cost_from_events(
    events: Sequence[Dict[str, Any]],
    price: float = DEFAULT_PRICE,
    omega: int = DEFAULT_OMEGA,
    per_hit: int = QUESTIONS_PER_HIT,
    spans: Optional[Dict[int, Dict[str, Any]]] = None,
) -> Dict[str, Any]:
    """Charge every round's money back to its recorded cost context.

    Round events (``crowd.round`` and ``crowd.round_merged``) carry the
    posting's counts and the context that caused it as attributes;
    :func:`price_rounds` prices them. Round counters restart with every
    crowd instance, so in a trace holding several runs (a sweep) the
    number alone would collide across runs; rounds are therefore keyed
    by (nearest enclosing ``run`` span, round number), which scopes the
    counter to its run.
    """
    run_of = _run_span_of(index_spans(events) if spans is None else spans)
    postings = []
    for event in events:
        if event.get("name") in ROUND_EVENTS:
            attrs = event.get("attrs", {})
            key = (run_of.get(event.get("span")), attrs.get("round"))
            postings.append((key, attrs, attrs))
    return price_rounds(postings, price=price, omega=omega, per_hit=per_hit)


# ---------------------------------------------------------------------------
# RunReport assembly / rendering / persistence
# ---------------------------------------------------------------------------


def build_run_report(
    events: Sequence[Dict[str, Any]],
    metrics: Optional[Mapping[str, float]] = None,
    journal: Optional[Mapping[str, Any]] = None,
    meta: Optional[Mapping[str, Any]] = None,
    price: float = DEFAULT_PRICE,
    omega: int = DEFAULT_OMEGA,
    per_hit: int = QUESTIONS_PER_HIT,
) -> Dict[str, Any]:
    """Assemble the RunReport document from recorded artifacts.

    ``metrics`` is a parsed Prometheus snapshot (``{series: value}``,
    see :func:`repro.obs.exporters.parse_prometheus_text`); ``journal``
    is a plain stats dict computed by the caller (the ``obs`` layer
    cannot read journals itself).
    """
    spans = index_spans(events)
    stats = profile_spans(events, spans)
    return {
        "schema": RUN_REPORT_SCHEMA,
        "generated_at": utc_timestamp(),
        "meta": dict(meta) if meta else {},
        "trace": _summary(events, stats),
        "profile": _phase_table(spans, stats),
        "cost": cost_from_events(
            events, price=price, omega=omega, per_hit=per_hit, spans=spans
        ),
        "metrics": dict(metrics) if metrics else {},
        "journal": dict(journal) if journal else None,
    }


def validate_run_report(document: Mapping[str, Any]) -> None:
    """Structural check; raises :class:`TraceSchemaError` on mismatch."""
    if document.get("schema") != RUN_REPORT_SCHEMA:
        raise TraceSchemaError(
            f"not a run report: schema={document.get('schema')!r}"
        )
    validate_trace_summary(document.get("trace", {}))
    profile = document.get("profile")
    if not isinstance(profile, dict) or "phases" not in profile:
        raise TraceSchemaError("run report field 'profile' missing or mistyped")
    cost = document.get("cost")
    if not isinstance(cost, dict) or "total_cost" not in cost:
        raise TraceSchemaError("run report field 'cost' missing or mistyped")
    if not isinstance(document.get("metrics"), dict):
        raise TraceSchemaError("run report field 'metrics' mistyped")


def _fmt_seconds(value: Optional[float]) -> str:
    if value is None:
        return "—"
    if value >= 1.0:
        return f"{value:.3f} s"
    return f"{value * 1000:.3f} ms"


def render_markdown(report: Mapping[str, Any]) -> str:
    """Render a RunReport as human-facing Markdown."""
    lines: List[str] = ["# CrowdSky run report", ""]
    meta = report.get("meta") or {}
    lines.append(f"Generated: {report.get('generated_at', '?')}")
    for key in sorted(meta):
        lines.append(f"- **{key}**: {meta[key]}")
    trace = report["trace"]
    lines += [
        "",
        "## Headline",
        "",
        f"| events | wall | rounds | questions | retried |",
        f"|---|---|---|---|---|",
        f"| {trace['events']} | {_fmt_seconds(trace['wall_s'])} "
        f"| {trace['rounds']} | {trace['questions']} "
        f"| {trace['retried']} |",
    ]
    if trace["faults"]:
        rendered = ", ".join(
            f"{kind}={count}" for kind, count in sorted(trace["faults"].items())
        )
        lines += ["", f"Injected faults: {rendered}"]

    profile = report["profile"]
    lines += [
        "",
        "## Where the time went",
        "",
        f"Total traced wall time: {_fmt_seconds(profile['total_wall_s'])}"
        + (
            f" (CPU {_fmt_seconds(profile['total_cpu_s'])})"
            if profile.get("total_cpu_s") is not None
            else ""
        ),
        "",
        "| phase | count | self | share | inclusive | cpu (self) |",
        "|---|---|---|---|---|---|",
    ]
    for phase in sorted(
        profile["phases"], key=lambda p: p["self_s"], reverse=True
    ):
        cpu = (
            _fmt_seconds(phase["self_cpu_s"])
            if phase.get("self_cpu_s") is not None
            else "—"
        )
        lines.append(
            f"| `{phase['name']}` | {phase['count']} "
            f"| {_fmt_seconds(phase['self_s'])} | {phase['share']:.1%} "
            f"| {_fmt_seconds(phase['wall_s'])} | {cpu} |"
        )

    cost = report["cost"]
    lines += [
        "",
        "## Where the money went",
        "",
        f"{cost['questions']} questions in {cost['rounds']} rounds → "
        f"{cost['hits']} HITs × {cost['omega']} workers × "
        f"${cost['price']:.2f} = **${cost['total_cost']:.2f}**",
    ]
    for dim, title in (
        ("by_scheduler", "By scheduler"),
        ("by_phase", "By phase"),
        ("by_layer", "By layer"),
    ):
        groups = cost.get(dim) or {}
        if not groups or set(groups) == {"(unattributed)"}:
            continue
        lines += [
            "",
            f"### {title}",
            "",
            "| group | rounds | questions | HITs | cost |",
            "|---|---|---|---|---|",
        ]
        for key in sorted(groups):
            bucket = groups[key]
            lines.append(
                f"| {key} | {bucket['rounds']} | {bucket['questions']} "
                f"| {bucket['hits']} | ${bucket['cost']:.2f} |"
            )

    journal = report.get("journal")
    if journal:
        lines += ["", "## Journal", ""]
        for key in sorted(journal):
            lines.append(f"- **{key}**: {journal[key]}")

    metrics = report.get("metrics") or {}
    fsync = {
        k: v for k, v in metrics.items()
        if k.startswith("crowdsky_journal_fsync_seconds")
        or k.startswith("crowdsky_sweep_cache_lookup_seconds")
    }
    if fsync:
        lines += [
            "",
            "## I/O latency series",
            "",
            "| series | value |",
            "|---|---|",
        ]
        for key in sorted(fsync):
            lines.append(f"| `{key}` | {fsync[key]:g} |")
    lines.append("")
    return "\n".join(lines)


def write_run_report(report: Mapping[str, Any], directory: str) -> Dict[str, str]:
    """Persist ``report.json`` + ``report.md`` atomically under
    ``directory``; returns the written paths."""
    import os

    validate_run_report(report)
    os.makedirs(directory, exist_ok=True)
    json_path = os.path.join(directory, "report.json")
    md_path = os.path.join(directory, "report.md")
    atomic_write_text(json_path, json.dumps(report, indent=2, sort_keys=True) + "\n")
    atomic_write_text(md_path, render_markdown(report))
    return {"json": json_path, "markdown": md_path}
