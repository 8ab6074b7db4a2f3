"""The trace event schema and its validator.

Every record a :class:`~repro.obs.tracer.Tracer` emits has the shape::

    {"ts": int >= 0, "kind": "event" | "span_start" | "span_end",
     "name": str, "span": int | None, "parent": int | None,
     "attrs": {...}}

with ``ts`` non-decreasing across the trace and span start/end records
properly paired. :data:`EVENT_ATTRS` fixes the required attributes of
every known event name (see ``docs/observability.md`` for prose); the
validator checks structure always and attribute types for known names.

Use :func:`validate_events` on in-memory records,
:func:`validate_jsonl` on a persisted trace, and
:func:`check_metrics_consistency` to check a Prometheus dump against
the trace of the same run: the dump must hold exactly the series the
trace folds to (:func:`repro.obs.metrics.metrics_from_events`). Every
event the fold reads is registered here with the attributes it reads.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from repro.obs.metrics import metrics_from_events
from repro.obs.exporters import read_trace_jsonl

#: Schema version persisted in docs; bump when the shape changes.
TRACE_SCHEMA_VERSION = 1

KINDS = frozenset({"event", "span_start", "span_end"})

#: Required attributes (name -> type or tuple of accepted types) per
#: known event name. Unknown names pass structural validation only,
#: unless the validator is asked for ``strict_names``.
EVENT_ATTRS: Dict[str, Dict[str, Tuple[type, ...]]] = {
    "crowd.round": {
        "round": (int,),
        "questions": (int,),
        "assignments": (int,),
        "retried": (int,),
        "format": (str,),
    },
    # A posting merged into the immediately preceding round (mixed
    # pairwise+multiway batches cost one latency round): counts toward
    # question totals but not the round count.
    "crowd.round_merged": {
        "round": (int,),
        "questions": (int,),
        "assignments": (int,),
        "retried": (int,),
        "format": (str,),
    },
    # A sweep cell served from the result cache; the crowd work it
    # skipped is deliberately absent from the trace and metrics.
    "sweep.cached": {"id": (str,), "seed": (int,)},
    "crowd.batch": {
        "requested": (int,),
        "fresh": (int,),
        "cached": (int,),
        "format": (str,),
    },
    "crowd.estimate": {"question": (list,), "value": (int, float)},
    "crowd.fault": {"question": (list,), "fault": (str,)},
    # An answer aggregated from fewer votes than were assigned (a spam
    # answer emits crowd.fault instead).
    "crowd.degraded": {"question": (list,)},
    # A question's retry deadline passed before its next posting.
    "crowd.deadline": {"question": (list,)},
    # Retried questions wait ``rounds`` idle rounds before re-posting.
    "crowd.backoff": {"rounds": (int,)},
    # A posting was served from a journal replay, not a live backend.
    "crowd.replayed": {},
    "crowd.retry": {
        "question": (list,),
        "attempt": (int,),
        "backoff": (int,),
    },
    "crowd.unresolved": {"question": (list,), "reason": (str,)},
    "crowd.budget": {
        "budget": (int,),
        "spent": (int,),
        "requested": (int,),
        "strict": (bool,),
    },
    # A corrupted journal was cut back to its longest valid prefix
    # (torn tail, checksum mismatch, epoch violation, dead segment).
    "journal.recovered": {
        "epochs": (int,),
        "records": (int,),
        "dropped": (int,),
        "reason": (str,),
    },
    # An interrupted run was resumed from its journal: ``replayed``
    # recorded postings were served before going live.
    "run.resumed": {"algorithm": (str,), "replayed": (int,)},
    # A posting's ``records`` were appended to the write-ahead journal.
    "journal.append": {"records": (int,)},
    "engine.tuple": {"t": (int,), "outcome": (str,)},
    "engine.visible_seed": {"edges": (int,)},
    # A run's closure memo hits and closure updates, once per run.
    "pref.totals": {
        "backend": (str,),
        "cache_hits": (int,),
        "closure_updates": (int,),
    },
    # The sharded machine phase's merge traffic and dominance checks.
    "shard.stats": {
        "shipped": (int,),
        "local_checks": (int,),
        "merge_checks": (int,),
    },
}


def validate_events(
    events: List[Dict[str, Any]], strict_names: bool = False
) -> List[str]:
    """Check a trace against the schema; returns a list of problems
    (empty when valid).

    ``strict_names`` additionally rejects event names outside
    :data:`EVENT_ATTRS` (span names are free-form either way).
    """
    errors: List[str] = []
    open_spans: Dict[int, str] = {}
    last_ts = None
    for index, event in enumerate(events):
        where = f"event {index}"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        missing = {"ts", "kind", "name", "span", "attrs"} - set(event)
        if missing:
            errors.append(f"{where}: missing keys {sorted(missing)}")
            continue
        ts, kind, name = event["ts"], event["kind"], event["name"]
        span, attrs = event["span"], event["attrs"]
        if not isinstance(ts, int) or isinstance(ts, bool) or ts < 0:
            errors.append(f"{where}: ts must be a non-negative integer")
            continue
        if last_ts is not None and ts < last_ts:
            errors.append(f"{where}: ts went backwards ({ts} < {last_ts})")
        last_ts = ts
        if kind not in KINDS:
            errors.append(f"{where}: unknown kind {kind!r}")
            continue
        if not isinstance(name, str) or not name:
            errors.append(f"{where}: name must be a non-empty string")
            continue
        if not isinstance(attrs, dict):
            errors.append(f"{where}: attrs must be an object")
            continue

        if kind == "span_start":
            if not isinstance(span, int):
                errors.append(f"{where}: span_start needs an integer span id")
            elif span in open_spans:
                errors.append(f"{where}: span {span} started twice")
            else:
                open_spans[span] = name
        elif kind == "span_end":
            if span not in open_spans:
                errors.append(
                    f"{where}: span_end for unknown/closed span {span!r}"
                )
            elif open_spans[span] != name:
                errors.append(
                    f"{where}: span {span} ends as {name!r} but started "
                    f"as {open_spans[span]!r}"
                )
                del open_spans[span]
            else:
                del open_spans[span]
        else:  # plain event
            if span is not None and span not in open_spans:
                errors.append(
                    f"{where}: event references non-open span {span!r}"
                )
            required = EVENT_ATTRS.get(name)
            if required is None:
                if strict_names:
                    errors.append(f"{where}: unknown event name {name!r}")
                continue
            for attr, types in required.items():
                if attr not in attrs:
                    errors.append(
                        f"{where}: {name} missing attr {attr!r}"
                    )
                    continue
                value = attrs[attr]
                # bool is an int subclass; only accept it where declared.
                if isinstance(value, bool) and bool not in types:
                    errors.append(
                        f"{where}: {name}.{attr} must be "
                        f"{'/'.join(t.__name__ for t in types)}, got bool"
                    )
                elif not isinstance(value, types):
                    errors.append(
                        f"{where}: {name}.{attr} must be "
                        f"{'/'.join(t.__name__ for t in types)}, "
                        f"got {type(value).__name__}"
                    )
    for span, name in open_spans.items():
        errors.append(f"span {span} ({name!r}) never ended")
    return errors


def validate_jsonl(path: str, strict_names: bool = False) -> List[str]:
    """Validate a persisted JSONL trace; returns the problem list."""
    return validate_events(read_trace_jsonl(path), strict_names)


def trace_totals(events: List[Dict[str, Any]]) -> Dict[str, int]:
    """Headline totals recomputed from ``crowd.round`` events.

    ``crowd.round_merged`` postings share their predecessor's latency
    round, so they add questions but not rounds.
    """
    rounds = [e for e in events if e.get("name") == "crowd.round"]
    postings = rounds + [
        e for e in events if e.get("name") == "crowd.round_merged"
    ]
    return {
        "rounds": len(rounds),
        "questions": sum(
            e.get("attrs", {}).get("questions", 0) for e in postings
        ),
        "retried": sum(
            e.get("attrs", {}).get("retried", 0) for e in postings
        ),
    }


def check_metrics_consistency(
    events: List[Dict[str, Any]], values: Mapping[str, float]
) -> List[str]:
    """Check a metrics dump against the trace of the same run.

    The dump must hold exactly the series the trace folds to
    (:func:`~repro.obs.metrics.metrics_from_events`), each with the
    same value; returns the problems found.
    """
    folded = metrics_from_events(events).snapshot()
    errors: List[str] = []
    for key in sorted(set(folded) | set(values)):
        if key not in values:
            errors.append(f"metrics dump is missing {key}")
        elif key not in folded:
            errors.append(f"trace records nothing for exported {key}")
        elif values[key] != folded[key]:
            errors.append(
                f"trace folds {key} to {folded[key]!r}, "
                f"dump exports {values[key]!r}"
            )
    return errors
