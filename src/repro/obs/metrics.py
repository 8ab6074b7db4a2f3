"""Metrics registry: counters, gauges and fixed-bucket histograms.

The registry holds *series* keyed by ``(metric name, sorted labels)``.
Series are created on first touch and accumulate for the registry's
lifetime; export with :meth:`MetricsRegistry.to_prometheus` or
:meth:`MetricsRegistry.snapshot`.

One registry exists per observed scope: the globally installed
:class:`~repro.obs.Observation` (when tracing is on) receives every
increment, aggregated across every run in its scope — it is what
``--metrics`` exports. With observability off no registry is built;
:class:`~repro.core.result.CrowdSkylineResult` reports from the
platform's ``CrowdStats`` and cost records, which the counters mirror.

The module also fixes the canonical metric names (the paper's headline
quantities) so emitters, exporters and tests never spell them ad hoc.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Tuple

from repro.exceptions import ObservabilityError

# -- canonical metric names -------------------------------------------------

#: Micro-questions posted to workers (the paper's monetary-cost driver).
QUESTIONS_ASKED = "crowdsky_questions_asked_total"
#: Executed platform rounds (the paper's latency unit).
ROUNDS = "crowdsky_rounds_total"
#: Individual worker assignments that returned a vote.
WORKER_ASSIGNMENTS = "crowdsky_worker_assignments_total"
#: Questions served from the platform answer cache (never re-asked).
CACHE_HITS = "crowdsky_cache_hits_total"
#: Attribute-questions answerable from the preference graph (directly or
#: via transitivity) without asking the crowd.
QUESTIONS_SAVED_TRANSITIVITY = "crowdsky_questions_saved_transitivity_total"
#: Pair-relation lookups answered from the preference system's memo
#: (no closure query needed), labelled by ``backend``.
PREF_CACHE_HITS = "crowdsky_pref_cache_hits_total"
#: Incremental transitive-closure maintenance updates (reference cache
#: invalidations or numpy closure-row writes), labelled by ``backend``.
CLOSURE_UPDATES = "crowdsky_closure_updates_total"
#: Question re-posts after an injected fault.
RETRIES = "crowdsky_retries_total"
#: Missed deadlines: expired HITs plus per-question retry deadlines.
TIMEOUTS = "crowdsky_timeouts_total"
#: Idle rounds spent waiting out retry backoff.
BACKOFF_ROUNDS = "crowdsky_backoff_rounds_total"
#: Questions permanently given up on, labelled by ``reason``.
UNRESOLVED_QUESTIONS = "crowdsky_unresolved_questions_total"
#: Answers aggregated from fewer votes than assigned or from spam.
DEGRADED_ANSWERS = "crowdsky_degraded_answers_total"
#: Injected fault events, labelled by ``kind``.
FAULTS_INJECTED = "crowdsky_faults_injected_total"
#: Rounds refused because they would exceed the question budget.
BUDGET_DENIALS = "crowdsky_budget_denials_total"
#: Tuples whose skyline status was decided.
TUPLES_EVALUATED = "crowdsky_tuples_evaluated_total"
#: Histogram of executed round sizes (questions per round).
ROUND_SIZE = "crowdsky_round_size_questions"
#: Histogram of verdicts committed per closure transaction (one
#: :meth:`~repro.core.preference.PreferenceSystem.apply_verdicts` call
#: per crowd round).
CLOSURE_BATCH_SIZE = "crowdsky_closure_batch_size"
#: Wall seconds spent per instrumented phase, labelled by ``phase``.
PHASE_SECONDS = "crowdsky_phase_seconds_total"
#: Derived gauge: worker assignments per posted question.
MEAN_VOTES_PER_QUESTION = "crowdsky_mean_votes_per_question"
#: Sweep cells finished, labelled by ``status`` (computed / cached).
SWEEP_CELLS = "crowdsky_sweep_cells_total"
#: Records appended to the write-ahead vote journal.
JOURNAL_RECORDS = "crowdsky_journal_records_total"
#: Postings served from a journal replay instead of a live backend.
REPLAYED_POSTINGS = "crowdsky_replayed_postings_total"
#: Seconds spent in one journal flush+fsync (histogram; the durability
#: tax every committed posting pays).
JOURNAL_FSYNC_SECONDS = "crowdsky_journal_fsync_seconds"
#: Seconds spent in one sweep-cache lookup or store (histogram),
#: labelled by ``status`` (hit / miss / corrupt / store).
SWEEP_CACHE_LOOKUP_SECONDS = "crowdsky_sweep_cache_lookup_seconds"
#: Candidate tuples shipped from shards to the merge coordinator by the
#: sharded machine phase (stays near the skyline size, not ``n``).
SHARD_TUPLES_SHIPPED = "crowdsky_shard_tuples_shipped_total"
#: Candidate pairs evaluated by the sharded machine phase, labelled by
#: ``stage`` (local / merge).
SHARD_DOMINANCE_CHECKS = "crowdsky_shard_dominance_checks_total"

#: Bucket upper bounds for :data:`ROUND_SIZE`.
ROUND_SIZE_BUCKETS = (1.0, 2.0, 5.0, 10.0, 20.0, 50.0, 100.0, 200.0, 500.0)

#: Bucket upper bounds (seconds) for the I/O latency histograms
#: (:data:`JOURNAL_FSYNC_SECONDS`, :data:`SWEEP_CACHE_LOOKUP_SECONDS`).
LATENCY_BUCKETS_S = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0,
)

#: Default help strings attached on first registration.
DEFAULT_HELP: Dict[str, str] = {
    QUESTIONS_ASKED: "Micro-questions posted to the crowd",
    ROUNDS: "Executed platform rounds",
    WORKER_ASSIGNMENTS: "Worker assignments that returned a vote",
    CACHE_HITS: "Questions served from the platform answer cache",
    QUESTIONS_SAVED_TRANSITIVITY:
        "Attribute-questions derived from the preference graph for free",
    PREF_CACHE_HITS:
        "Pair-relation lookups served from the preference-system memo",
    CLOSURE_UPDATES:
        "Transitive-closure maintenance updates in the preference graphs",
    RETRIES: "Question re-posts after an injected fault",
    TIMEOUTS: "Expired HITs plus missed per-question retry deadlines",
    BACKOFF_ROUNDS: "Idle rounds spent waiting out retry backoff",
    UNRESOLVED_QUESTIONS: "Questions permanently given up on",
    DEGRADED_ANSWERS: "Answers aggregated from partial or spam votes",
    FAULTS_INJECTED: "Injected platform fault events",
    BUDGET_DENIALS: "Rounds refused by the question budget",
    TUPLES_EVALUATED: "Tuples whose skyline status was decided",
    ROUND_SIZE: "Questions per executed round",
    CLOSURE_BATCH_SIZE: "Verdicts committed per closure transaction",
    PHASE_SECONDS: "Wall seconds spent per instrumented phase",
    MEAN_VOTES_PER_QUESTION: "Worker assignments per posted question",
    SWEEP_CELLS: "Sweep cells finished, by status",
    JOURNAL_RECORDS: "Records appended to the write-ahead vote journal",
    REPLAYED_POSTINGS: "Postings served from a journal replay",
    JOURNAL_FSYNC_SECONDS: "Seconds spent in one journal flush+fsync",
    SWEEP_CACHE_LOOKUP_SECONDS:
        "Seconds spent in one sweep-cache lookup or store, by status",
    SHARD_TUPLES_SHIPPED:
        "Candidate tuples shipped from shards to the merge coordinator",
    SHARD_DOMINANCE_CHECKS:
        "Candidate pairs evaluated by the sharded machine phase, by stage",
}

_LabelKey = Tuple[Tuple[str, str], ...]


def _label_key(labels: Dict[str, str]) -> _LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _render_labels(labels: _LabelKey) -> str:
    if not labels:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in labels)
    return "{" + inner + "}"


class Counter:
    """Monotonically increasing value."""

    kind = "counter"
    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str, help: str, labels: _LabelKey):
        self.name = name
        self.help = help
        self.labels = labels
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ObservabilityError("counters only go up")
        self.value += amount


class Gauge:
    """Value that can go up and down (or be set outright)."""

    kind = "gauge"
    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str, help: str, labels: _LabelKey):
        self.name = name
        self.help = help
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Histogram:
    """Fixed-boundary cumulative histogram (Prometheus semantics)."""

    kind = "histogram"
    __slots__ = ("name", "help", "labels", "buckets", "counts", "sum",
                 "count")

    def __init__(
        self, name: str, help: str, labels: _LabelKey,
        buckets: Tuple[float, ...],
    ):
        if not buckets or list(buckets) != sorted(buckets):
            raise ObservabilityError(
                "histogram buckets must be a non-empty ascending sequence"
            )
        self.name = name
        self.help = help
        self.labels = labels
        self.buckets = tuple(float(b) for b in buckets)
        self.counts = [0] * (len(buckets) + 1)  # last bucket is +Inf
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.sum += value
        self.count += 1
        for index, bound in enumerate(self.buckets):
            if value <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def cumulative(self) -> List[int]:
        """Cumulative per-bucket counts ending with the +Inf bucket."""
        total = 0
        out = []
        for c in self.counts:
            total += c
            out.append(total)
        return out


class MetricsRegistry:
    """Get-or-create home for metric series."""

    def __init__(self) -> None:
        self._series: Dict[Tuple[str, _LabelKey], Any] = {}

    def _get(self, cls, name: str, help: str, labels: Dict[str, str],
             **kwargs: Any):
        key = (name, _label_key(labels))
        series = self._series.get(key)
        if series is None:
            series = cls(
                name, help or DEFAULT_HELP.get(name, ""), key[1], **kwargs
            )
            self._series[key] = series
        elif not isinstance(series, cls):
            raise ObservabilityError(
                f"metric {name!r} already registered as {series.kind}"
            )
        return series

    def counter(self, name: str, help: str = "", **labels: str) -> Counter:
        return self._get(Counter, name, help, labels)

    def gauge(self, name: str, help: str = "", **labels: str) -> Gauge:
        return self._get(Gauge, name, help, labels)

    def histogram(
        self,
        name: str,
        help: str = "",
        buckets: Iterable[float] = ROUND_SIZE_BUCKETS,
        **labels: str,
    ) -> Histogram:
        return self._get(
            Histogram, name, help, labels, buckets=tuple(buckets)
        )

    # -- reading ------------------------------------------------------------

    def value(self, name: str, **labels: str) -> float:
        """Current value of one series (a histogram's observation count);
        0.0 when the series does not exist."""
        series = self._series.get((name, _label_key(labels)))
        if series is None:
            return 0.0
        if isinstance(series, Histogram):
            return float(series.count)
        return float(series.value)

    def total(self, name: str) -> float:
        """Sum of a metric across all of its label sets."""
        total = 0.0
        for (series_name, _), series in self._series.items():
            if series_name != name:
                continue
            if isinstance(series, Histogram):
                total += series.count
            else:
                total += series.value
        return total

    def series(self) -> List[Any]:
        """All series, sorted by (name, labels) for stable export."""
        return [
            self._series[key] for key in sorted(self._series.keys())
        ]

    def _samples(self) -> Iterator[Tuple[Any, str, float]]:
        """Every exported sample as ``(series, key, value)``, in
        :meth:`series` order: one per counter or gauge, and per
        histogram its cumulative ``_bucket`` keys, ``_sum`` and
        ``_count``. The one expansion behind :meth:`snapshot` and
        :meth:`to_prometheus`."""
        for series in self.series():
            name = series.name
            rendered = _render_labels(series.labels)
            if isinstance(series, Histogram):
                bounds = [str(b) for b in series.buckets] + ["+Inf"]
                for bound, count in zip(bounds, series.cumulative()):
                    labels = _label_key(dict(series.labels, le=bound))
                    key = f"{name}_bucket{_render_labels(labels)}"
                    yield series, key, float(count)
                yield series, f"{name}_sum{rendered}", series.sum
                yield series, f"{name}_count{rendered}", float(series.count)
            else:
                yield series, f"{name}{rendered}", float(series.value)

    def snapshot(self) -> Dict[str, float]:
        """Flat ``{'name{labels}': value}`` view (histograms expand to
        ``_sum`` / ``_count`` / cumulative ``_bucket`` keys)."""
        return {key: value for _, key, value in self._samples()}

    # -- cross-process merging ----------------------------------------------

    def dump(self) -> List[Dict[str, Any]]:
        """Serialize every series to JSON-able dicts (for shipping a
        worker process's registry back to the parent; see
        :meth:`absorb`)."""
        out: List[Dict[str, Any]] = []
        for series in self.series():
            record: Dict[str, Any] = {
                "kind": series.kind,
                "name": series.name,
                "help": series.help,
                "labels": [list(pair) for pair in series.labels],
            }
            if isinstance(series, Histogram):
                record["buckets"] = list(series.buckets)
                record["counts"] = list(series.counts)
                record["sum"] = series.sum
                record["count"] = series.count
            else:
                record["value"] = series.value
            out.append(record)
        return out

    def absorb(self, records: Iterable[Dict[str, Any]]) -> None:
        """Merge a :meth:`dump` from another registry into this one.

        Counters and gauges add their values; histograms add per-bucket
        counts (boundaries must match). Used to fold worker-process
        metrics into the parent observation after a parallel sweep.
        """
        for record in records:
            labels = {k: v for k, v in record.get("labels", [])}
            kind = record.get("kind")
            name = record["name"]
            help_text = record.get("help", "")
            if kind == "histogram":
                series = self.histogram(
                    name, help_text,
                    buckets=tuple(record["buckets"]), **labels,
                )
                if list(series.buckets) != [
                    float(b) for b in record["buckets"]
                ]:
                    raise ObservabilityError(
                        f"histogram {name!r} bucket mismatch on absorb"
                    )
                for index, count in enumerate(record["counts"]):
                    series.counts[index] += count
                series.sum += record["sum"]
                series.count += record["count"]
            elif kind == "gauge":
                self.gauge(name, help_text, **labels).inc(record["value"])
            elif kind == "counter":
                self.counter(name, help_text, **labels).inc(
                    record["value"]
                )
            else:
                raise ObservabilityError(
                    f"cannot absorb series of kind {kind!r}"
                )

    def to_prometheus(self) -> str:
        """Prometheus text exposition of every series: the
        :meth:`snapshot` samples under ``# HELP`` / ``# TYPE`` lines."""
        lines: List[str] = []
        described = set()
        for series, key, value in self._samples():
            if series.name not in described:
                described.add(series.name)
                if series.help:
                    lines.append(f"# HELP {series.name} {series.help}")
                lines.append(f"# TYPE {series.name} {series.kind}")
            lines.append(f"{key} {_format(value)}")
        return "\n".join(lines) + ("\n" if lines else "")


def _format(value: float) -> str:
    """Render a sample value exactly: integers without a trailing
    ``.0``, fractions as the float's ``repr``."""
    if value.is_integer():
        return str(int(value))
    return repr(value)
