"""Metrics: canonical names, a registry, and the fold that fills it.

Every metric is a fold of trace records. :func:`metrics_from_events` is
the one code that writes series, and :attr:`repro.obs.Observation.metrics`
is that fold over the observation's events, so the metrics of a run and
its trace cannot disagree. Emitters only emit events and spans; which
record a series counts is decided here, once.

The registry holds *series* keyed by ``(metric name, sorted labels)``.
Series are created on first touch; export with
:meth:`MetricsRegistry.to_prometheus` or :meth:`MetricsRegistry.snapshot`.
With observability off no trace is recorded and no registry is built;
:class:`~repro.core.result.CrowdSkylineResult` reports from the
platform's ``CrowdStats`` and cost records.

The module also fixes the canonical metric names (the paper's headline
quantities) so the fold, exporters and tests never spell them ad hoc.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, Iterator, List, Mapping, Tuple

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
    if not labels:
        return ()
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
    """Value set outright (a ratio derived from other series)."""

    kind = "gauge"
    __slots__ = ("name", "help", "labels", "value")

    def __init__(self, name: str, help: str, labels: _LabelKey):
        self.name = name
        self.help = help
        self.labels = labels
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


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


def metrics_from_events(
    events: Iterable[Mapping[str, Any]],
) -> MetricsRegistry:
    """Fold trace records into their metrics: the one writer of series.

    Each series counts or sums one kind of record (the table in
    ``docs/observability.md`` names it). The ``_seconds`` series sum
    the durations of their spans in the order the spans end, a span
    that raised included; a span that never ended adds nothing. A
    series exists once a record adds to it, and the derived
    mean-votes gauge once a question was asked.
    """
    registry = MetricsRegistry()
    counter = registry.counter
    open_spans: Dict[Any, Mapping[str, Any]] = {}
    for record in events:
        kind = record["kind"]
        if kind == "span_start":
            open_spans[record["span"]] = record
            continue
        name = record["name"]
        if kind == "span_end":
            start = open_spans.pop(record["span"], None)
            if start is not None:
                _fold_span(
                    registry, name, start["attrs"],
                    (record["ts"] - start["ts"]) / 1e9,
                )
            continue
        attrs = record["attrs"]
        if name == "crowd.round" or name == "crowd.round_merged":
            # A merged posting shares its predecessor's round.
            if name == "crowd.round":
                counter(ROUNDS).inc()
                registry.histogram(ROUND_SIZE).observe(attrs["questions"])
            counter(QUESTIONS_ASKED).inc(attrs["questions"])
            if attrs["assignments"]:
                counter(WORKER_ASSIGNMENTS).inc(attrs["assignments"])
        elif name == "crowd.batch":
            if attrs["cached"]:
                counter(CACHE_HITS).inc(attrs["cached"])
        elif name == "crowd.fault":
            fault = attrs["fault"]
            counter(FAULTS_INJECTED, kind=fault).inc()
            # An expired HIT is a missed deadline; a spam answer is
            # aggregated, but from spam votes.
            if fault == "timeout":
                counter(TIMEOUTS).inc()
            elif fault == "spam":
                counter(DEGRADED_ANSWERS).inc()
        elif name == "crowd.deadline":
            counter(TIMEOUTS).inc()
        elif name == "crowd.degraded":
            counter(DEGRADED_ANSWERS).inc()
        elif name == "crowd.retry":
            counter(RETRIES).inc()
        elif name == "crowd.backoff":
            counter(BACKOFF_ROUNDS).inc(attrs["rounds"])
        elif name == "crowd.unresolved":
            counter(UNRESOLVED_QUESTIONS, reason=attrs["reason"]).inc()
        elif name == "crowd.budget":
            counter(BUDGET_DENIALS).inc()
        elif name == "crowd.replayed":
            counter(REPLAYED_POSTINGS).inc()
        elif name == "journal.append":
            counter(JOURNAL_RECORDS).inc(attrs["records"])
        elif name == "engine.tuple":
            counter(TUPLES_EVALUATED, outcome=attrs["outcome"]).inc()
        elif name == "pref.totals":
            if attrs["closure_updates"]:
                counter(CLOSURE_UPDATES, backend=attrs["backend"]).inc(
                    attrs["closure_updates"]
                )
        elif name == "shard.stats":
            counter(SHARD_TUPLES_SHIPPED).inc(attrs["shipped"])
            counter(SHARD_DOMINANCE_CHECKS, stage="local").inc(
                attrs["local_checks"]
            )
            counter(SHARD_DOMINANCE_CHECKS, stage="merge").inc(
                attrs["merge_checks"]
            )
        elif name == "sweep.cached":
            counter(SWEEP_CELLS, status="cached").inc()
    questions = registry.total(QUESTIONS_ASKED)
    if questions:
        registry.gauge(MEAN_VOTES_PER_QUESTION).set(
            registry.total(WORKER_ASSIGNMENTS) / questions
        )
    return registry


def _fold_span(
    registry: MetricsRegistry,
    name: str,
    attrs: Mapping[str, Any],
    seconds: float,
) -> None:
    """Fold one ended span of ``seconds`` into ``registry``."""
    if name == "engine.ask_batch":
        # A batch that raised before its closure pass ended has no
        # counts.
        saved = attrs.get("saved")
        if saved:
            registry.counter(QUESTIONS_SAVED_TRANSITIVITY).inc(saved)
    elif name == "pref.apply_verdicts":
        registry.histogram(CLOSURE_BATCH_SIZE).observe(attrs["verdicts"])
    elif name.startswith("phase."):
        registry.counter(PHASE_SECONDS, phase=name[len("phase."):]).inc(
            seconds
        )
    elif name == "journal.fsync":
        registry.histogram(
            JOURNAL_FSYNC_SECONDS, buckets=LATENCY_BUCKETS_S
        ).observe(seconds)
    elif name == "sweep.cache_get" or name == "sweep.cache_put":
        registry.histogram(
            SWEEP_CACHE_LOOKUP_SECONDS,
            buckets=LATENCY_BUCKETS_S,
            status=attrs["status"],
        ).observe(seconds)
    elif name == "sweep.cell":
        registry.counter(SWEEP_CELLS, status="computed").inc()


def _format(value: float) -> str:
    """Render a sample value exactly: integers without a trailing
    ``.0``, fractions as the float's ``repr``."""
    if value.is_integer():
        return str(int(value))
    return repr(value)
