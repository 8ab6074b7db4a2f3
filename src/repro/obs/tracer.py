"""Zero-dependency structured event tracer.

A :class:`Tracer` records an append-only list of *event records* — plain
dicts, one per emission, ready for JSONL export::

    {"ts": <int ns>, "kind": "event" | "span_start" | "span_end",
     "name": <str>, "span": <int | None>, "parent": <int | None>,
     "attrs": {...}}

``ts`` is nanoseconds of monotonic time since the tracer was created
(:func:`time.perf_counter_ns`), so traces are ordering- and
duration-faithful but carry no wall-clock identity. Span records
additionally carry a ``"cpu"`` key — nanoseconds of process CPU time
(:func:`time.process_time_ns`) relative to the same origin — so the
profiler (:mod:`repro.obs.perf`) can split wall time into CPU work vs
waiting (fsync, simulated crowd latency). Like ``ts``, the ``cpu``
stamps are stripped by the determinism tests: they vary run to run.
Spans nest via :mod:`contextvars`: events emitted inside a ``with
tracer.span(...)`` block are stamped with the enclosing span's id, and
nested spans record their parent — the context-local stack survives
generators and ``asyncio`` tasks.

A worker process's records join the trace through :meth:`Tracer.absorb`,
which keeps their durations: a parallel sweep's trace reads as its
cells run one after another.

The module-level :data:`NOOP_TRACER` is the disabled singleton: every
instrumentation site guards with ``tracer.enabled`` (or checks the
observation, see :mod:`repro.obs`), so tracing costs one attribute read
per emission site when observability is off.

Determinism: span ids are a per-tracer counter and every attribute comes
from the caller, so two runs with identical seeds produce identical
event sequences *modulo the* ``ts`` *values* — the property the
``obs``-marked tests pin down.
"""

from __future__ import annotations

import contextvars
import os
import time
from typing import Any, Callable, Dict, List, Optional

#: Record kinds a tracer emits.
EVENT = "event"
SPAN_START = "span_start"
SPAN_END = "span_end"

#: Set to ``1`` to make every tracer reject unregistered event names at
#: emission time (the runtime twin of the static RA005 rule); the
#: check is resolved once per tracer at construction.
STRICT_ENV_VAR = "REPRO_OBS_STRICT"


def _strict_checker() -> Optional[Callable[[str], None]]:
    """The strict-mode name check, or ``None`` when strict mode is off.

    Imported lazily so the hot path pays nothing when strict mode is
    disabled and module import order stays trivial.
    """
    if os.environ.get(STRICT_ENV_VAR, "").strip() != "1":
        return None
    from repro.obs.schema import assert_known

    return assert_known


class Span:
    """One traced region; use as a context manager.

    Entering emits a ``span_start`` record and makes the span current
    (events and child spans attach to it); exiting emits ``span_end``.
    :attr:`attrs` is the start record's attribute dict, so an attribute
    known only inside the span (a lookup's outcome) is set there before
    exit. After exit, :attr:`duration_ns` / :attr:`duration_s` hold the
    monotonic wall time spent inside.
    """

    __slots__ = (
        "_tracer", "name", "attrs", "span_id", "parent",
        "start_ns", "end_ns", "_token",
    )

    def __init__(self, tracer: "Tracer", name: str, attrs: Dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.attrs = attrs
        self.span_id: Optional[int] = None
        self.parent: Optional[int] = None
        self.start_ns: Optional[int] = None
        self.end_ns: Optional[int] = None
        self._token: Optional[contextvars.Token] = None

    def __enter__(self) -> "Span":
        tracer = self._tracer
        self.span_id = tracer._next_id()
        self.parent = tracer._current.get()
        self.start_ns = tracer._now()
        tracer._emit(
            self.start_ns, SPAN_START, self.name, self.span_id,
            self.parent, self.attrs, cpu=tracer._cpu_now(),
        )
        self._token = tracer._current.set(self.span_id)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        tracer = self._tracer
        if self._token is not None:
            tracer._current.reset(self._token)
        self.end_ns = tracer._now()
        tracer._emit(
            self.end_ns, SPAN_END, self.name, self.span_id, self.parent,
            {"error": True} if exc_type is not None else {},
            cpu=tracer._cpu_now(),
        )
        return False

    @property
    def duration_ns(self) -> Optional[int]:
        """Nanoseconds spent inside the span (None before exit)."""
        if self.start_ns is None or self.end_ns is None:
            return None
        return self.end_ns - self.start_ns

    @property
    def duration_s(self) -> Optional[float]:
        """Seconds spent inside the span (None before exit)."""
        duration = self.duration_ns
        return None if duration is None else duration / 1e9


class Tracer:
    """Collects structured events in memory (export via
    :mod:`repro.obs.exporters`)."""

    enabled = True

    def __init__(
        self,
        clock: Callable[[], int] = time.perf_counter_ns,
        cpu_clock: Callable[[], int] = time.process_time_ns,
    ):
        self._clock = clock
        self._origin = clock()
        self._cpu_clock = cpu_clock
        self._cpu_origin = cpu_clock()
        self._assert_known = _strict_checker()
        self._counter = 0
        self._current: contextvars.ContextVar[Optional[int]] = (
            contextvars.ContextVar("repro_obs_span", default=None)
        )
        #: The recorded event dicts, in emission order.
        self.events: List[Dict[str, Any]] = []

    def _now(self) -> int:
        return self._clock() - self._origin

    def _cpu_now(self) -> int:
        return self._cpu_clock() - self._cpu_origin

    def _next_id(self) -> int:
        self._counter += 1
        return self._counter

    def _emit(
        self,
        ts: int,
        kind: str,
        name: str,
        span: Optional[int],
        parent: Optional[int],
        attrs: Dict[str, Any],
        cpu: Optional[int] = None,
    ) -> None:
        record = {
            "ts": ts,
            "kind": kind,
            "name": name,
            "span": span,
            "parent": parent,
            "attrs": attrs,
        }
        if cpu is not None:
            record["cpu"] = cpu
        self.events.append(record)

    def event(self, name: str, **attrs: Any) -> None:
        """Emit one point-in-time event under the current span.

        In strict mode (``REPRO_OBS_STRICT=1`` at tracer construction)
        the name must be registered in
        :data:`repro.obs.schema.EVENT_ATTRS`.
        """
        if self._assert_known is not None:
            self._assert_known(name)
        current = self._current.get()
        self._emit(self._now(), EVENT, name, current, current, attrs)

    def span(self, name: str, **attrs: Any) -> Span:
        """A nestable traced region; use as ``with tracer.span(...):``."""
        return Span(self, name, attrs)

    def absorb(self, events: List[Dict[str, Any]]) -> None:
        """Splice another tracer's recorded events into this trace.

        Used to fold a worker process's trace into the parent after a
        parallel sweep: span ids are remapped through this tracer's
        counter (so they stay unique) and top-level records are
        reparented under the currently open span. The records are laid
        out from now, each keeping its offset from the first absorbed
        record — wall and ``cpu`` stamps alike — so every absorbed span
        keeps its recorded duration. Both clocks then move past the
        absorbed records, so ``ts`` stays non-decreasing, and a span
        open across the absorb covers the absorbed work.
        """
        if not events:
            return
        ts_shift = self._now() - events[0]["ts"]
        cpus = [record["cpu"] for record in events if "cpu" in record]
        cpu_shift = self._cpu_now() - cpus[0] if cpus else 0
        current = self._current.get()
        mapping: Dict[int, int] = {}

        def remap(span_id: Optional[int]) -> Optional[int]:
            if span_id is None:
                return current
            new = mapping.get(span_id)
            if new is None:
                new = mapping[span_id] = self._next_id()
            return new

        for record in events:
            cpu = record.get("cpu")
            self._emit(
                record["ts"] + ts_shift,
                record["kind"],
                record["name"],
                remap(record["span"]),
                remap(record["parent"]),
                record["attrs"],
                cpu=None if cpu is None else cpu + cpu_shift,
            )
        self._origin -= max(0, events[-1]["ts"] + ts_shift - self._now())
        if cpus:
            self._cpu_origin -= max(
                0, cpus[-1] + cpu_shift - self._cpu_now()
            )


class _NoOpSpan:
    """Inert stand-in so ``with NOOP_TRACER.span(...) as s`` works."""

    __slots__ = ()
    duration_ns: Optional[int] = None
    duration_s: Optional[float] = None

    def __enter__(self) -> "_NoOpSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


class NoOpTracer:
    """Disabled tracer: every emission is a constant-time no-op."""

    enabled = False
    events: List[Dict[str, Any]] = []  # always empty; never appended to

    def event(self, name: str, **attrs: Any) -> None:
        pass

    def span(self, name: str, **attrs: Any) -> _NoOpSpan:
        return _NOOP_SPAN


_NOOP_SPAN = _NoOpSpan()

#: The disabled singleton installed when no observation is active.
NOOP_TRACER = NoOpTracer()
