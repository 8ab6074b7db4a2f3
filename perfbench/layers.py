"""Per-layer self time, measured from outside the program.

:func:`traced` installs timing wrappers around the batch-level entry
points of each layer and restores the original attributes on exit, so
code run outside the ``with`` block is the unwrapped program. Each
function is patched where it is looked up: the engine binds
``dominance_matrix``/``dominating_sets``/``preprocess_duplicates`` by
name, the schedulers bind ``build_context`` and
``covering_graph_from_matrix`` by name, and methods are patched on
their class.

A wrapper's *self time* is its duration minus the duration of the
wrapped calls nested inside it, so the self times of all wrappers plus
the unwrapped remainder (``scheduler.self_s``) partition a query's wall
time exactly. Per-pair predicates such as ``pair_relations`` are left
unwrapped on purpose: they run millions of times per query and timing
them would double it.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import Counter
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.core.preference import PreferenceSystem
from repro.core.tasks import TupleTask
from repro.crowd.journal import JournalWriter
from repro.crowd.platform import SimulatedCrowd

# ``repro.core`` re-exports the function ``crowdsky``, which shadows the
# submodule of that name as an attribute, so modules are looked up by name.
_crowdsky = importlib.import_module("repro.core.crowdsky")
_engine = importlib.import_module("repro.core.engine")
_parallel = importlib.import_module("repro.core.parallel")

Tally = Callable[["LayerTrace", tuple, Any], None]


def _tally_ds(trace: "LayerTrace", args: tuple, result: Any) -> None:
    trace.counts["skyline.ds_members"] += sum(len(ds) for ds in result)


def _tally_cover(trace: "LayerTrace", args: tuple, result: Any) -> None:
    trace.counts["skyline.cover_edges"] += sum(
        len(direct) for direct in result.values()
    )


def _tally_context(trace: "LayerTrace", args: tuple, result: Any) -> None:
    trace.prefs = result.prefs


def _tally_resolve(trace: "LayerTrace", args: tuple, result: Any) -> None:
    trace.counts["pref.pairs_resolved"] += len(result)


def _tally_verdicts(trace: "LayerTrace", args: tuple, result: Any) -> None:
    # Every caller in the program hands over a list (one round's
    # verdicts); a lazy iterable would already be consumed here.
    trace.counts["pref.verdicts"] += len(args[1])
    trace.counts["pref.accepted"] += result


def _tally_advance(trace: "LayerTrace", args: tuple, result: Any) -> None:
    if result is not None:
        trace.counts["tasks.requests"] += 1


#: (owner, attribute, span name, tally) for every wrapped entry point.
#: ``build_context`` is bound by name in both scheduler modules, so it
#: appears twice under one span name.
WRAPPED: List[Tuple[Any, str, str, Optional[Tally]]] = [
    (_engine, "dominance_matrix", "skyline.dominance_matrix", None),
    (_engine, "dominating_sets", "skyline.dominating_sets",
     _tally_ds),
    (_parallel, "covering_graph_from_matrix",
     "skyline.covering_graph", _tally_cover),
    (_crowdsky, "build_context", "engine.build_context",
     _tally_context),
    (_parallel, "build_context", "engine.build_context",
     _tally_context),
    (_engine, "preprocess_duplicates", "engine.preprocess", None),
    (PreferenceSystem, "resolve_pairs", "pref.resolve_pairs",
     _tally_resolve),
    (PreferenceSystem, "sky_ac", "pref.sky_ac", None),
    (PreferenceSystem, "apply_verdicts", "pref.apply_verdicts",
     _tally_verdicts),
    (TupleTask, "activate", "tasks.activate", None),
    (TupleTask, "advance", "tasks.advance", _tally_advance),
    (SimulatedCrowd, "ask_pairwise_round", "crowd.ask_pairwise_round",
     None),
    (JournalWriter, "append_posting", "journal.append_posting", None),
]

#: Every span name, in report order.
SPANS: List[str] = list(dict.fromkeys(span for _, _, span, _ in WRAPPED))


class LayerTrace:
    """Self time, inclusive time, call counts and tallies per span.

    ``_children`` is a stack of the nested wrapped time accumulated by
    each open span; its bottom entry collects the top-level wrapped
    time, which the caller subtracts from the queries' wall time to
    get the unwrapped remainder.
    """

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(SPANS, 0.0)
        self.total_s: Dict[str, float] = dict.fromkeys(SPANS, 0.0)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        #: The preference system of the most recent ``build_context``.
        self.prefs: Optional[PreferenceSystem] = None
        self._children: List[float] = [0.0]

    def wrap(self, span: str, fn: Callable, tally: Optional[Tally]):
        children = self._children
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                nested = children.pop()
                children[-1] += elapsed
                self.self_s[span] += elapsed - nested
                self.total_s[span] += elapsed
                self.calls[span] += 1
            if tally is not None:
                tally(self, args, result)
            return result

        return wrapper

    def count_fsync(self, fsync: Callable[[int], None]):
        @functools.wraps(fsync)
        def wrapper(fd: int) -> None:
            self.counts["journal.fsyncs"] += 1
            fsync(fd)

        return wrapper

    def wrapped_s(self) -> float:
        """Inclusive time of the top-level wrapped calls so far."""
        return self._children[0]


@contextlib.contextmanager
def traced(trace: LayerTrace) -> Iterator[LayerTrace]:
    """Install the wrappers for the duration of the block, recording
    into ``trace`` (which accumulates over several blocks).

    The originals are taken from the owners' ``__dict__`` and put back
    in ``finally``, so an exception inside the block cannot leave a
    wrapper behind.
    """
    saved = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in WRAPPED]
    saved.append((os, "fsync", os.fsync))
    try:
        for owner, attr, span, tally in WRAPPED:
            setattr(owner, attr, trace.wrap(span, getattr(owner, attr), tally))
        os.fsync = trace.count_fsync(os.fsync)
        yield trace
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def installed() -> List[Any]:
    """The currently installed attribute of every wrapped entry point."""
    found = [vars(owner)[attr] for owner, attr, _, _ in WRAPPED]
    found.append(os.fsync)
    return found
