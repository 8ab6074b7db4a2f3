"""The names the query benchmark wraps are the names the schedulers call.

``perfbench/layers.py`` times each layer from outside the program by
replacing attributes: module attributes where a module binds a function
by name (``build_context`` in both scheduler modules,
``covering_graph_from_matrix`` in ``repro.core.parallel``,
``dominance_matrix`` and ``preprocess_duplicates`` in
``repro.core.engine``) and methods on their classes (the closure, the
task state machine, the crowd and the journal). A wrapper on a name
that is bound but never called reads 0 and fails nothing, so this
module pins that every entry point calls these names: each module
attribute through its own module's binding, a fixed number of times,
and each method at least once.

``engine.dominating_sets`` is wrapped too, but no code calls it; the
ROADMAP's "For the next benchmark PR" item drops or repoints that
wrapper, so it is left out here.
"""

import importlib
from collections import Counter
from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest

from repro.core.crowdsky import crowdsky, crowdsky_budgeted
from repro.core.parallel import parallel_dset, parallel_sl
from repro.core.preference import PreferenceSystem
from repro.core.tasks import TupleTask
from repro.crowd.journal import JournalWriter
from repro.crowd.platform import SimulatedCrowd
from repro.data.synthetic import Distribution, generate_synthetic

# ``repro.core`` re-exports the function ``crowdsky``, which shadows the
# submodule of that name as an attribute, so modules are looked up by name.
crowdsky_module = importlib.import_module("repro.core.crowdsky")
engine_module = importlib.import_module("repro.core.engine")
parallel_module = importlib.import_module("repro.core.parallel")

WRAPPED = [
    (crowdsky_module, "build_context"),
    (parallel_module, "build_context"),
    (parallel_module, "covering_graph_from_matrix"),
    (engine_module, "dominance_matrix"),
    (engine_module, "preprocess_duplicates"),
]

#: The wrapped methods every entry point must call at least once.
METHODS = [
    (PreferenceSystem, "sky_ac"),
    (PreferenceSystem, "resolve_pairs"),
    (PreferenceSystem, "apply_verdicts"),
    (TupleTask, "activate"),
    (TupleTask, "advance"),
    (SimulatedCrowd, "ask_pairwise_round"),
]

ENTRY_POINTS = {
    "crowdsky": crowdsky,
    "crowdsky_budgeted": lambda relation, crowd=None: crowdsky_budgeted(
        relation, 10**6, crowd
    ),
    "parallel_dset": parallel_dset,
    "parallel_sl": parallel_sl,
}

MACHINE_PHASE = {
    "repro.core.engine.dominance_matrix": 1,
    "repro.core.engine.preprocess_duplicates": 1,
}

EXPECTED_CALLS = {
    "crowdsky": {"repro.core.crowdsky.build_context": 1, **MACHINE_PHASE},
    "crowdsky_budgeted": {
        "repro.core.crowdsky.build_context": 1,
        **MACHINE_PHASE,
    },
    "parallel_dset": {"repro.core.parallel.build_context": 1, **MACHINE_PHASE},
    "parallel_sl": {
        "repro.core.parallel.build_context": 1,
        "repro.core.parallel.covering_graph_from_matrix": 1,
        **MACHINE_PHASE,
    },
}


def _counting(calls, label, original):
    def wrapper(*args, **kwargs):
        calls[label] += 1
        return original(*args, **kwargs)

    return wrapper


@contextmanager
def counted_calls(targets):
    """Count calls through every ``(owner, name)`` attribute; a method is
    patched on its class, so it counts the calls of every instance."""
    calls = Counter()
    with ExitStack() as stack:
        for owner, name in targets:
            label = f"{owner.__name__}.{name}"
            stack.enter_context(
                mock.patch.object(
                    owner, name, _counting(calls, label, getattr(owner, name))
                )
            )
        yield calls


def relation():
    return generate_synthetic(30, 2, 1, Distribution.ANTI_CORRELATED, seed=7)


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_calls_the_wrapped_names(entry):
    with counted_calls(WRAPPED) as calls:
        ENTRY_POINTS[entry](relation())
    assert dict(calls) == EXPECTED_CALLS[entry]


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_calls_the_wrapped_methods(entry):
    """Each wrapped method runs, and every task built is activated
    once (``tasks.activate`` times every ladder)."""
    with counted_calls(METHODS + [(TupleTask, "__init__")]) as calls:
        ENTRY_POINTS[entry](relation())
    for owner, name in METHODS:
        assert calls[f"{owner.__name__}.{name}"] > 0, (name, dict(calls))
    assert calls["TupleTask.activate"] == calls["TupleTask.__init__"]


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_journaled_run_calls_append_posting(entry, tmp_path):
    data = relation()
    crowd = SimulatedCrowd(data, journal=tmp_path / "journal")
    with counted_calls([(JournalWriter, "append_posting")]) as calls:
        ENTRY_POINTS[entry](data, crowd)
    assert calls["JournalWriter.append_posting"] > 0
