"""The names the query benchmark wraps are the names the schedulers call.

``perfbench/layers.py`` times the machine phase from outside the
program by replacing module attributes: ``build_context`` in both
scheduler modules and ``covering_graph_from_matrix`` in
``repro.core.parallel``. A wrapper on a name that is bound but never
called reads 0 and fails nothing, so this module pins that every entry
point calls these names through its own module's binding, once.
"""

import importlib
from collections import Counter
from contextlib import ExitStack, contextmanager
from unittest import mock

import pytest

from repro.core.crowdsky import crowdsky, crowdsky_budgeted
from repro.core.parallel import parallel_dset, parallel_sl
from repro.data.synthetic import Distribution, generate_synthetic

# ``repro.core`` re-exports the function ``crowdsky``, which shadows the
# submodule of that name as an attribute, so modules are looked up by name.
crowdsky_module = importlib.import_module("repro.core.crowdsky")
parallel_module = importlib.import_module("repro.core.parallel")

WRAPPED = [
    (crowdsky_module, "build_context"),
    (parallel_module, "build_context"),
    (parallel_module, "covering_graph_from_matrix"),
]

ENTRY_POINTS = {
    "crowdsky": crowdsky,
    "crowdsky_budgeted": lambda relation: crowdsky_budgeted(relation, 10**6),
    "parallel_dset": parallel_dset,
    "parallel_sl": parallel_sl,
}

EXPECTED_CALLS = {
    "crowdsky": {"repro.core.crowdsky.build_context": 1},
    "crowdsky_budgeted": {"repro.core.crowdsky.build_context": 1},
    "parallel_dset": {"repro.core.parallel.build_context": 1},
    "parallel_sl": {
        "repro.core.parallel.build_context": 1,
        "repro.core.parallel.covering_graph_from_matrix": 1,
    },
}


def _counting(calls, label, original):
    def wrapper(*args, **kwargs):
        calls[label] += 1
        return original(*args, **kwargs)

    return wrapper


@contextmanager
def counted_calls():
    """Count calls through every wrapped module attribute."""
    calls = Counter()
    with ExitStack() as stack:
        for module, name in WRAPPED:
            label = f"{module.__name__}.{name}"
            stack.enter_context(
                mock.patch.object(
                    module, name, _counting(calls, label, getattr(module, name))
                )
            )
        yield calls


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_entry_point_calls_the_wrapped_names(entry):
    relation = generate_synthetic(
        30, 2, 1, Distribution.ANTI_CORRELATED, seed=7
    )
    with counted_calls() as calls:
        ENTRY_POINTS[entry](relation)
    assert dict(calls) == EXPECTED_CALLS[entry]
