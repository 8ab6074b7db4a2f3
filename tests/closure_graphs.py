"""Whole runs on either closure graph.

The program builds every run's preference graphs as
:class:`~repro.core.preference.NumpyPreferenceGraph`. The tests also
run whole schedulers on
:class:`~repro.core.preference.ReferencePreferenceGraph`, the
specification: :func:`closure_graph` swaps the graph class into the
``PreferenceSystem`` that :func:`repro.core.engine.build_context`
builds, so a run inside it keeps its config and its journal header,
and only the ``backend`` its closure spans carry names the graph.
"""

from contextlib import contextmanager
from functools import partial
from typing import Iterator
from unittest import mock

import repro.core.engine as engine
from repro.core.preference import (
    NumpyPreferenceGraph,
    PreferenceSystem,
    ReferencePreferenceGraph,
)

#: The closure graphs by the name their trace records carry.
GRAPHS = {
    graph.backend: graph
    for graph in (NumpyPreferenceGraph, ReferencePreferenceGraph)
}


@contextmanager
def closure_graph(name: str) -> Iterator[None]:
    """Build every run inside the block on the graph ``name``, a key
    of :data:`GRAPHS`."""
    system = partial(PreferenceSystem, graph=GRAPHS[name])
    with mock.patch.object(engine, "PreferenceSystem", system):
        yield
