"""Skyline layers and the covering (dominance) graph (paper §4.2).

The ``i``-th skyline layer is the skyline of the tuples not in any earlier
layer (Definition 6). The parallelization scheduler ``ParallelSL`` uses
the *direct pointer* set ``c(t)`` — tuples that directly point to ``t`` in
the dominance graph. We realize ``c(t)`` as the covering relation
(transitive reduction) of ``≺_AK``: ``s ∈ c(t)`` iff ``s ≺ t`` and no
``w`` exists with ``s ≺ w ≺ t``. This matches the ``c(t)`` sets listed in
the paper's Table 3 for the toy dataset.
"""

from __future__ import annotations

from typing import Dict, List, Set

import numpy as np

from repro.skyline.dominance import dominance_matrix
from repro.skyline.dominating import packed_bool_rows, unpacked_bool_rows

#: Rows of the covering relation unpacked at a time: the block's
#: temporaries are ``O(_BLOCK_ROWS · n)``, never ``n × n``.
_BLOCK_ROWS = 256


def skyline_layers_from_matrix(matrix: np.ndarray) -> List[List[int]]:
    """Skyline layers from a precomputed dominance matrix."""
    n = matrix.shape[0]
    remaining = np.ones(n, dtype=bool)
    layers: List[List[int]] = []
    while np.any(remaining):
        active = matrix[np.ix_(remaining, remaining)]
        dominated_within = np.any(active, axis=0)
        indices = np.flatnonzero(remaining)
        layer = [int(i) for i in indices[~dominated_within]]
        if not layer:  # pragma: no cover - cannot happen on finite posets
            raise RuntimeError("empty skyline layer")
        layers.append(layer)
        remaining[layer] = False
    return layers


def covering_graph_from_matrix(matrix: np.ndarray) -> Dict[int, Set[int]]:
    """Direct-pointer sets ``c(t)`` from a precomputed dominance matrix.

    ``s`` is a direct dominator of ``t`` iff ``s ≺ t`` with no
    intermediate ``w`` (``s ≺ w ≺ t``), so the covering relation is
    ``M & ~(M∘M)``. ``M`` is packed into ``(n, ⌈n/64⌉)`` uint64 rows;
    the two-step reach of ``s`` is the OR of its successors' packed
    rows, and the covering edges are unpacked one block of
    ``_BLOCK_ROWS`` rows at a time, so nothing ``n × n`` is allocated
    besides ``matrix`` (the paper's grids reach n = 10K).
    """
    n = matrix.shape[0]
    packed = packed_bool_rows(matrix)
    sources: List[np.ndarray] = [np.zeros(0, dtype=np.intp)]
    targets: List[np.ndarray] = [np.zeros(0, dtype=np.intp)]
    for start in range(0, n, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, n)
        reach = np.zeros((stop - start, packed.shape[1]), dtype=np.uint64)
        for s in range(start, stop):
            successors = np.flatnonzero(matrix[s])
            if successors.size:
                np.bitwise_or.reduce(
                    packed[successors], axis=0, out=reach[s - start]
                )
        direct = unpacked_bool_rows(packed[start:stop] & ~reach, n)
        block_sources, block_targets = np.nonzero(direct)
        sources.append(block_sources + start)
        targets.append(block_targets)
    # Group the edges by target; the stable sort keeps each c(t)'s
    # sources ascending.
    target = np.concatenate(targets)
    source = np.concatenate(sources)[np.argsort(target, kind="stable")]
    members = source.tolist()
    result: Dict[int, Set[int]] = {}
    bounds = np.cumsum(np.bincount(target, minlength=n)).tolist()
    low = 0
    for t, high in enumerate(bounds):
        result[t] = set(members[low:high])
        low = high
    return result


def skyline_layers(data: np.ndarray) -> List[List[int]]:
    """Partition row indices into skyline layers ``SL1, SL2, ...``.

    Parameters
    ----------
    data:
        ``(n, d)`` float matrix, smaller preferred.

    Returns
    -------
    list of list of int
        Layers in order; their concatenation is a permutation of
        ``range(n)``.
    """
    return skyline_layers_from_matrix(dominance_matrix(np.asarray(data, dtype=float)))


def covering_graph(data: np.ndarray) -> Dict[int, Set[int]]:
    """Direct-pointer sets ``c(t)`` of the dominance graph.

    Returns a mapping ``t -> c(t)`` where ``c(t)`` holds the covering
    dominators of ``t`` (the transitive reduction of ``≺``). Tuples with
    no dominator map to the empty set.
    """
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    matrix = dominance_matrix(data)
    return covering_graph_from_matrix(matrix)
