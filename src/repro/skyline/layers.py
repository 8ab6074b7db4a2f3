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
from repro.skyline.dominating import packed_bool_rows

#: Rows of the dominance matrix packed, and source rows run through the
#: covering greedy, at a time: the block's temporaries are
#: ``O(_BLOCK_ROWS · n)``, never ``n × n``.
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
    intermediate ``w`` (``s ≺ w ≺ t``). The tuples are relabelled by
    their rank in a linear extension of ``≺``: the stable argsort of
    the column counts ``|DS(t)|``, the evaluation order's key. The
    relabelled rows are packed into ``(n, ⌈n/64⌉)`` uint64 words one
    block of ``_BLOCK_ROWS`` rows at a time, so nothing ``n × n`` is
    allocated besides ``matrix`` (the paper's grids reach n = 10K).

    Each block of source rows then runs a rank-ordered greedy: one
    vectorized pass takes every row's lowest-rank remaining successor
    ``x`` as a covering edge and clears ``x`` and the packed row of
    ``x`` from the row's candidates, until no row has candidates left.
    A block costs as many passes as its largest out-degree in ``c``,
    and each pass reads one packed row per covering edge it finds, so
    the work follows the covering edges rather than the dominance
    pairs.

    Why the greedy is exact:

    * If ``s ≺ t``, then ``DS(s) ⊊ DS(t)``. So sorting by ``|DS|`` is
      a linear extension, and AK-equal twins tie, which is harmless
      because they are incomparable.
    * Let ``x`` be the lowest-rank candidate left in row ``s``.
      Suppose some ``y`` had ``s ≺ y ≺ x``. Then ``y`` ranks below
      ``x``, so ``y`` was already cleared. Only a picked direct
      successor ``w`` and ``succ(w)`` are ever cleared, and
      ``x ∈ succ(y) ⊆ succ(w)``, so ``x`` was cleared too, a
      contradiction. Hence ``x`` is direct.
    * No direct successor lies in ``succ(w)`` of another direct ``w``,
      so each one is picked. Every other successor lies in ``succ(w)``
      of a direct ``w`` below it, so it is cleared.
    """
    n = matrix.shape[0]
    # Column counts in int32 (n < 2**31): numpy sums a bool matrix into
    # int32 several times faster than into its default intp.
    order = np.argsort(matrix.sum(axis=0, dtype=np.int32), kind="stable")
    # keep[r] is the relabelled row of rank r with bit r set, packed
    # and inverted: AND-ing it into a candidate row clears r and every
    # successor of r.
    keep = np.empty((n, max(1, (n + 63) >> 6)), dtype=np.uint64)
    for start in range(0, n, _BLOCK_ROWS):
        rows = order[start:start + _BLOCK_ROWS]
        block = np.take(matrix[rows], order, axis=1)
        ranks = np.arange(rows.size)
        block[ranks, ranks + start] = True
        keep[start:start + rows.size] = ~packed_bool_rows(block)
    steps = np.arange(_BLOCK_ROWS)
    sources: List[np.ndarray] = [np.zeros(0, dtype=np.intp)]
    targets: List[np.ndarray] = [np.zeros(0, dtype=np.intp)]
    for start in range(0, n, _BLOCK_ROWS):
        # Successors rank above their source, so a block's candidates
        # hold no bit below rank ``start``: skip the words before it.
        first = start >> 6
        offset = (first << 6) - 1
        candidates = ~keep[start:start + _BLOCK_ROWS, first:]
        held = steps[:candidates.shape[0]]
        # Drop each row's own bit: its candidates are its successors.
        own = held + (start & 63)
        candidates[held, own >> 6] ^= np.left_shift(
            np.uint64(1), (own & 63).astype(np.uint64)
        )
        live = held + start
        while True:
            # Each row's first nonzero word; rows with no candidates
            # left drop out, so a pass costs only its live rows.
            word = (candidates != 0).argmax(axis=1)
            bits = candidates[steps[:live.size], word]
            alive = bits != 0
            if not alive.all():
                live = live[alive]
                if not live.size:
                    break
                candidates = candidates[alive]
                word = word[alive]
                bits = bits[alive]
            # The lowest set bit 2**b is exact in float64, and frexp
            # returns its exponent b + 1 exactly.
            picked = (word << 6) + np.frexp(bits & -bits)[1] + offset
            sources.append(live)
            targets.append(picked)
            candidates &= keep[picked, first:]
    # Back to tuple indices, grouped by target with each c(t)'s sources
    # ascending: the key ``target · n + source`` is unique per edge.
    target = order[np.concatenate(targets)]
    source = order[np.concatenate(sources)]
    source = source[np.argsort(target * n + source)]
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
    return covering_graph_from_matrix(
        dominance_matrix(np.asarray(data, dtype=float))
    )
