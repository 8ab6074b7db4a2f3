"""Dominating sets and pair frequencies (paper §3.1, §3.4, §5).

* ``DS(t)`` — the set of tuples that dominate ``t`` in ``AK``
  (Definition 5). Only questions ``(s, t)`` with ``s ∈ DS(t)`` can affect
  whether ``t`` is a skyline tuple (Lemma 1).
* ``freq(u, v)`` — the number of tuples dominated by *both* ``u`` and
  ``v`` in ``AK``; used to order probing questions (§3.4) and to grade
  question importance for dynamic voting (§5).
* The evaluation order sorts tuples by ascending ``|DS(t)|`` (Lemma 3
  guarantees this respects the dominance partial order), breaking ties by
  tuple index — which reproduces the paper's Table 2(a) ordering.
"""

from __future__ import annotations

from typing import Collection, Dict, List, Set, Tuple as TupleT

import numpy as np

from repro.skyline.dominance import dominance_matrix

#: Rows per block in the whole-matrix readers below: each block's
#: temporaries are ``O(_BLOCK_ROWS · n)``, never ``n × n``.
_BLOCK_ROWS = 256


def dominating_sets(data: np.ndarray) -> List[Set[int]]:
    """``DS(t)`` for every row ``t`` of ``data`` (smaller preferred)."""
    matrix = dominance_matrix(np.asarray(data, dtype=float))
    return dominating_sets_from_matrix(matrix)


def dominating_sets_from_matrix(
    matrix: np.ndarray,
    removed: Collection[int] = (),
) -> List[Set[int]]:
    """``DS(t)`` read off a precomputed dominance matrix, without the
    tuples in ``removed``.

    Lets callers that already hold the matrix derive the sets without a
    second quadratic pass over the data. Columns are read
    ``_BLOCK_ROWS`` at a time: one ``nonzero`` per block of transposed
    columns lists every block member in ascending order.
    """
    n = matrix.shape[0]
    keep = np.ones(n, dtype=bool)
    keep[np.fromiter(removed, dtype=np.intp, count=len(removed))] = False
    # One Python int per tuple, shared by every set that holds it:
    # gathering from an object array allocates no int per member, and
    # the members number up to n²/4 on independent data.
    index = np.arange(n).astype(object)
    sets: List[Set[int]] = []
    for start in range(0, n, _BLOCK_ROWS):
        block = matrix[:, start:start + _BLOCK_ROWS].T & keep
        members = index[np.nonzero(block)[1]].tolist()
        low = 0
        for high in np.cumsum(np.count_nonzero(block, axis=1)).tolist():
            sets.append(set(members[low:high]))
            low = high
    return sets


def evaluation_order(dominating: List[Set[int]]) -> List[int]:
    """Tuple indices sorted by ascending ``|DS(t)|``, ties by index."""
    return sorted(range(len(dominating)), key=lambda t: (len(dominating[t]), t))


def packed_bool_rows(matrix: np.ndarray) -> np.ndarray:
    """Rows of a ``(rows, n)`` bool matrix packed into a
    ``(rows, ceil(n/64))`` uint64 matrix.

    An AND, OR or ``any`` over many rows becomes one vectorized word
    operation. Bit ``j`` of row ``r`` lives at
    ``packed[r, j >> 6] >> (j & 63) & 1`` on every host; the padding
    bits past ``n`` are zero.
    """
    rows, n = matrix.shape
    words = max(1, (n + 63) >> 6)
    out = np.zeros((rows, words * 8), dtype=np.uint8)
    out[:, :(n + 7) >> 3] = np.packbits(matrix, axis=1, bitorder="little")
    return out.view("<u8").astype(np.uint64, copy=False)


def unpacked_bool_rows(packed: np.ndarray, n: int) -> np.ndarray:
    """The ``(rows, n)`` bool matrix packed by :func:`packed_bool_rows`."""
    little = np.ascontiguousarray(packed, dtype="<u8")
    bits = np.unpackbits(
        little.view(np.uint8), axis=1, count=n, bitorder="little"
    )
    return bits.view(bool)


def pair_frequency(matrix: np.ndarray, u: int, v: int) -> int:
    """``freq(u, v)`` — tuples dominated by both ``u`` and ``v`` in AK."""
    return int(np.count_nonzero(matrix[u] & matrix[v]))


def pair_frequency_table(
    data: np.ndarray,
) -> TupleT[np.ndarray, Dict[TupleT[int, int], int]]:
    """The dominance matrix plus a lazy frequency lookup helper.

    Returns the boolean dominance matrix and an (initially empty) cache
    dict; use :func:`pair_frequency` for individual lookups. Provided for
    callers that need many frequencies without recomputing the matrix.
    """
    matrix = dominance_matrix(np.asarray(data, dtype=float))
    cache: Dict[TupleT[int, int], int] = {}
    return matrix, cache


class FrequencyOracle:
    """Cached ``freq(u, v)`` lookups over a fixed dominance matrix.

    ``freq`` depends only on the machine-known ``AK`` values, so it can be
    precomputed/cached freely without touching the crowd.
    """

    def __init__(self, dominance: np.ndarray):
        self._matrix = np.asarray(dominance, dtype=bool)
        self._cache: Dict[TupleT[int, int], int] = {}

    def freq(self, u: int, v: int) -> int:
        """``freq(u, v)``, symmetric in its arguments."""
        key = (u, v) if u <= v else (v, u)
        value = self._cache.get(key)
        if value is None:
            value = pair_frequency(self._matrix, u, v)
            self._cache[key] = value
        return value

    def freq_matrix(self, members: List[int]) -> np.ndarray:
        """``freq(u, v)`` for all pairs of ``members`` as a ``k × k``
        matrix (vectorized; used by probing on large dominating sets).

        The product is taken in float64, where BLAS computes it: every
        entry is a count of at most ``n < 2**53``, so it is exact
        whatever the summation order (numpy multiplies int64 matrices
        without BLAS, many times slower)."""
        rows = self._matrix[members].astype(np.float64)
        return (rows @ rows.T).astype(np.int64)

    def quantiles(self, probabilities: List[float]) -> List[float]:
        """Quantiles of ``freq`` over all dominated-pair combinations.

        Used by dynamic voting to derive the ``α``/``β`` importance
        thresholds from the data (paper §5/§6.1: top ~30% of questions get
        more workers, bottom ~30% fewer). The population is all unordered
        pairs ``(u, v)`` of tuples that dominate at least one common tuple
        — the pairs that can actually appear as probing questions.
        """
        counts = self._matrix.astype(np.float64)
        # freq(u, v) = (M M^T)[u, v]: co-domination counts for all pairs,
        # exact in float64 (see freq_matrix).
        co_domination = counts @ counts.T
        iu = np.triu_indices(co_domination.shape[0], k=1)
        values = co_domination[iu]
        values = values[values > 0]
        if values.size == 0:
            return [0.0 for _ in probabilities]
        return [float(np.quantile(values, p)) for p in probabilities]
