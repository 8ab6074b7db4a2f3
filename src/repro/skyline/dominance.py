"""Dominance primitives over fully-known value matrices (paper §2.2).

All functions assume the canonical "smaller preferred" convention
(relations canonicalize ``MAX`` attributes by negation, see
:meth:`repro.data.relation.Relation.known_matrix`).

Definitions (paper Definitions 1-2): ``s`` *dominates* ``t`` when ``s`` is
no worse on every attribute and strictly better on at least one; ``s`` and
``t`` are *incomparable* when neither dominates the other.
"""

from __future__ import annotations

import enum
from typing import Iterator, Sequence, Tuple, Union

import numpy as np

ArrayLike = Union[Sequence[float], np.ndarray]


class DominanceRelation(enum.Enum):
    """Outcome of comparing two tuples on known values."""

    FIRST_DOMINATES = "first"
    SECOND_DOMINATES = "second"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def dominates(s: ArrayLike, t: ArrayLike) -> bool:
    """True when ``s ≺ t`` (``s`` no worse everywhere, better somewhere)."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    return bool(np.all(s <= t) and np.any(s < t))


def incomparable(s: ArrayLike, t: ArrayLike) -> bool:
    """True when neither tuple dominates the other and they differ."""
    return not dominates(s, t) and not dominates(t, s)


def compare(s: ArrayLike, t: ArrayLike) -> DominanceRelation:
    """Full three-way-plus-equal comparison of two tuples."""
    s = np.asarray(s, dtype=float)
    t = np.asarray(t, dtype=float)
    s_no_worse = bool(np.all(s <= t))
    t_no_worse = bool(np.all(t <= s))
    if s_no_worse and t_no_worse:
        return DominanceRelation.EQUAL
    if s_no_worse:
        return DominanceRelation.FIRST_DOMINATES
    if t_no_worse:
        return DominanceRelation.SECOND_DOMINATES
    return DominanceRelation.INCOMPARABLE


def _dominance_blocks(
    rows: np.ndarray, data: np.ndarray, chunk_size: int = 512
) -> Iterator[Tuple[int, np.ndarray]]:
    """Yield ``(start, block)``, ``block[i, j] = rows[start + i] ≺ data[j]``.

    The one dominance kernel behind every matrix, mask and local
    skyline of :mod:`repro.skyline`. A block covers up to
    ``chunk_size`` rows and is built one attribute at a time — a
    ``<`` pass OR-ed into ``block`` and a ``<=`` pass AND-ed into a
    second buffer — so every temporary is a 2-D ``(b, n)`` bool buffer
    allocated once and reused; a ``(b, n, d)`` broadcast would spend
    most of its time reducing over the short attribute axis. The
    yielded block is overwritten by the next one.
    """
    n = data.shape[0]
    size = min(chunk_size, rows.shape[0])
    columns = np.ascontiguousarray(data.T)
    # ``strict`` stays all-False when there are no attributes: nothing
    # is strictly better anywhere, so nothing dominates.
    strict = np.zeros((size, n), dtype=bool)
    no_worse = np.empty((size, n), dtype=bool)
    scratch = np.empty((size, n), dtype=bool)
    for start in range(0, rows.shape[0], chunk_size):
        block = rows[start:start + chunk_size].T[:, :, None]  # (d, b, 1)
        b = block.shape[1]
        lt, le, tmp = strict[:b], no_worse[:b], scratch[:b]
        if len(columns):
            np.less(block[0], columns[0], out=lt)
            np.less_equal(block[0], columns[0], out=le)
            for k in range(1, len(columns)):
                np.less(block[k], columns[k], out=tmp)
                lt |= tmp
                np.less_equal(block[k], columns[k], out=tmp)
                le &= tmp
            lt &= le
        yield start, lt


def dominance_matrix(data: np.ndarray, chunk_size: int = 512) -> np.ndarray:
    """Boolean matrix ``M`` with ``M[i, j] = data[i] dominates data[j]``.

    Built in row blocks of ``chunk_size`` by the per-attribute kernel,
    so the only ``n × n`` allocation is the result — the paper's grids
    go to ``n = 10K`` where a naive Python double loop would be
    prohibitive.

    Parameters
    ----------
    data:
        ``(n, d)`` float matrix, smaller preferred.
    chunk_size:
        Rows per block.
    """
    data = np.asarray(data, dtype=float)
    n = data.shape[0]
    result = np.empty((n, n), dtype=bool)
    for start, block in _dominance_blocks(data, data, chunk_size):
        result[start:start + block.shape[0]] = block
    return result


def skyline_mask(data: np.ndarray, chunk_size: int = 512) -> np.ndarray:
    """Boolean mask of skyline membership, computed without the full matrix.

    A tuple is in the skyline iff no other tuple dominates it
    (paper Definition 3).
    """
    data = np.asarray(data, dtype=float)
    dominated = np.zeros(data.shape[0], dtype=bool)
    for _, block in _dominance_blocks(data, data, chunk_size):
        dominated |= block.any(axis=0)
    return ~dominated
