"""Hypothesis strategies for relation value matrices and relations.

``known_matrices`` generates the shapes that stress dominance logic —
independent, correlated, anticorrelated and duplicate-heavy integer
grids with tunable tie density (values are drawn from ``levels``
distinct integers, so fewer levels means more ties). Values are built
from plain drawn integers rather than float arrays so Hypothesis can
shrink failing examples to readable grids.

``crowd_relations`` wraps the same generator into a small
:class:`repro.data.relation.Relation` with one or more crowd attributes
for full-pipeline differential properties (the sharded harness, the
evaluate-phase differential).
"""

from hypothesis import strategies as st

import numpy as np

from tests.conftest import make_relation

#: The distribution shapes ``known_matrices`` draws from.
KINDS = ("independent", "correlated", "anticorrelated", "duplicate_heavy")


def _clipped(base, delta, levels):
    return min(max(base + delta, 0), levels - 1)


@st.composite
def known_matrices(
    draw,
    min_rows=1,
    max_rows=40,
    min_cols=1,
    max_cols=4,
    kinds=KINDS,
    max_levels=8,
):
    """An ``(n, d)`` float matrix of one of the :data:`KINDS` shapes.

    ``levels`` (drawn in ``[2, max_levels]``) bounds the distinct values
    per column; small draws produce the tie- and duplicate-dense grids
    where dominance code historically breaks.
    """
    rows = draw(st.integers(min_rows, max_rows))
    cols = draw(st.integers(min_cols, max_cols))
    kind = draw(st.sampled_from(kinds))
    levels = draw(st.integers(2, max_levels))
    value = st.integers(0, levels - 1)
    jitter = st.integers(-1, 1)
    if kind == "independent":
        grid = draw(
            st.lists(
                st.lists(value, min_size=cols, max_size=cols),
                min_size=rows,
                max_size=rows,
            )
        )
    elif kind == "duplicate_heavy":
        distinct = max(1, rows // 3)
        pool = draw(
            st.lists(
                st.lists(value, min_size=cols, max_size=cols),
                min_size=distinct,
                max_size=distinct,
            )
        )
        grid = [
            pool[draw(st.integers(0, distinct - 1))] for _ in range(rows)
        ]
    else:
        # Correlated: every column tracks a per-row base value (good
        # rows are good everywhere). Anticorrelated: the back half of
        # the columns tracks the mirrored base (good somewhere, bad
        # elsewhere — the skyline-maximizing shape).
        grid = []
        for _ in range(rows):
            base = draw(value)
            row = []
            for col in range(cols):
                column_base = base
                if kind == "anticorrelated" and col >= (cols + 1) // 2:
                    column_base = levels - 1 - base
                row.append(_clipped(column_base, draw(jitter), levels))
            grid.append(row)
    return np.asarray(grid, dtype=float)


@st.composite
def crowd_relations(
    draw, max_rows=14, max_known=3, kinds=KINDS, max_levels=6, num_crowd=1
):
    """A small relation (known grid from ``known_matrices`` plus
    ``num_crowd`` crowd attributes, each valued in 0..5 so crowd ties
    are common) for end-to-end scheduler differentials."""
    known = draw(
        known_matrices(
            min_rows=1,
            max_rows=max_rows,
            min_cols=1,
            max_cols=max_known,
            kinds=kinds,
            max_levels=max_levels,
        )
    )
    rows = known.shape[0]
    latent = draw(
        st.lists(
            st.tuples(*[st.integers(0, 5)] * num_crowd),
            min_size=rows,
            max_size=rows,
        )
    )
    return make_relation(
        [tuple(int(v) for v in row) for row in known], latent
    )
