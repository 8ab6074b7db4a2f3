"""Hypothesis strategies for preference-graph and relation properties.

Shared between the backend differential suite
(``tests/test_preference_differential.py``) and the general property
tests: answer sequences replayable into any preference backend, and
small relations mixing known and crowd attributes.
"""

from hypothesis import strategies as st

from repro.questions import Preference
from tests.conftest import make_relation

#: All three crowd answers.
_answers = st.sampled_from(
    [Preference.LEFT, Preference.RIGHT, Preference.EQUAL]
)

#: Two ties for every strict answer, and sometimes no answer (None).
_tie_heavy_answers = st.sampled_from(
    [Preference.LEFT, Preference.RIGHT, None] + [Preference.EQUAL] * 4
)


@st.composite
def answer_events(draw, n: int, num_attributes: int = 1):
    """One ``(u, v, attribute, answer)`` event with ``u != v``."""
    u = draw(st.integers(0, n - 1))
    v = draw(st.integers(0, n - 2))
    if v >= u:
        v += 1
    attribute = draw(st.integers(0, num_attributes - 1))
    return (u, v, attribute, draw(_answers))


@st.composite
def tie_heavy_pair_events(draw, n: int, num_attributes: int):
    """One pair's answers on the attributes, two ties for every strict
    answer and an attribute sometimes left unanswered: pairs tied on
    some attributes, or on all of them (fully tied twins), are
    common."""
    u, v, _, _ = draw(answer_events(n))
    answers = [draw(_tie_heavy_answers) for _ in range(num_attributes)]
    return [
        (u, v, attribute, answer)
        for attribute, answer in enumerate(answers)
        if answer is not None
    ]


@st.composite
def answer_sequences(
    draw,
    max_n: int = 12,
    max_attributes: int = 2,
    max_answers: int = 60,
    tie_heavy: bool = False,
):
    """A replayable crowd-answer history.

    Returns ``(n, num_attributes, events)`` where ``events`` is a list
    of ``(u, v, attribute, answer)`` tuples. Sequences deliberately
    include repeats, ties and contradictions — the cases where closure
    maintenance and rejection bookkeeping can drift between backends.
    ``tie_heavy`` draws :func:`tie_heavy_pair_events` instead, up to
    ``max_answers`` answers in all.
    """
    n = draw(st.integers(2, max_n))
    num_attributes = draw(st.integers(1, max_attributes))
    if tie_heavy:
        pairs = draw(
            st.lists(
                tie_heavy_pair_events(n, num_attributes),
                max_size=max_answers // num_attributes,
            )
        )
        events = [event for pair in pairs for event in pair]
        return (n, num_attributes, events)
    events = draw(
        st.lists(
            answer_events(n, num_attributes), max_size=max_answers
        )
    )
    return (n, num_attributes, events)


@st.composite
def consistent_answer_sequences(draw, max_n: int = 10, max_answers: int = 40):
    """Answer sequences drawn from a latent total order (with ties) —
    contradiction-free by construction, safe under the RAISE policy."""
    n = draw(st.integers(2, max_n))
    ranks = draw(
        st.lists(
            st.integers(0, max(1, n // 2)), min_size=n, max_size=n
        )
    )
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)),
            max_size=max_answers,
        )
    )
    events = []
    for u, v in pairs:
        if u == v:
            continue
        if ranks[u] < ranks[v]:
            answer = Preference.LEFT
        elif ranks[u] > ranks[v]:
            answer = Preference.RIGHT
        else:
            answer = Preference.EQUAL
        events.append((u, v, 0, answer))
    return (n, 1, events, ranks)


@st.composite
def verdict_rounds(
    draw,
    max_n: int = 12,
    max_attributes: int = 2,
    max_rounds: int = 8,
    max_round_size: int = 10,
):
    """Round-shaped verdict batches for the closure-transaction pin.

    Returns ``(n, num_attributes, rounds)`` where ``rounds`` is a list
    of verdict batches, each a list of ``(u, v, attribute, answer)``
    tuples — the shape :meth:`PreferenceSystem.apply_verdicts` ingests.
    Batches deliberately mix repeats, ties and contradictions (within
    and across rounds) — acceptance under KEEP_FIRST is order-sensitive,
    so a transaction that reorders or dedupes would be caught here.
    """
    n = draw(st.integers(2, max_n))
    num_attributes = draw(st.integers(1, max_attributes))
    rounds = draw(
        st.lists(
            st.lists(
                answer_events(n, num_attributes), max_size=max_round_size
            ),
            max_size=max_rounds,
        )
    )
    return (n, num_attributes, rounds)


@st.composite
def small_relations(
    draw,
    max_tuples: int = 14,
    max_known: int = 3,
    max_crowd: int = 2,
    value_range: int = 5,
):
    """Small integer-grid relations with known *and* crowd attributes.

    Ties and duplicate rows are likely by construction — the nasty
    cases for dominance logic and tie-class bookkeeping.
    """
    num_known = draw(st.integers(1, max_known))
    num_crowd = draw(st.integers(1, max_crowd))
    count = draw(st.integers(1, max_tuples))
    cell = st.integers(0, value_range)
    known = draw(
        st.lists(
            st.tuples(*[cell] * num_known),
            min_size=count,
            max_size=count,
        )
    )
    latent = draw(
        st.lists(
            st.tuples(*[cell] * num_crowd),
            min_size=count,
            max_size=count,
        )
    )
    return make_relation(known, latent)
