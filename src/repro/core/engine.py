"""Shared machinery between the serial and parallel schedulers.

Holds the execution context (dominance structures, preference system,
crowd handle), the degenerate-case preprocessing of Algorithm 1 lines
1-3 (tuples with identical ``AK`` values), and :func:`ask_batch`, the
one path by which every scheduler posts a round of questions. The
evaluate phase built on them is
:class:`repro.core.crowdsky.Evaluation`.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple as TupleT, Union

import numpy as np

from repro.core.preference import PreferenceSystem
from repro.core.tasks import MultiwayRequest, PairRequest
from repro.crowd.platform import SimulatedCrowd
from repro.questions import (
    MultiwayQuestion,
    PairwiseQuestion,
    Preference,
)
from repro.data.relation import Relation, relation_fingerprint
from repro.exceptions import CrowdSkyError
from repro.obs import NOOP_TRACER, current_observation, phase
# Unused here: ``dominating_sets`` stays bound only because
# perfbench/layers.py wraps it by name.
from repro.skyline.dominating import FrequencyOracle, dominating_sets
from repro.skyline.dominance import dominance_matrix

Request = Union[PairRequest, MultiwayRequest]


@dataclass
class ExecutionContext:
    """Everything a scheduler needs to evaluate tuples.

    Build one with :func:`build_context`; schedulers then share the
    preference system, dominance matrix and frequency oracle without
    recomputation, and read each ``DS(t)`` off the matrix.
    """

    relation: Relation
    crowd: SimulatedCrowd
    prefs: PreferenceSystem
    matrix: np.ndarray
    #: Build-time keep mask: False for the tuples preprocessing removed.
    #: ``DS(t)`` is column ``t`` of ``matrix`` restricted to it.
    keep: np.ndarray
    #: ``|DS(t)|`` of every tuple.
    ds_sizes: List[int]
    #: The kept tuples in ``(|DS(t)|, t)`` evaluation order.
    order: np.ndarray
    frequency: FrequencyOracle
    removed: Set[int] = field(default_factory=set)
    ac_round_robin: bool = False

    @property
    def n(self) -> int:
        """Relation cardinality."""
        return len(self.relation)

    def eval_order(self) -> List[int]:
        """Tuples in ascending ``|DS(t)|`` order, preprocessed tuples
        excluded (``removed`` is mutated in place by callers, so it is
        read on every call)."""
        removed = self.removed
        return [t for t in self.order.tolist() if t not in removed]

    def ds_in_eval_order(self, t: int) -> np.ndarray:
        """``DS(t)`` members sorted by their own evaluation position,
        i.e. by ``(|DS(s)|, s)``: column ``t`` gathered in that order,
        as an int64 array."""
        order = self.order
        return order[np.flatnonzero(self.matrix[order, t])]


def seed_visible_preferences(
    prefs: PreferenceSystem,
    relation: Relation,
    visible: Iterable[int],
) -> int:
    """Pre-populate ``T`` for tuples whose crowd values are stored.

    The paper's §2.2 notes that in real applications only a *subset* of
    tuples has missing values, and the stored values "can be represented
    by a pre-defined partial order". This seeds exactly that order: for
    every crowd attribute, the visible tuples are sorted by their stored
    (latent) value and chained with strict/tie edges — transitivity then
    derives all ``O(k²)`` pairwise relations from ``k − 1`` edges, so
    questions between two visible tuples are never asked.

    Returns the number of edges inserted.
    """
    visible = sorted(set(visible))
    if len(visible) < 2:
        return 0
    latent = relation.latent_matrix()
    edges = 0
    for attribute in range(relation.schema.num_crowd):
        ordered = sorted(visible, key=lambda t: (latent[t, attribute], t))
        for left, right in zip(ordered, ordered[1:]):
            if latent[left, attribute] < latent[right, attribute]:
                answer = Preference.LEFT
            else:
                answer = Preference.EQUAL
            # Machine-phase seeding precedes the first crowd round:
            # there is no open verdict transaction to batch into, and
            # these edges are derived (free), not crowd answers.
            prefs.add_answer(left, right, attribute, answer)  # repro: noqa RA016 - pre-round machine seeding, no transaction exists yet
            edges += 1
    return edges


def visible_tuples(
    relation: Relation, visible_crowd: Optional[Iterable[int]]
) -> Optional[List[int]]:
    """``visible_crowd`` as the sorted, distinct tuple indices a run's
    journal header records, or None when it is None.

    Raises :class:`CrowdSkyError` naming the first entry that is not
    an integer in ``[0, n)``. Every entry point calls this before it
    writes the header, so a bad index leaves neither a header nor a
    question behind.
    """
    if visible_crowd is None:
        return None
    n = len(relation)
    visible: Set[int] = set()
    for entry in visible_crowd:
        try:
            t = operator.index(entry)
        except TypeError:
            t = -1
        if not 0 <= t < n:
            raise CrowdSkyError(
                f"visible_crowd entry {entry!r} is not a tuple index in "
                f"[0, {n})"
            )
        visible.add(t)
    return sorted(visible)


def ensure_run_header(
    crowd: SimulatedCrowd, algorithm: str, run: Dict[str, object]
) -> None:
    """Write the journal header once, before any question is posted.

    Every run entry calls this right after the crowd exists and before
    :func:`build_context` (whose duplicate preprocessing may already
    ask rounds). The header pins down what a resume needs: the
    algorithm and its arguments, the dataset fingerprint, the crowd
    construction recipe (when reconstructible) and the backend's
    initial state. A resumed run arrives here with the header already
    on disk, so this is a no-op for it.
    """
    journal = crowd.journal
    if journal is None or journal.header_written:
        return
    journal.write_header(
        {
            "algorithm": algorithm,
            "run": run,
            "relation": {
                "fingerprint": relation_fingerprint(crowd.relation),
                "n": len(crowd.relation),
            },
            "spec": crowd.journal_spec(),
            "state": crowd.backend_state(),
        }
    )


def build_context(
    relation: Relation,
    crowd: Optional[SimulatedCrowd] = None,
    ac_round_robin: bool = False,
    visible_crowd: Optional[Iterable[int]] = None,
) -> ExecutionContext:
    """Prepare the machine-side structures and run the degenerate-case
    preprocessing (Algorithm 1 lines 1-3).

    ``visible_crowd`` lists tuples whose crowd values are stored rather
    than missing (the §2.2 partial-incompleteness extension); their
    mutual preferences are seeded into ``T`` for free.

    ``DS(t)`` is read off the dominance matrix, column by column, when
    a scheduler asks for it.
    """
    if relation.schema.num_crowd < 1:
        raise CrowdSkyError(
            "crowd-enabled skyline needs at least one crowd attribute; "
            "use repro.skyline for machine-only skylines"
        )
    if crowd is None:
        crowd = SimulatedCrowd(relation)
    if crowd.relation is not relation:
        raise CrowdSkyError("crowd platform was built for a different relation")

    with phase("build_context"):
        observation = current_observation()
        tracer = observation.tracer if observation.enabled else None
        n = len(relation)
        prefs = PreferenceSystem(n, relation.schema.num_crowd)
        if visible_crowd is not None:
            edges = seed_visible_preferences(prefs, relation, visible_crowd)
            if tracer is not None:
                tracer.event("engine.visible_seed", edges=edges)
        # Sub-phase spans (profiled as self time by repro.obs.perf);
        # plain tracer spans, not phase(), so the phase_seconds counter
        # keeps its flat, non-overlapping semantics.
        spans = tracer if tracer is not None else NOOP_TRACER
        crowd.set_cost_context(phase="preprocess")
        with spans.span("engine.preprocess"):
            removed = preprocess_duplicates(relation, crowd, prefs)
        crowd.set_cost_context(phase=None)

        with spans.span("engine.dominance"):
            matrix = dominance_matrix(relation.known_matrix())
            frequency = FrequencyOracle(matrix)

        with spans.span("engine.dominating_sets"):
            # DS(t) stays in the matrix: only its sizes and the
            # evaluation order are read off here.
            dropped = sorted(removed)
            keep = np.ones(n, dtype=bool)
            keep[dropped] = False
            sizes = np.count_nonzero(matrix, axis=0) - np.count_nonzero(
                matrix[dropped], axis=0
            )
            order = np.argsort(sizes, kind="stable")

        return ExecutionContext(
            relation=relation,
            crowd=crowd,
            prefs=prefs,
            matrix=matrix,
            keep=keep,
            ds_sizes=sizes.tolist(),
            order=order[keep[order]],
            frequency=frequency,
            removed=removed,
            ac_round_robin=ac_round_robin,
        )


def apply_answers(
    prefs: PreferenceSystem,
    answers: Dict[PairwiseQuestion, Preference],
) -> None:
    """Fold aggregated round answers into the preference system as one
    closure transaction (order preserved — the first answer wins, so
    acceptance is order-sensitive)."""
    prefs.apply_verdicts(
        [
            (question.left, question.right, question.attribute, answer)
            for question, answer in answers.items()
        ]
    )


def _request_decided(
    prefs: PreferenceSystem, request: PairRequest
) -> bool:
    """Whether further micro-questions on the request cannot change its
    conclusion.

    For a Q(t) dominance check ``(s, t)``, one attribute preferring ``t``
    already rules out ``s ≺_A t``. For probe pairs the pair must be fully
    known or certainly incomparable (opposite strict preferences)."""
    rels = prefs.pair_relations(request.left, request.right)
    has_left = Preference.LEFT in rels
    has_right = Preference.RIGHT in rels
    if request.dominance_check and has_right:
        return True  # right (= t) strictly preferred somewhere: no dominance
    if has_left and has_right:
        return True  # certainly incomparable in AC
    return None not in rels


def request_unresolved(context: ExecutionContext, request: Request) -> bool:
    """Whether a just-asked request is permanently unresolvable.

    True when some attribute of the pair is still unknown (not even
    transitively derivable) *and* its question was given up on by the
    crowd — the scheduler must then abandon the request instead of
    re-emitting it forever. Partial answers (other attributes) stay in
    the preference system. The crowd is asked one question at a time,
    so the check never copies its unresolved set.
    """
    crowd = context.crowd
    if not crowd.stats.unresolved_questions:
        return False
    if isinstance(request, MultiwayRequest):
        return crowd.is_unresolved(
            MultiwayQuestion(request.candidates, request.attribute)
        )
    return any(
        crowd.is_unresolved(
            PairwiseQuestion(request.left, request.right, attribute)
        )
        for attribute in context.prefs.unknown_attributes(
            request.left, request.right
        )
    )


def apply_multiway_answers(
    prefs: PreferenceSystem,
    answers: Dict[MultiwayQuestion, int],
) -> None:
    """Fold m-ary winners into the preference system.

    The chosen candidate is preferred over every other candidate of its
    question — ``k − 1`` strict edges per answer, committed as one
    closure transaction in the original expansion order."""
    prefs.apply_verdicts(
        [
            (winner, candidate, question.attribute, Preference.LEFT)
            for question, winner in answers.items()
            for candidate in question.candidates
            if candidate != winner
        ]
    )


def ask_batch(context: ExecutionContext, requests: Iterable[Request]) -> None:
    """Ask a batch of requests together as one round: the one path by
    which every scheduler posts questions.

    A pair request expands to a micro-question per crowd attribute not
    yet derivable from the closure; a forced request (the DSet/P1
    variants, which predate the preference-tree inference of P2) is
    asked on every attribute without consulting the closure. A multiway
    request is one m-ary micro-task (§2.1's extension). Pairwise and
    m-ary micro-tasks of the same batch are issued back to back, and
    the multiway posting is folded into the pairwise round's accounting
    (``same_round``) whenever the pairwise half actually executed one —
    a mixed batch costs exactly one latency round.

    With ``ac_round_robin`` (the extension §6.1 mentions but does not
    apply; serial schedulers only, so the batch is one pair request) the
    pair's attributes are asked one round at a time, and the rest are
    skipped as soon as its outcome is decided — trading rounds for
    fewer questions when ``|AC| > 1``.

    Under an active trace the batch is one ``engine.ask_batch`` span
    around its closure pass, postings and their apply, carrying the
    batch's ``pairs``, ``multiway``, ``questions`` and ``saved`` counts.
    """
    observation = current_observation()
    if observation.enabled:
        with observation.tracer.span("engine.ask_batch") as span:
            _ask_batch(context, requests, span.attrs)
    else:
        _ask_batch(context, requests, None)


def _ask_batch(
    context: ExecutionContext,
    requests: Iterable[Request],
    counts: Optional[Dict[str, int]],
) -> None:
    """The body of :func:`ask_batch`; sets the batch's counts on
    ``counts`` (its span's attributes) when traced."""
    prefs = context.prefs
    questions: List[PairwiseQuestion] = []
    multiway: List[MultiwayQuestion] = []
    pair_requests: List[PairRequest] = []
    inferred: List[TupleT[int, int]] = []
    for request in requests:
        if isinstance(request, MultiwayRequest):
            multiway.append(
                MultiwayQuestion(request.candidates, request.attribute)
            )
        else:
            pair_requests.append(request)
            if not request.force:
                inferred.append((request.left, request.right))
    # One closure pass settles the whole candidate round: every pair is
    # resolved against the preference graphs at most once, however many
    # requests in the batch repeat it.
    resolved = prefs.resolve_pairs(inferred) if inferred else {}
    saved = 0
    for request in pair_requests:
        if request.force:
            attributes: Iterable[int] = range(prefs.num_attributes)
        else:
            rels = resolved[(request.left, request.right)]
            attributes = [j for j, rel in enumerate(rels) if rel is None]
            saved += prefs.num_attributes - len(attributes)
        for attribute in attributes:
            questions.append(
                PairwiseQuestion(request.left, request.right, attribute)
            )
    if counts is not None:
        # Set before the crowd is asked, so a batch that a strict
        # budget refuses still carries them.
        counts.update(
            pairs=len(pair_requests),
            multiway=len(multiway),
            questions=len(questions),
            saved=saved,
        )
    if context.ac_round_robin and len(pair_requests) == 1:
        postings = [[question] for question in questions]
    else:
        postings = [questions] if questions else []
    rounds_before = context.crowd.stats.rounds
    for posting in postings:
        apply_answers(prefs, context.crowd.ask_pairwise_round(posting))
        if len(postings) > 1 and _request_decided(prefs, pair_requests[0]):
            break
    if multiway:
        # Merge only when the pairwise half executed a round just now; a
        # fully cache-served (or empty) pairwise half means the multiway
        # posting is this batch's one round.
        multiway_answers = context.crowd.ask_multiway_round(
            multiway,
            same_round=context.crowd.stats.rounds > rounds_before,
        )
        apply_multiway_answers(prefs, multiway_answers)


def preprocess_duplicates(
    relation: Relation,
    crowd: SimulatedCrowd,
    prefs: PreferenceSystem,
) -> Set[int]:
    """Algorithm 1 lines 1-3: resolve tuples with identical ``AK`` values.

    For every group of tuples sharing all known values, pairwise
    questions identify tuples dominated purely in ``AC``; those are
    removed from further consideration (complete non-skyline tuples).
    Tuples tied on every crowd attribute both survive — neither
    dominates the other.

    Returns the removed tuple indices.
    """
    known = relation.known_matrix()
    groups: List[List[int]] = []
    if known.shape[0]:
        # Vectorized duplicate grouping over the rows that have a twin.
        # np.unique orders groups lexicographically by row value;
        # re-sorting by first member restores the first-occurrence order
        # the question sequence (and thus the seeded crowd RNG stream)
        # depends on. Stable argsort keeps members ascending within
        # each group.
        _, inverse, counts = np.unique(
            known, axis=0, return_inverse=True, return_counts=True
        )
        inverse = inverse.ravel()
        twins = np.flatnonzero(counts[inverse] > 1)
        order = twins[np.argsort(inverse[twins], kind="stable")]
        # Splitting after every group leaves one empty piece at the end.
        groups = [
            members.tolist()
            for members in np.split(order, np.cumsum(counts[counts > 1]))[:-1]
        ]
        groups.sort(key=lambda members: members[0])

    removed: Set[int] = set()
    for members in groups:
        for i, u in enumerate(members):
            if u in removed:
                continue
            for v in members[i + 1:]:
                if v in removed or u in removed:
                    continue
                attributes = prefs.unknown_attributes(u, v)
                if attributes:
                    questions = [
                        PairwiseQuestion(u, v, a) for a in attributes
                    ]
                    apply_answers(prefs, crowd.ask_pairwise_round(questions))
                if prefs.ac_dominates(u, v):
                    removed.add(v)
                elif prefs.ac_dominates(v, u):
                    removed.add(u)
    return removed
