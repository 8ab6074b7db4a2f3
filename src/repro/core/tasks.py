"""Per-tuple evaluation state machine (paper §3.1-§3.4).

A :class:`TupleTask` drives one tuple ``t`` through the CrowdSky pipeline:

1. **Activation** — ``DS(t)`` arrives pruned: the evaluate phase
   (:meth:`repro.core.crowdsky.Evaluation.start`) applies P1 (only
   skyline tuples found so far remain, Corollary 1) and P2 (reduce to
   ``SKY_AC(DS(t))`` under current knowledge, Corollary 2) for a whole
   batch of activations at once. The task then builds the probing pair
   list ``P(t)`` ordered by descending ``freq(u, v)`` (§3.4 — see
   DESIGN.md on the prose/pseudocode discrepancy), leaving out the
   pairs the closure already knows to be incomparable.
2. **Probing (P3)** — ask pairs inside ``DS(t)``; each resolved pair
   removes its less-preferred member and all of that member's pending
   pairs.
3. **Asking** — generate ``Q(t) = {(s, t) | s ∈ DS(t)}``; stop early as
   soon as some ``s`` dominates ``t`` (complete non-skyline tuple); if
   every ``s`` fails to dominate, ``t`` is a complete skyline tuple.

The task communicates with its scheduler through :meth:`advance`: it
returns the next *pair* that needs crowd input, consuming for free every
step already derivable from the preference system ``T``. Schedulers
(serial, ParallelDSet, ParallelSL) differ only in how they interleave
``advance`` calls and batch the emitted pairs into rounds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import List, Optional, Sequence, Set, Tuple as TupleT

import numpy as np

from repro.core.preference import PreferenceSystem
from repro.questions import Preference
from repro.skyline.dominating import FrequencyOracle


class TaskState(enum.Enum):
    """Lifecycle of a tuple evaluation."""

    PENDING = "pending"
    PROBING = "probing"
    ASKING = "asking"
    DONE = "done"


class TaskOutcome(enum.Enum):
    """Completion status of a tuple (Definition 4)."""

    SKYLINE = "skyline"
    NON_SKYLINE = "non-skyline"


@dataclass(frozen=True)
class PairRequest:
    """A pair whose (partially) unknown preferences must be asked.

    ``force`` requests the full pair even when parts are transitively
    derivable — used by the DSet/P1 variants, which predate the
    preference-tree inference introduced with P2 (§3.3).
    """

    left: int
    right: int
    force: bool = False
    #: True for Q(t) questions "does left dominate right?", where a single
    #: attribute preferring ``right`` already settles the outcome — the
    #: round-robin extension uses this to skip the remaining attributes.
    dominance_check: bool = False


@dataclass(frozen=True)
class MultiwayRequest:
    """An m-ary probing request: which of these tuples is most preferred?

    Emitted instead of probe pairs when the engine runs with
    ``multiway > 2`` (the §2.1 extension); the winner's answer yields
    ``k − 1`` preference edges at once.
    """

    candidates: TupleT[int, ...]
    attribute: int = 0


class TupleTask:
    """Evaluation of one tuple ``t`` against its dominating set.

    Parameters
    ----------
    t:
        The tuple index under evaluation.
    dominating_set:
        ``DS(t)`` members after P1 (and P2 when on) as Python ints, in
        evaluation order (ascending ``|DS(s)|``), as
        :meth:`~repro.core.crowdsky.Evaluation.start` hands them over.
    prefs:
        The shared preference system ``T``.
    frequency:
        ``freq(u, v)`` oracle for probing order.
    use_p2, use_p3:
        Pruning toggles. Without P2 every ``Q(t)`` question is asked
        outright; without P3 there is no probing.
    probe_ascending:
        Ablation switch: probe pairs in *ascending* ``freq`` order (the
        literal reading of Algorithm 1 line 11) instead of the prose's
        descending order.
    multiway:
        Probe with m-ary questions of up to this many tuples (§2.1's
        extension; only effective with P3 and a single crowd
        attribute).
    """

    def __init__(
        self,
        t: int,
        dominating_set: Sequence[int],
        prefs: PreferenceSystem,
        frequency: FrequencyOracle,
        use_p2: bool = True,
        use_p3: bool = True,
        probe_ascending: bool = False,
        multiway: int = 2,
    ):
        if multiway < 2:
            raise ValueError("multiway group size must be at least 2")
        self.t = t
        self._ds = list(dominating_set)
        self._prefs = prefs
        self._frequency = frequency
        self._use_p2 = use_p2
        self._use_p3 = use_p3
        self._probe_ascending = probe_ascending
        # m-ary probing is a probing method, so it needs P3, and it only
        # collapses groups cleanly on one attribute; with several crowd
        # attributes the winner need not dominate.
        self._multiway = (
            multiway if use_p3 and prefs.num_attributes == 1 else 2
        )
        self._asked_groups: Set[TupleT[int, ...]] = set()
        #: Closure version under which ``_ds`` is ``SKY_AC``-reduced
        #: (m-ary probing only); reducing it again then changes nothing.
        self._reduced_at: Optional[int] = None
        #: The probe ladder, walked by ``_cursor``; a pair whose member
        #: left ``_live`` is skipped when the cursor reaches it.
        self._probe_pairs: List[TupleT[int, int]] = []
        self._cursor = 0
        self._live: Set[int] = set()
        self._ask_index = 0
        self._requested: Set[int] = set()
        #: DS members whose Q(t) question the crowd gave up on — treated
        #: conservatively as unable to dominate ``t``.
        self._abandoned: Set[int] = set()
        self.state = TaskState.PENDING
        self.outcome: Optional[TaskOutcome] = None

    @property
    def dominating_set(self) -> List[int]:
        """The (pruned) dominating set as it currently stands."""
        if self.state is TaskState.PROBING:
            return [s for s in self._ds if s in self._live]
        return list(self._ds)

    def activate(self) -> None:
        """Build the probe ladder and enter the probing phase.

        The ladder holds only the pairs the closure has not settled
        (:meth:`~repro.core.preference.PreferenceSystem.open_pairs`):
        the walk would step over a settled pair whenever it reached it,
        because a derived relation is never retracted. m-ary probing
        walks no ladder.
        """
        if self.state is not TaskState.PENDING:
            raise RuntimeError(f"task {self.t} activated twice")
        if self._multiway > 2:
            if self._use_p2:
                # P2 reduced the members under the current closure.
                self._reduced_at = self._prefs.version
        elif self._use_p3 and len(self._ds) > 1:
            self._probe_pairs = self._sorted_probe_pairs(self._ds)
        self._live = set(self._ds)
        self.state = TaskState.PROBING

    def _sorted_probe_pairs(
        self, members: Sequence[int]
    ) -> List[TupleT[int, int]]:
        """The open pairs of ``members``, highest pruning power first
        (§3.4 prose; Algorithm 1 line 11 says ascending — see
        DESIGN.md), ties broken by the pair's indices."""
        first, second = self._prefs.open_pairs(members)
        if not len(first):
            return []
        ids = np.asarray(members, dtype=np.int64)
        us, vs = ids[first], ids[second]
        if len(us) > 1:
            # freq(u, v) over the open pairs' members only.
            used = np.zeros(len(ids), dtype=bool)
            used[first] = True
            used[second] = True
            at = np.cumsum(used) - 1
            freq = self._frequency.freq_matrix(ids[used])
            sign = 1 if self._probe_ascending else -1
            order = np.lexsort((vs, us, sign * freq[at[first], at[second]]))
            us, vs = us[order], vs[order]
        return list(zip(us.tolist(), vs.tolist()))

    def abandon_request(self, request) -> None:
        """Give up on an unresolvable request (fault tolerance).

        Called by a scheduler when the crowd permanently failed the
        emitted request (retries exhausted, deadline missed, or budget
        gone in non-strict mode). The request is resolved
        *conservatively* — no pruning is derived from it:

        * an abandoned probe pair keeps both members in ``DS(t)``,
        * an abandoned multiway probe skips the rest of the probing
          phase (probing is an optimization, never required),
        * an abandoned ``Q(t)`` question treats its DS member as unable
          to dominate ``t`` — ``t`` stays a skyline candidate, so the
          degraded skyline can only gain tuples, never lose true ones.
        """
        if isinstance(request, MultiwayRequest):
            if self.state is TaskState.PROBING:
                self.state = TaskState.ASKING
            return
        if self.state is TaskState.PROBING:
            self._cursor += 1  # the request is the pair at the cursor
        elif self.state is TaskState.ASKING:
            self._abandoned.add(request.left)

    def advance(self) -> Optional[PairRequest]:
        """Return the next pair needing crowd input, or None when done.

        All steps derivable from ``T`` are consumed without emitting a
        request; callers must re-invoke :meth:`advance` after feeding the
        answers of an emitted request into the preference system.
        """
        if self.state is TaskState.PENDING:
            raise RuntimeError(f"task {self.t} not activated")

        while self.state is TaskState.PROBING and self._multiway > 2:
            # m-ary probing: consume derivable knowledge, then ask the
            # next group of up to k mutually-unresolved members.
            version = self._prefs.version
            if version != self._reduced_at:
                self._ds = self._prefs.sky_ac([self._ds])[0]
                self._reduced_at = version
            if len(self._ds) <= 1:
                self.state = TaskState.ASKING
                break
            group = tuple(self._ds[: self._multiway])
            if group in self._asked_groups:  # pragma: no cover - guarded
                raise RuntimeError(
                    f"multiway probing made no progress on {group}"
                )
            self._asked_groups.add(group)
            return MultiwayRequest(group)

        pairs, live = self._probe_pairs, self._live
        while self.state is TaskState.PROBING:
            if self._cursor >= len(pairs):
                self._ds = [s for s in self._ds if s in live]
                self.state = TaskState.ASKING
                break
            u, v = pairs[self._cursor]
            if u in live and v in live:
                rels = self._prefs.pair_relations(u, v)
                if None in rels:
                    return PairRequest(u, v)
                left = Preference.LEFT in rels
                right = Preference.RIGHT in rels
                if left and not right:
                    live.discard(v)  # u ≺_AC v
                elif right and not left:
                    live.discard(u)  # v ≺_AC u
                elif not left and not right:
                    live.discard(max(u, v))  # fully tied twins
                # Otherwise known but incomparable across crowd
                # attributes (|AC| > 1): neither member prunes the other.
            self._cursor += 1

        while self.state is TaskState.ASKING:
            if self._ask_index >= len(self._ds):
                if self.outcome is None:
                    self.outcome = TaskOutcome.SKYLINE
                self.state = TaskState.DONE
                break
            s = self._ds[self._ask_index]
            if s in self._abandoned:
                # Unresolvable question: conservatively assume s does not
                # dominate t and move on.
                self._ask_index += 1
                continue
            if not self._use_p2 and s not in self._requested:
                # Without P2 there is no preference-tree inference: every
                # question of Q(t) is asked outright (§3.1-§3.2).
                self._requested.add(s)
                return PairRequest(s, self.t, force=True,
                                   dominance_check=True)
            rels = self._prefs.pair_relations(s, self.t)
            if all(
                rel is not None and rel is not Preference.RIGHT
                for rel in rels
            ):
                # s ⪯_AC t derivable; with s ≺_AK t this gives s ≺_A t:
                # t is a complete non-skyline tuple (Definition 4) — the
                # remaining questions of Q(t) are unnecessary in every
                # variant.
                self.outcome = TaskOutcome.NON_SKYLINE
                self.state = TaskState.DONE
                break
            if None not in rels or (
                self._use_p2 and Preference.RIGHT in rels
            ):
                # Fully answered, or dominance already ruled out by a
                # partial answer (e.g. from round-robin asking) — either
                # way s cannot make t a non-skyline tuple.
                self._ask_index += 1
                continue
            return PairRequest(s, self.t, dominance_check=True)

        if self.state is TaskState.DONE and self.outcome is None:
            self.outcome = TaskOutcome.SKYLINE
        return None
