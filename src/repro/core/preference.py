"""The preference graph ``T`` over crowd attributes (paper §3.3).

Each crowd attribute maintains a preference graph: nodes are tuples, an
edge ``u → v`` records "``u`` preferred over ``v``", and reachability
gives transitive preferences. Crowds may also answer "equally
preferred"; tied tuples are merged into equivalence classes via
union-find, and edges connect class representatives.

Noisy crowds can produce answers that contradict earlier (transitively
derived) knowledge — e.g. three questions of one parallel round forming a
cycle. The paper does not discuss this case; the first answer wins:
``T`` stays acyclic by rejecting the newcomer, and the rejection is
counted in ``rejected_answers``.

Two graphs implement the closure:

* :class:`NumpyPreferenceGraph` — reachability as packed bit rows, one
  per tie class, in ``(n, ceil(n/64))`` uint64 matrices, with
  **incremental** transitive-closure maintenance: an edge insert is one
  masked ``|=`` broadcast over every affected class row and tie merges
  are row ORs plus row retirement. Its
  :meth:`~NumpyPreferenceGraph.relations_batch` answers whole arrays of
  pair queries in one gather. Every run is built on it.
* :class:`ReferencePreferenceGraph` — the original per-node
  ``Dict[int, Set[int]]`` adjacency with memoized DFS reachability.
  Kept as the executable specification; its descendant cache is
  invalidated *exactly* (only nodes whose reachable set can change).
  The tests pass it to :class:`PreferenceSystem` as its ``graph``, and
  the differential suite (``tests/test_preference_differential.py``)
  pins the two graphs to bit-for-bit identical observable state.

:class:`PreferenceSystem` bundles ``|AC|`` graphs and provides the
AC-level dominance tests used by the pruning rules (Corollaries 1-2,
Lemma 4), memoized per pair and exposed batch-wise through
:meth:`PreferenceSystem.resolve_pairs` so schedulers can settle a whole
candidate round in one closure pass. Round commits go through
:meth:`PreferenceSystem.apply_verdicts` — one *closure transaction* per
crowd round instead of one closure touch per answer.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple, Type

import numpy as np

from repro.questions import Preference
from repro.obs import current_observation

#: :meth:`_BasePreferenceGraph.relations_batch` code → relation.
RELATION_CODES: Tuple[Optional[Preference], ...] = (
    None, Preference.LEFT, Preference.RIGHT, Preference.EQUAL
)

#: Relation → its :data:`RELATION_CODES` code.
_CODE_OF: Dict[Optional[Preference], int] = {
    rel: code for code, rel in enumerate(RELATION_CODES)
}


class _BasePreferenceGraph:
    """Shared union-find, answer folding and introspection.

    Subclasses implement the reachability/closure layer through
    ``_reaches``, ``_add_edge`` and ``_merge_closure`` hooks. All
    observable state (relations, tie classes, rejected-answer counts,
    direct edges) is the same in every subclass — the differential test
    suite enforces this. ``backend`` names the subclass on the closure's
    trace records.
    """

    backend = "abstract"

    def __init__(self, n: int):
        self._n = n
        self._parent = list(range(n))
        self._out: Dict[int, Set[int]] = {}
        self._in: Dict[int, Set[int]] = {}
        self.rejected_answers = 0
        #: Monotone mutation counter — lets :class:`PreferenceSystem`
        #: invalidate its pair memo lazily instead of eagerly.
        self.version = 0
        #: Closure maintenance work (node-set updates) — exported as the
        #: ``crowdsky_closure_updates_total`` observability counter.
        self.closure_updates = 0

    # -- union-find ------------------------------------------------------

    def _find(self, x: int) -> int:
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:  # path compression
            self._parent[x], x = root, self._parent[x]
        return root

    def _union(self, a: int, b: int) -> int:
        ra, rb = self._find(a), self._find(b)
        if ra == rb:
            return ra
        keep, drop = (ra, rb) if ra < rb else (rb, ra)
        self._parent[drop] = keep
        out = self._out.pop(drop, set())
        self._out.setdefault(keep, set()).update(out)
        for succ in out:
            # every edge target has an _in entry by construction
            succs_in = self._in[succ]
            succs_in.discard(drop)
            succs_in.add(keep)
        incoming = self._in.pop(drop, set())
        self._in.setdefault(keep, set()).update(incoming)
        for pred in incoming:
            preds_out = self._out[pred]
            preds_out.discard(drop)
            preds_out.add(keep)
        self._out.get(keep, set()).discard(keep)
        self._in.get(keep, set()).discard(keep)
        self._merge_closure(keep, drop)
        return keep

    # -- closure hooks (per graph) ---------------------------------------

    def _reaches(self, source: int, target: int) -> bool:
        """Is ``source ≺ target`` derivable (transitively)? Arguments are
        class representatives."""
        raise NotImplementedError

    def _add_edge(self, src: int, dst: int) -> None:
        """Insert the direct edge ``src → dst`` (representatives, not
        previously related) and update the closure."""
        raise NotImplementedError

    def _merge_closure(self, keep: int, drop: int) -> None:
        """Fold class ``drop`` into ``keep`` in the closure structures.

        Called after the adjacency rewiring of a tie merge; the two
        classes were not previously related in either direction."""
        raise NotImplementedError

    # -- public API ------------------------------------------------------

    def relation(self, u: int, v: int) -> Optional[Preference]:
        """The derivable relation between ``u`` and ``v``.

        Returns ``LEFT`` when ``u`` preferred, ``RIGHT`` when ``v``
        preferred, ``EQUAL`` when tied, ``None`` when unknown.
        """
        ru, rv = self._find(u), self._find(v)
        if ru == rv:
            return Preference.EQUAL
        if self._reaches(ru, rv):
            return Preference.LEFT
        if self._reaches(rv, ru):
            return Preference.RIGHT
        return None

    def knows(self, u: int, v: int) -> bool:
        """Whether any relation between ``u`` and ``v`` is derivable."""
        return self.relation(u, v) is not None

    def add_answer(self, u: int, v: int, answer: Preference) -> bool:
        """Record an aggregated crowd answer for the pair ``(u, v)``.

        Returns True when the answer was incorporated, False when it was
        rejected for contradicting derived knowledge (the first answer
        wins).
        """
        known = self.relation(u, v)
        if known is not None:
            if known is answer:
                return True
            self.rejected_answers += 1
            return False
        self.version += 1
        if answer is Preference.EQUAL:
            self._union(u, v)
            return True
        if answer is Preference.LEFT:
            src, dst = self._find(u), self._find(v)
        else:
            src, dst = self._find(v), self._find(u)
        self._out.setdefault(src, set()).add(dst)
        self._in.setdefault(dst, set()).add(src)
        self._add_edge(src, dst)
        return True

    def edges(self) -> List[tuple]:
        """All direct edges ``(u_rep, v_rep)`` — for inspection/tests."""
        return [
            (src, dst) for src, succs in self._out.items() for dst in succs
        ]

    def class_of(self, u: int) -> int:
        """Representative of ``u``'s tie class."""
        return self._find(u)

    def find_roots(self, nodes: Sequence[int]) -> np.ndarray:
        """Class representatives of an array of tuple indices.

        This union-find walk per node is the specification; the numpy
        graph overrides it with one gather."""
        find = self._find
        return np.fromiter(
            (find(int(x)) for x in nodes), dtype=np.int64, count=len(nodes)
        )

    def relations_batch(
        self, us: Sequence[int], vs: Sequence[int]
    ) -> np.ndarray:
        """Relation codes for aligned pair arrays.

        Returns an int8 array: 0 = unknown, 1 = LEFT (``u`` preferred),
        2 = RIGHT, 3 = EQUAL — see :data:`RELATION_CODES`. This loop
        over :meth:`relation` is the specification; a graph with
        packed closure rows overrides it with one gather.
        """
        relation = self.relation
        return np.fromiter(
            (_CODE_OF[relation(int(u), int(v))] for u, v in zip(us, vs)),
            dtype=np.int8,
            count=len(us),
        )


class ReferencePreferenceGraph(_BasePreferenceGraph):
    """The original set-based graph — kept as executable specification.

    Descendant sets are memoized per representative. Invalidation is
    *exact*: a mutation of class ``r`` only clears cached sets that can
    actually change — ``r``'s own and those of nodes already reaching
    ``r`` (historically a single ``add_edge`` cleared every cached set,
    which made closure maintenance quadratic-plus on long runs).
    """

    backend = "reference"

    def __init__(self, n: int):
        super().__init__(n)
        self._descendants: Dict[int, Set[int]] = {}

    def _invalidate(self, *roots: int) -> None:
        """Drop cached descendant sets affected by a mutation of
        ``roots``: the roots' own caches plus any cache containing a
        root (i.e. of a node that reaches it)."""
        if not self._descendants:
            return
        affected = set(roots)
        self.closure_updates += 1
        self._descendants = {
            node: cached
            for node, cached in self._descendants.items()
            if node not in affected and not (affected & cached)
        }

    def _reaches(self, source: int, target: int) -> bool:
        if source == target:
            return False
        cached = self._descendants.get(source)
        if cached is None:
            cached = set()
            stack = [source]
            while stack:
                node = stack.pop()
                for succ in self._out.get(node, ()):
                    if succ not in cached:
                        cached.add(succ)
                        stack.append(succ)
            self._descendants[source] = cached
        return target in cached

    def _add_edge(self, src: int, dst: int) -> None:
        # Only src itself and nodes already reaching src gain
        # descendants; dst's reachable set is unchanged.
        self._invalidate(src)

    def _merge_closure(self, keep: int, drop: int) -> None:
        self._invalidate(keep, drop)

    def descendants(self, u: int) -> Set[int]:
        """Representatives strictly below ``u``'s class (computed or
        cached)."""
        root = self._find(u)
        self._reaches(root, -1)  # force/refresh the cache
        return set(self._descendants[root])


class NumpyPreferenceGraph(_BasePreferenceGraph):
    """Packed-bit closure: one uint64 matrix row per tie class.

    Per class representative ``r`` the graph keeps three packed bit rows
    over *original tuple indices* (so membership tests never need
    representative mapping): row ``r`` of the ``(n, ceil(n/64))`` uint64
    matrices ``_cls`` (class members), ``_desc`` (tuples strictly below)
    and ``_anc`` (tuples strictly above). A row is meaningful only while
    ``r`` is a class representative. The incremental Italiano-style
    update is a masked broadcast: an edge insert ORs ``below(dst)`` into
    the rows of every representative above ``src`` (and symmetrically
    for ancestors) in one vectorized ``|=``, and a tie merge is two row
    ORs plus retirement of the dropped row.

    :meth:`relations_batch` overrides the base loop with one gather of
    closure bits for a whole array of pairs; :class:`PreferenceSystem`
    routes ``resolve_pairs`` through it and vectorizes ``sky_ac`` over
    the same rows.

    ``closure_updates`` counts one update per representative row swept;
    the tier-1 suite pins it to the committed ``crowd-scale`` record.
    """

    backend = "numpy"

    def __init__(self, n: int):
        super().__init__(n)
        self._words = words = max(1, (n + 63) >> 6)
        self._desc = np.zeros((n, words), dtype=np.uint64)
        self._anc = np.zeros((n, words), dtype=np.uint64)
        self._cls = np.zeros((n, words), dtype=np.uint64)
        if n:
            idx = np.arange(n, dtype=np.int64)
            self._cls[idx, idx >> 6] = np.uint64(1) << (
                idx & 63
            ).astype(np.uint64)
        # Row r is live (a class representative) iff _is_rep[r].
        self._is_rep = np.ones(n, dtype=bool)
        #: Every tuple's class representative, kept equal to
        #: ``_find`` on each merge, so :meth:`find_roots` is one gather.
        self._root = np.arange(n, dtype=np.int64)

    # -- row helpers -----------------------------------------------------

    def _rep_rows(self, row: np.ndarray) -> np.ndarray:
        """Indices of set bits in a packed row that are live
        representatives (the rows an update must sweep)."""
        bits = np.unpackbits(row.view(np.uint8), bitorder="little")
        hits = bits[: self._n].view(np.bool_) & self._is_rep
        return np.nonzero(hits)[0]

    def _broadcast(
        self,
        above: np.ndarray,
        below: np.ndarray,
        gain_below: np.ndarray,
        gain_above: np.ndarray,
    ) -> None:
        """OR ``gain_below`` into every representative row above and
        ``gain_above`` into every one below — the whole incremental
        closure sweep as two masked broadcasts."""
        up = self._rep_rows(above)
        down = self._rep_rows(below)
        if up.size:
            self._desc[up] |= gain_below
        if down.size:
            self._anc[down] |= gain_above
        self.closure_updates += int(up.size) + int(down.size)

    # -- closure hooks ---------------------------------------------------

    def _reaches(self, source: int, target: int) -> bool:
        if target < 0:
            return False
        return bool(
            int(self._desc[source, target >> 6]) >> (target & 63) & 1
        )

    def _add_edge(self, src: int, dst: int) -> None:
        below = self._desc[dst] | self._cls[dst]
        above = self._anc[src] | self._cls[src]
        self._broadcast(above, below, below, above)

    def _merge_closure(self, keep: int, drop: int) -> None:
        members = self._cls[keep] | self._cls[drop]
        below = self._desc[keep] | self._desc[drop]
        above = self._anc[keep] | self._anc[drop]
        self._cls[keep] = members
        self._desc[keep] = below
        self._anc[keep] = above
        self._cls[drop] = 0
        self._desc[drop] = 0
        self._anc[drop] = 0
        self._is_rep[drop] = False
        self._root[self._root == drop] = keep
        self._broadcast(above, below, below | members, above | members)

    # -- fast scalar queries ---------------------------------------------

    def relation(self, u: int, v: int) -> Optional[Preference]:
        ru = self._find(u)
        if ru == self._find(v):
            return Preference.EQUAL
        word, bit = v >> 6, v & 63
        if int(self._desc[ru, word]) >> bit & 1:
            return Preference.LEFT
        if int(self._anc[ru, word]) >> bit & 1:
            return Preference.RIGHT
        return None

    # -- bulk query kernel -----------------------------------------------

    def find_roots(self, nodes: Sequence[int]) -> np.ndarray:
        """Class representatives of an array of tuple indices, as one
        gather from the representative array."""
        return self._root[np.asarray(nodes, dtype=np.int64)]

    def relations_batch(
        self, us: Sequence[int], vs: Sequence[int]
    ) -> np.ndarray:
        """Relation codes for aligned pair arrays in one gather.

        Returns an int8 array: 0 = unknown, 1 = LEFT (``u`` preferred),
        2 = RIGHT, 3 = EQUAL — see :data:`RELATION_CODES`.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        ru = self.find_roots(us)
        rv = self.find_roots(vs)
        cols = vs >> 6
        shifts = (vs & 63).astype(np.uint64)
        one = np.uint64(1)
        left = (self._desc[ru, cols] >> shifts) & one
        right = (self._anc[ru, cols] >> shifts) & one
        codes = np.zeros(len(us), dtype=np.int8)
        codes[left != 0] = 1
        codes[right != 0] = 2
        codes[ru == rv] = 3
        return codes


#: A pair's derivable relation on every crowd attribute (None = unknown).
PairRelations = Tuple[Optional[Preference], ...]

#: One aggregated crowd verdict: ``(left, right, attribute, answer)``.
Verdict = Tuple[int, int, int, Preference]

#: Orientation flip as a dict lookup — the memo fill path calls this
#: once per attribute per miss, where a method call measurably shows up.
_FLIPPED: Dict[Optional[Preference], Optional[Preference]] = {
    None: None,
    Preference.LEFT: Preference.RIGHT,
    Preference.RIGHT: Preference.LEFT,
    Preference.EQUAL: Preference.EQUAL,
}


class PreferenceSystem:
    """One preference graph per crowd attribute.

    Provides the AC-level predicates used by the pruning machinery. All
    predicates are *knowledge-relative*: they return what is currently
    derivable from answered questions, never consulting latent values.

    Per-pair relation vectors are memoized; the memo is invalidated
    lazily via the graphs' mutation counters, so bursts of dominance
    tests between crowd answers (``sky_ac``, probing, Q(t) checks) hit
    the closure at most once per pair.

    ``graph`` is the class of the per-attribute graphs. The program
    always builds :class:`NumpyPreferenceGraph`; the tests pass
    :class:`ReferencePreferenceGraph`, the specification.
    """

    def __init__(
        self,
        n: int,
        num_attributes: int,
        graph: Type[_BasePreferenceGraph] = NumpyPreferenceGraph,
    ):
        if num_attributes < 1:
            raise ValueError("need at least one crowd attribute")
        self._n = n
        #: The graph class's name, stamped on the closure's spans.
        self.backend = graph.backend
        self.graphs = [graph(n) for _ in range(num_attributes)]
        self._memo: Dict[Tuple[int, int], PairRelations] = {}
        self._memo_version = 0
        #: Pair lookups answered from the memo — exported as the
        #: ``crowdsky_pref_cache_hits_total`` observability counter.
        self.cache_hits = 0
        self.cache_misses = 0

    @property
    def num_attributes(self) -> int:
        """``|AC|``."""
        return len(self.graphs)

    # -- memoized pair resolution ---------------------------------------

    @property
    def version(self) -> int:
        """Accepted answers across all attributes: it changes exactly
        when the closure does."""
        return sum(graph.version for graph in self.graphs)

    def pair_relations(self, u: int, v: int) -> PairRelations:
        """Derivable relations of ``(u, v)`` on every crowd attribute,
        memoized until the next accepted answer."""
        version = self.version
        if version != self._memo_version:
            self._memo.clear()
            self._memo_version = version
        key = (u, v)
        rels = self._memo.get(key)
        if rels is not None:
            self.cache_hits += 1
            return rels
        self.cache_misses += 1
        rels = tuple(graph.relation(u, v) for graph in self.graphs)
        self._memo[key] = rels
        self._memo[(v, u)] = tuple(_FLIPPED[rel] for rel in rels)
        return rels

    def resolve_pairs(
        self, pairs: Iterable[Tuple[int, int]]
    ) -> Dict[Tuple[int, int], PairRelations]:
        """Settle many pairs in one closure pass.

        Returns ``{(u, v): per-attribute relations}`` for every distinct
        input pair. Schedulers use this to test a whole candidate round
        (batch building, probe ladders, budget finalization) against the
        closure at once instead of re-querying pair by pair.

        Duplicate and symmetric pairs are collapsed before the closure
        is touched: memo-served pairs never reach the graphs, and of an
        ``(u, v)`` / ``(v, u)`` twin only one orientation is computed
        (the other is its flip). The remaining misses resolve through
        one :meth:`~_BasePreferenceGraph.relations_batch` call per
        attribute — a single gather on the numpy graph. Under an
        active trace each pass is one ``pref.resolve`` span, so the
        profiler can set closure time against crowd time.
        """
        unique = dict.fromkeys(pairs)
        observation = current_observation()
        if observation.enabled:
            with observation.tracer.span(
                "pref.resolve", pairs=len(unique), backend=self.backend
            ):
                return self._resolve_unique(unique)
        return self._resolve_unique(unique)

    def _resolve_unique(
        self, unique: Dict[Tuple[int, int], None]
    ) -> Dict[Tuple[int, int], PairRelations]:
        version = self.version
        if version != self._memo_version:
            self._memo.clear()
            self._memo_version = version
        memo = self._memo
        out: Dict[Tuple[int, int], PairRelations] = {}
        missing: List[Tuple[int, int]] = []
        for pair in unique:
            rels = memo.get(pair)
            if rels is not None:
                out[pair] = rels
            else:
                missing.append(pair)
        self.cache_hits += len(out)
        if not missing:
            return out
        # Canonicalize symmetric twins: each unordered pair hits the
        # closure once; the reverse orientation is a memo flip.
        canonical: List[Tuple[int, int]] = []
        seen: Set[Tuple[int, int]] = set()
        for u, v in missing:
            key = (u, v) if u <= v else (v, u)
            if key not in seen:
                seen.add(key)
                canonical.append(key)
        self.cache_misses += len(canonical)
        self.cache_hits += len(missing) - len(canonical)
        us = np.fromiter(
            (p[0] for p in canonical), dtype=np.int64, count=len(canonical)
        )
        vs = np.fromiter(
            (p[1] for p in canonical), dtype=np.int64, count=len(canonical)
        )
        per_attr = [graph.relations_batch(us, vs) for graph in self.graphs]
        for index, key in enumerate(canonical):
            rels = tuple(RELATION_CODES[codes[index]] for codes in per_attr)
            memo[key] = rels
            memo[(key[1], key[0])] = tuple(_FLIPPED[rel] for rel in rels)
        for pair in missing:
            out[pair] = memo[pair]
        return out

    # -- closure transactions -------------------------------------------

    def apply_verdicts(self, batch: Iterable[Verdict]) -> int:
        """Ingest one round's aggregated verdicts as a single closure
        transaction.

        ``batch`` is an iterable of ``(left, right, attribute, answer)``
        tuples. Verdicts are applied strictly in the given order — the
        first answer wins, so acceptance is order-sensitive and the
        transaction never reorders answers; what
        it batches is everything *around* the per-edge closure update:
        one ``pref.apply_verdicts`` span (whose ``verdicts`` fold into
        the ``crowdsky_closure_batch_size`` histogram, and which carries
        ``accepted``) per round instead of per answer.

        Returns the number of accepted (non-contradicting) verdicts.
        """
        verdicts = batch if isinstance(batch, list) else list(batch)
        if not verdicts:
            return 0
        observation = current_observation()
        if observation.enabled:
            with observation.tracer.span(
                "pref.apply_verdicts",
                verdicts=len(verdicts),
                backend=self.backend,
            ) as span:
                accepted = self._apply_verdicts(verdicts)
                span.attrs["accepted"] = accepted
        else:
            accepted = self._apply_verdicts(verdicts)
        return accepted

    def _apply_verdicts(self, verdicts: List[Verdict]) -> int:
        graphs = self.graphs
        accepted = 0
        for u, v, attribute, answer in verdicts:
            if graphs[attribute].add_answer(u, v, answer):
                accepted += 1
        return accepted

    # -- AC-level predicates --------------------------------------------

    def relation(self, u: int, v: int, attribute: int) -> Optional[Preference]:
        """Derivable relation on one crowd attribute."""
        return self.pair_relations(u, v)[attribute]

    def add_answer(
        self, u: int, v: int, attribute: int, answer: Preference
    ) -> bool:
        """Record an aggregated answer on one crowd attribute."""
        return self.graphs[attribute].add_answer(u, v, answer)

    def unknown_attributes(self, u: int, v: int) -> List[int]:
        """Crowd attributes on which ``(u, v)`` is not yet derivable."""
        return [
            j
            for j, rel in enumerate(self.pair_relations(u, v))
            if rel is None
        ]

    def fully_known(self, u: int, v: int) -> bool:
        """Whether the pair is derivable on every crowd attribute."""
        return None not in self.pair_relations(u, v)

    def weakly_prefers_all(self, u: int, v: int) -> bool:
        """``u ⪯_AC v`` derivable: on every attribute ``u ≺ v`` or tie."""
        for rel in self.pair_relations(u, v):
            if rel is None or rel is Preference.RIGHT:
                return False
        return True

    def ac_dominates(self, u: int, v: int) -> bool:
        """``u ≺_AC v`` derivable: weakly preferred everywhere, strictly
        somewhere."""
        strict = False
        for rel in self.pair_relations(u, v):
            if rel is None or rel is Preference.RIGHT:
                return False
            if rel is Preference.LEFT:
                strict = True
        return strict

    def cannot_dominate(self, u: int, v: int) -> bool:
        """``u ≺_A v`` is already ruled out: some crowd attribute is
        known to strictly prefer ``v``."""
        return any(
            rel is Preference.RIGHT for rel in self.pair_relations(u, v)
        )

    def ac_equal(self, u: int, v: int) -> bool:
        """``u =_AC v`` derivable on every crowd attribute."""
        return all(
            rel is Preference.EQUAL for rel in self.pair_relations(u, v)
        )

    def sky_ac(self, groups: Sequence[Sequence[int]]) -> List[List[int]]:
        """``SKY_AC`` of each member group under current knowledge
        (§3.3).

        Each group holds distinct tuples; groups may share tuples. In
        each group, members strictly AC-dominated by another member of
        the same group are removed, and fully tied members are
        deduplicated (keeping the lowest index) — a tied twin answers
        the same questions, so asking both is redundant. Order of the
        survivors follows the group.

        The evaluate phase calls this once per batch of activations,
        one group per tuple's ``DS(t)``; multiway probing calls it with
        one group. The numpy graph takes the vectorized
        :meth:`_sky_ac_numpy` over all groups at once; the reference
        graph runs :meth:`_sky_ac_pairs`, the specification the
        differential suite holds the kernel to, once per group.
        """
        if isinstance(self.graphs[0], NumpyPreferenceGraph):
            return self._sky_ac_numpy(groups)
        return [self._sky_ac_pairs(group) for group in groups]

    def _sky_ac_pairs(self, members: Sequence[int]) -> List[int]:
        """``SKY_AC`` of one group by the pair loop."""
        survivors: List[int] = []
        for v in members:
            dominated = False
            for u in members:
                if u == v:
                    continue
                rels = self.pair_relations(u, v)
                if all(
                    rel is not None and rel is not Preference.RIGHT
                    for rel in rels
                ):
                    if any(rel is Preference.LEFT for rel in rels):
                        dominated = True  # u ≺_AC v
                        break
                    if u < v:
                        dominated = True  # full tie: keep lowest index
                        break
            if not dominated:
                survivors.append(v)
        return survivors

    def _sky_ac_numpy(
        self, groups: Sequence[Sequence[int]]
    ) -> List[List[int]]:
        """Vectorized ``SKY_AC`` of every group at once, for any
        ``|AC|`` (numpy graph).

        The members of all groups of two or more are laid end to end. A
        member ``v`` is dominated when some other member of its group is
        weakly preferred on every attribute and strictly somewhere:
        per-attribute row gathers combined with bitwise AND/OR, then one
        ``any`` per member, masked by its group's member bits. ``v``'s
        own bit never appears in an ancestor row, so self-comparison is
        excluded for free. Fully tied twins share their class on every
        attribute, so one ``lexsort`` over the members' group and
        per-attribute roots brings each group's twins together, and each
        set of twins keeps its lowest index. Equivalent to the pair loop
        bit for bit.
        """
        out = [list(group) for group in groups]
        large = [index for index, group in enumerate(out) if len(group) > 1]
        if not large:
            return out
        sizes = [len(out[index]) for index in large]
        m = np.array(
            [v for index in large for v in out[index]], dtype=np.int64
        )
        group_of = np.arange(len(large)).repeat(sizes)
        group_bits = np.zeros(
            (len(large), self.graphs[0]._words), dtype=np.uint64
        )
        np.bitwise_or.at(
            group_bits,
            (group_of, m >> 6),
            np.uint64(1) << (m & 63).astype(np.uint64),
        )
        weak_all = strict_any = None
        roots = []
        for graph in self.graphs:
            root = graph.find_roots(m)
            roots.append(root)
            anc = graph._anc[root]
            if weak_all is None:
                weak_all = anc | graph._cls[root]
                strict_any = anc
            else:
                weak_all &= anc | graph._cls[root]
                strict_any = strict_any | anc
        dominated = (weak_all & strict_any & group_bits[group_of]).any(
            axis=1
        )
        # The group shares one key with the first root (roots are below
        # n). Sorted by the keys and then by index, a member that
        # repeats its predecessor's keys has a lower-indexed twin.
        keys = [group_of * self._n + roots[0]] + roots[1:]
        order = np.lexsort([m] + keys)
        same = True
        for key in keys:
            ranked = key[order]
            same = same & (ranked[1:] == ranked[:-1])
        tied = np.zeros(len(m), dtype=bool)
        tied[order[1:]] = same
        keep = ~(dominated | tied)
        survivors = m[keep].tolist()
        counts = np.bincount(group_of[keep], minlength=len(large)).tolist()
        start = 0
        for index, count in zip(large, counts):
            out[index] = survivors[start:start + count]
            start += count
        return out

    def open_pairs(
        self, members: Sequence[int]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Positions ``(i, j)``, ``i < j``, of the member pairs a probe
        walk can still act on, in row-major order (§3.4).

        A pair is *settled* when it is known on every crowd attribute,
        with ``LEFT`` on one and ``RIGHT`` on another: neither member
        can prune the other, and since a derived relation is never
        retracted, it stays so. Every other pair is open. With one
        crowd attribute no pair can be settled, so every pair is open
        and the closure is not read. The numpy graph tests all
        ``k × k`` member bits at once (:meth:`_settled_numpy`); the
        reference graph runs the pair loop (:meth:`_settled_pairs`),
        the specification.
        """
        index = np.arange(len(members))
        upper = index[:, None] < index
        if self.num_attributes > 1:
            if isinstance(self.graphs[0], NumpyPreferenceGraph):
                upper &= ~self._settled_numpy(members)
            else:
                upper &= ~self._settled_pairs(members)
        return np.nonzero(upper)

    def _settled_pairs(self, members: Sequence[int]) -> np.ndarray:
        """The settled-pair mask of ``members`` by the pair loop, above
        the diagonal (the specification)."""
        k = len(members)
        settled = np.zeros((k, k), dtype=bool)
        for i in range(k):
            for j in range(i + 1, k):
                rels = self.pair_relations(members[i], members[j])
                settled[i, j] = (
                    None not in rels
                    and Preference.LEFT in rels
                    and Preference.RIGHT in rels
                )
        return settled

    def _settled_numpy(self, members: Sequence[int]) -> np.ndarray:
        """The ``k × k`` settled-pair mask of ``members`` (numpy
        graph).

        Per attribute one gather of the members' closure bits out of
        their roots' descendant rows gives ``below[a, b]``: member ``b``
        lies strictly below member ``a``, so the pair ``(a, b)`` is
        ``LEFT`` and its transpose ``RIGHT``; equal roots are ``EQUAL``.
        A pair is settled when every attribute knows it and ``LEFT``
        holds on some attribute and ``RIGHT`` on some other.
        """
        m = np.asarray(members, dtype=np.int64)
        words = m >> 6
        shifts = (m & 63).astype(np.uint64)
        one = np.uint64(1)
        known = left = None
        for graph in self.graphs:
            roots = graph.find_roots(m)
            below = (graph._desc[roots[:, None], words] >> shifts) & one
            below = below.astype(bool)
            rel = below | below.T | (roots[:, None] == roots)
            if known is None:
                known, left = rel, below
            else:
                known &= rel
                left |= below
        return known & left & left.T

    def total_rejected(self) -> int:
        """Total contradicted answers across all attributes."""
        return sum(graph.rejected_answers for graph in self.graphs)

    def closure_updates(self) -> int:
        """Total closure-maintenance updates across all attributes."""
        return sum(graph.closure_updates for graph in self.graphs)
