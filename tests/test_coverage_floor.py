"""Coverage floor for the preference core (no external coverage dep).

The preference closure is the hottest and most correctness-critical
code in the repository, so its test coverage is enforced as a tier-1
gate: ``repro/core/preference.py`` must keep **≥ 95 % branch and line
coverage** under the in-process exercise below. The container ships no
``coverage``/``pytest-cov``, so this module implements a small
measurement harness itself:

* ``sys.settrace`` records executed lines, line-to-line arcs and
  return lines restricted to the target module;
* executable lines come from the functions' code objects
  (``co_lines``), recursively including comprehensions;
* branch sites are the module's ``if``/``while``/``for`` *statements*
  (from the AST); an outcome counts as covered when its entry line ran
  (body / explicit else) or an arc left the condition (implicit else /
  loop exhaustion). Single-line conditionals, ternaries and
  short-circuit operators are outside the model — the module avoids
  them on purpose.

If this test fails after editing ``preference.py``, either extend
``_exercise()`` below (preferred) or you removed behaviour the suite
still expects.
"""

import ast
import inspect
import sys
import types
from typing import Dict, List, Set, Tuple

import pytest

import repro.core.preference as pref
from repro.core.preference import (
    NumpyPreferenceGraph,
    PreferenceSystem,
    ReferencePreferenceGraph,
    _BasePreferenceGraph,
)
from repro.questions import Preference
from repro.obs import observe
from repro.obs.metrics import CLOSURE_BATCH_SIZE
from tests.sky_ac_groups import sky_ac_groups

pytestmark = pytest.mark.pref

FLOOR = 0.95
L, R, E = Preference.LEFT, Preference.RIGHT, Preference.EQUAL


# ---------------------------------------------------------------------------
# Measurement harness
# ---------------------------------------------------------------------------


def _module_codes() -> List[types.CodeType]:
    """All function/method code objects of the target module,
    including nested comprehension/generator code."""
    codes: List[types.CodeType] = []
    seen: Set[types.CodeType] = set()

    def add(code: types.CodeType) -> None:
        if code in seen or code.co_filename != pref.__file__:
            return
        seen.add(code)
        codes.append(code)
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                add(const)

    def add_member(member) -> None:
        if inspect.isfunction(member):
            add(member.__code__)
        elif isinstance(member, property):
            for accessor in (member.fget, member.fset, member.fdel):
                if accessor is not None:
                    add(accessor.__code__)
        elif isinstance(member, (classmethod, staticmethod)):
            add(member.__func__.__code__)

    for obj in vars(pref).values():
        if inspect.isfunction(obj) and obj.__module__ == pref.__name__:
            add(obj.__code__)
        elif inspect.isclass(obj) and obj.__module__ == pref.__name__:
            for member in vars(obj).values():
                add_member(member)
    return codes


def _executable_lines() -> Set[int]:
    lines: Set[int] = set()
    for code in _module_codes():
        for _, _, line in code.co_lines():
            if line is not None and line > 0:
                lines.add(line)
    return lines


class _BranchSite:
    def __init__(self, node, parent_body, index):
        self.kind = type(node).__name__.lower()
        self.lineno = node.lineno
        self.end_lineno = node.end_lineno
        # Lines on which the condition/iterator is (re)evaluated.
        self.cond_lines = set(
            range(node.lineno, node.body[0].lineno)
        ) or {node.lineno}
        self.body_entry = node.body[0].lineno
        self.else_entry = node.orelse[0].lineno if node.orelse else None


def _branch_sites() -> List[_BranchSite]:
    tree = ast.parse(inspect.getsource(pref))
    sites: List[_BranchSite] = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.If, ast.While, ast.For)):
            sites.append(_BranchSite(node, None, None))
    return sites


def _trace(fn) -> Tuple[Set[int], Set[Tuple[int, int]], Set[int]]:
    """Run ``fn`` recording (executed lines, arcs, return lines) inside
    the target module only."""
    target = pref.__file__
    executed: Set[int] = set()
    arcs: Set[Tuple[int, int]] = set()
    returns: Set[int] = set()
    prev: Dict[int, int] = {}

    def tracer(frame, event, arg):
        if frame.f_code.co_filename != target:
            return None
        if event == "call":
            # the call event fires on the ``def`` line, which co_lines
            # also reports as executable
            executed.add(frame.f_lineno)
            return tracer
        key = id(frame)
        if event == "line":
            line = frame.f_lineno
            executed.add(line)
            last = prev.get(key)
            if last is not None:
                arcs.add((last, line))
            prev[key] = line
        elif event == "return":
            returns.add(frame.f_lineno)
            prev.pop(key, None)
        return tracer

    old = sys.gettrace()
    sys.settrace(tracer)
    try:
        fn()
    finally:
        sys.settrace(old)
    return executed, arcs, returns


def _outcomes(site, executed, arcs, returns) -> Tuple[int, int]:
    """(covered, total) outcomes for one branch site."""
    total = 2
    covered = 0
    if site.body_entry in executed:
        covered += 1
    if site.else_entry is not None:
        if site.else_entry in executed:
            covered += 1
    else:
        # Implicit else / loop exhaustion: an arc must leave the
        # condition lines past the construct (or return right there).
        left = any(
            src in site.cond_lines
            and (dst < site.lineno or dst > site.end_lineno)
            for src, dst in arcs
        )
        if left or (site.cond_lines & returns):
            covered += 1
    return covered, total


# ---------------------------------------------------------------------------
# The exercise: every behaviour of the module, both closure graphs
# ---------------------------------------------------------------------------

GRAPHS = (NumpyPreferenceGraph, ReferencePreferenceGraph)


def _exercise_graph(graph_class):
    graph = graph_class(8)
    # direct answers, all three kinds, both orientations
    assert graph.add_answer(0, 1, L)
    assert graph.add_answer(2, 1, R)  # reversed edge 1 -> 2
    assert graph.add_answer(3, 4, E)
    # transitivity and flipped queries
    assert graph.relation(0, 2) is L
    assert graph.relation(2, 0) is R
    assert graph.relation(3, 4) is E
    assert graph.relation(5, 6) is None
    assert graph.relation(6, 6) is E
    assert graph.knows(0, 1) and not graph.knows(5, 6)
    # consistent repeat, contradiction, tie-vs-strict contradiction
    assert graph.add_answer(0, 2, L)
    assert not graph.add_answer(2, 0, L)
    assert not graph.add_answer(0, 1, E)
    assert graph.rejected_answers == 2
    # tie merge with outgoing, incoming and fresh classes
    assert graph.add_answer(5, 6, L)  # 5 has out-edge
    assert graph.add_answer(4, 5, E)  # drop=5 carries out-edge, keep=3-class
    assert graph.relation(3, 6) is L  # inherited through the merge
    assert graph.add_answer(7, 0, L)  # 0 gains an incoming edge
    assert graph.add_answer(0, 3, E)  # merged classes with in+out edges
    assert graph.relation(7, 6) is L  # 7 -> {0,3,4,5} -> 6
    assert graph.relation(6, 7) is R
    assert sorted(graph.edges())
    assert graph.class_of(4) == graph.class_of(5)
    return graph


def _exercise_reference_internals():
    graph = ReferencePreferenceGraph(6)
    graph._invalidate(0)  # empty-cache early return
    graph.add_answer(0, 1, L)
    graph.add_answer(1, 2, L)
    graph.add_answer(4, 5, L)
    assert graph.descendants(0) == {1, 2}
    assert graph.descendants(4) == {5}
    # exact invalidation: a new edge below 2 must not clear 4's cache
    assert 4 in graph._descendants
    graph.add_answer(2, 3, L)
    assert 4 in graph._descendants and 0 not in graph._descendants
    assert graph.descendants(0) == {1, 2, 3}
    # diamond: DFS re-visits a node already in the cache
    graph = ReferencePreferenceGraph(4)
    for u, v in ((0, 1), (0, 2), (1, 3), (2, 3)):
        graph.add_answer(u, v, L)
    assert graph.descendants(0) == {1, 2, 3}
    # merge invalidation plus whitebox guards (never hit via public API)
    graph.add_answer(1, 2, E)
    assert graph.relation(0, 3) is L
    assert graph._union(1, 2) == graph.class_of(1)
    assert graph._reaches(1, 1) is False


def _exercise_numpy_internals():
    # > 64 nodes so the packed rows span two uint64 words
    graph = NumpyPreferenceGraph(70)
    graph.add_answer(0, 1, L)
    graph.add_answer(1, 65, L)  # closure bit in the second word
    assert graph.relation(0, 65) is L
    assert graph.relation(65, 0) is R
    assert graph.relation(0, 2) is None
    # merge with both ancestors and descendants to broadcast
    graph.add_answer(3, 4, L)
    graph.add_answer(1, 3, E)  # merge {1} and {3}: above={0}, below={65,4}
    assert graph.relation(0, 4) is L
    assert graph.relation(3, 3) is E
    # merge of two isolated nodes: empty broadcast on both sides
    graph.add_answer(5, 6, E)
    assert graph.relation(5, 6) is E
    # the documented closure hook, including the refresh sentinel
    assert graph._reaches(0, 65) and not graph._reaches(65, 0)
    assert graph._reaches(0, -1) is False
    # degenerate empty graph: no identity bits
    assert NumpyPreferenceGraph(0).find_roots([]).size == 0


def _exercise_bulk_kernels(graph_class):
    """find_roots: the base-class loop (reference) and the numpy
    gather, with > 64 nodes so packed rows span two words."""
    graph = graph_class(70)
    graph.add_answer(0, 1, L)
    graph.add_answer(1, 65, L)
    graph.add_answer(3, 4, L)
    graph.add_answer(1, 3, E)
    graph.add_answer(5, 6, E)
    assert list(graph.find_roots([0, 1, 3, 4])) == [0, 1, 1, 4]


def _exercise_transactions(graph_class):
    system = PreferenceSystem(8, 2, graph=graph_class)
    assert system.apply_verdicts([]) == 0
    # list input, one contradicting verdict rejected mid-batch
    assert system.apply_verdicts(
        [(0, 1, 0, L), (1, 2, 0, L), (2, 0, 0, L)]
    ) == 2
    # generator input
    assert system.apply_verdicts(iter([(0, 1, 1, E)])) == 1
    # under an active observation the batch is recorded
    with observe() as observation:
        assert system.apply_verdicts([(3, 4, 0, L)]) == 1
        assert system.resolve_pairs([(3, 4)])[(3, 4)] == (L, None)
    histogram = observation.metrics.histogram(CLOSURE_BATCH_SIZE)
    assert histogram.count == 1 and histogram.sum == 1.0


def _exercise_base_hooks():
    base = _BasePreferenceGraph(3)
    with pytest.raises(NotImplementedError):
        base._reaches(0, 1)
    with pytest.raises(NotImplementedError):
        base._add_edge(0, 1)
    with pytest.raises(NotImplementedError):
        base._merge_closure(0, 1)


def _exercise_system(graph_class):
    with pytest.raises(ValueError):
        PreferenceSystem(4, 0)
    assert isinstance(PreferenceSystem(4, 1).graphs[0], NumpyPreferenceGraph)
    system = PreferenceSystem(8, 2, graph=graph_class)
    assert system.num_attributes == 2
    system.add_answer(0, 1, 0, L)
    assert system.pair_relations(0, 1) == (L, None)
    assert system.pair_relations(1, 0) == (R, None)
    system.add_answer(0, 1, 1, E)
    assert system.relation(0, 1, 1) is E
    assert system.fully_known(0, 1) and not system.fully_known(0, 2)
    assert system.unknown_attributes(0, 2) == [0, 1]
    assert system.weakly_prefers_all(0, 1)
    assert not system.weakly_prefers_all(1, 0)
    assert not system.weakly_prefers_all(0, 2)
    assert system.ac_dominates(0, 1)
    assert not system.ac_dominates(1, 0)  # RIGHT on attribute 0
    assert not system.ac_dominates(0, 2)  # unknown
    system.add_answer(3, 4, 0, E)
    system.add_answer(3, 4, 1, E)
    assert system.ac_equal(3, 4) and not system.ac_equal(0, 1)
    assert not system.ac_dominates(3, 4)  # weak everywhere, strict nowhere
    assert system.cannot_dominate(1, 0)
    assert not system.cannot_dominate(0, 1)
    resolved = system.resolve_pairs([(0, 1), (0, 1), (3, 4)])
    assert resolved[(0, 1)] == (L, E)
    # rejected answers aggregate across attributes
    system.add_answer(0, 1, 0, R)
    assert system.total_rejected() == 1
    assert system.closure_updates() > 0
    # sky_ac: trivial, dominated, tied and incomparable members
    assert sky_ac_groups(system, [[5]]) == [[5]]
    assert sky_ac_groups(system, [[], [5]]) == [[], [5]]
    system.add_answer(5, 6, 0, L)
    system.add_answer(5, 6, 1, R)  # 5, 6 certainly incomparable
    assert sky_ac_groups(system, [[0, 1, 3, 4, 5, 6]]) == [[0, 3, 5, 6]]
    # open_pairs: the settled pair (5, 6) drops out, a pair known on one
    # attribute only or tied stays; one member has no pair
    first, second = system.open_pairs([5, 6, 0, 2, 1])
    assert list(zip(first.tolist(), second.tolist())) == [
        (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4), (2, 3), (2, 4),
        (3, 4),
    ]
    assert [len(side) for side in system.open_pairs([5])] == [0, 0]
    # single-attribute systems: pair loop (reference) vs vectorized,
    # one group per call and all groups in one call
    single = PreferenceSystem(8, 1, graph=graph_class)
    single.add_answer(0, 1, 0, L)
    single.add_answer(1, 2, 0, L)
    single.add_answer(3, 4, 0, E)
    single.add_answer(6, 5, 0, E)
    groups = [[0, 1, 2, 3, 4, 7], [2, 4, 3], [5, 6], [6, 7], [4], []]
    expected = [[0, 3, 7], [2, 3], [5], [6, 7], [4], []]
    assert [
        sky_ac_groups(single, [group])[0] for group in groups
    ] == expected
    assert sky_ac_groups(single, groups) == expected
    # one attribute: every pair is open
    first, second = single.open_pairs([0, 1, 2])
    assert list(zip(first.tolist(), second.tolist())) == [
        (0, 1), (0, 2), (1, 2)
    ]


def _run_exercise():
    for graph_class in GRAPHS:
        _exercise_graph(graph_class)
        _exercise_system(graph_class)
        _exercise_transactions(graph_class)
        _exercise_bulk_kernels(graph_class)
    _exercise_reference_internals()
    _exercise_numpy_internals()
    _exercise_base_hooks()


# ---------------------------------------------------------------------------
# The floor
# ---------------------------------------------------------------------------


def test_preference_core_coverage_floor():
    executed, arcs, returns = _trace(_run_exercise)

    executable = _executable_lines()
    missed_lines = sorted(executable - executed)
    line_cov = 1 - len(missed_lines) / len(executable)

    covered = total = 0
    missed_branches = []
    for site in _branch_sites():
        got, want = _outcomes(site, executed, arcs, returns)
        covered += got
        total += want
        if got < want:
            missed_branches.append((site.kind, site.lineno))
    branch_cov = covered / total

    assert line_cov >= FLOOR, (
        f"line coverage {line_cov:.1%} < {FLOOR:.0%} on "
        f"repro/core/preference.py; missed lines: {missed_lines}"
    )
    assert branch_cov >= FLOOR, (
        f"branch coverage {branch_cov:.1%} < {FLOOR:.0%} on "
        f"repro/core/preference.py; partial sites: {missed_branches}"
    )


def test_exercise_runs_untraced():
    """The exercise itself must stay green without the tracer (so a
    coverage regression is distinguishable from a behaviour bug)."""
    _run_exercise()
