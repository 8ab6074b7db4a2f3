"""Differential suite: the evaluate phase against its earlier form.

The per-tuple walk (:class:`repro.core.tasks.TupleTask`) steps through
its probe ladder with a cursor and a set of live members, and the
schedulers read every ``DS(t)`` off the dominance matrix. The evaluate
phase activates every tuple a policy has ready in one
:meth:`~repro.core.crowdsky.Evaluation.start`: P1 reads the columns
over the skyline rows found so far, and P2 is one ``sky_ac`` call over
their members laid end to end. This module keeps the earlier
formulation as the specification:

* :class:`SpecTupleTask` — the ladder over every pair of ``DS(t)``,
  sorted in Python, where the program leaves out the pairs the closure
  has settled and orders the rest with one ``lexsort``; the ladder is a
  list rebuilt on every pruned member or incomparable pair, with the
  whole remaining probe ladder and ``Q(t)`` resolved ahead after every
  answer; in m-ary mode it re-reduces ``DS(t)`` at every step;
* :func:`spec_start` — activation one tuple at a time: ``DS(t)`` from
  ``ds_in_eval_order``, P1 dropping the complete non-skyline tuples,
  and one ``sky_ac`` call per tuple;
* :class:`SpecContext` — ``DS(t)`` as Python sets, one column scan per
  tuple without the preprocessed tuples, evaluated in
  ``(|DS(s)|, s)`` order by a key sort;
* the complete non-skyline tuples as a set the spec tasks fill
  themselves, read by the spec P1 and by a scalar first-fit
  :func:`spec_disjoint_batches`, which drops them from each ``DS(t)``
  where the program's batches use whole matrix columns;
* :func:`spec_sl_policy` — ParallelSL's readiness as a rescan of every
  pending tuple on every pass, each activated alone as the scan reaches
  it, where the program counts each tuple's open direct dominators and
  runs each pass in waves, activating every tuple a wave readied in one
  start, and :meth:`Evaluation.step` posts the round in evaluation
  order.

Both sides must ask the same questions in the same rounds and return
the same skyline, for every scheduler, pruning level, ``|AC|`` of 1 or
2, ``multiway`` of 2 or 3 and either probe order, on drawn relations
(duplicate- and tie-heavy ones included) under perfect, seeded noisy and
fault-injecting crowds — the last so that ``abandon_request`` runs in
the middle of a ladder — with a drawn set of visible tuples, whose
seeded preferences let a ParallelSL task decide on its first advance.
Every run is made on both closure graphs
(:func:`tests.closure_graphs.closure_graph`), and the program's runs on
the two graphs must agree too.

The spec is patched in where the program looks it up:
:meth:`Evaluation.start`, the one place tasks are built,
``build_context`` in both scheduler modules, and ``_disjoint_batches``
and ``_sl_policy`` in :mod:`repro.core.parallel`. Every spec run counts
the spec activations, tasks, contexts and policies it builds or runs
and fails when a run that evaluates a tuple with a non-empty ``DS(t)``
built none of them, or a ``parallel_sl`` run did not run the spec
policy, so a construction moved behind a name this module does not
patch cannot pass unseen.
"""

import importlib
import signal
from collections import Counter
from contextlib import contextmanager
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.crowdsky import (
    CrowdSkyConfig,
    PruningLevel,
    crowdsky,
    crowdsky_budgeted,
)
from repro.core.engine import ExecutionContext, build_context
from repro.core.parallel import parallel_dset, parallel_sl
from repro.core.tasks import (
    MultiwayRequest,
    PairRequest,
    TaskOutcome,
    TaskState,
    TupleTask,
)
from repro.crowd.faults import FaultPlan
from repro.crowd.platform import SimulatedCrowd
from repro.crowd.retry import RetryPolicy
from repro.crowd.workers import WorkerPool
from repro.data.synthetic import Distribution, generate_synthetic
from repro.exceptions import CrowdSkyError
from repro.obs import phase
from repro.questions import Preference
from repro.skyline.layers import covering_graph_from_matrix
from tests.closure_graphs import GRAPHS, closure_graph
from tests.conftest import make_relation
from tests.sky_ac_groups import sky_ac_groups
from tests.strategies import crowd_relations

pytestmark = pytest.mark.pref

# ``repro.core`` re-exports the function ``crowdsky``, which shadows the
# submodule of that name as an attribute, so modules are looked up by name.
crowdsky_module = importlib.import_module("repro.core.crowdsky")
parallel_module = importlib.import_module("repro.core.parallel")

#: Every scheduler but the budgeted one takes a ``visible`` keyword,
#: its ``visible_crowd``.
SCHEDULERS = {
    "crowdsky": lambda relation, crowd, config, visible=None: crowdsky(
        relation, crowd, config=config, visible_crowd=visible
    ),
    "crowdsky_budgeted": lambda relation, crowd, config: crowdsky_budgeted(
        relation, 2 * len(relation), crowd, config=config
    ),
    "parallel_dset": lambda relation, crowd, config, visible=None: (
        parallel_dset(relation, crowd, config=config, visible_crowd=visible)
    ),
    "parallel_sl": lambda relation, crowd, config, visible=None: parallel_sl(
        relation, crowd, config=config, visible_crowd=visible
    ),
}

#: Seconds one scheduler run may take before the example fails: a walk
#: that stops advancing would otherwise hang the suite.
RUN_DEADLINE_S = 20

#: What the current spec run built: ``build_context`` calls, contexts
#: holding a tuple with a non-empty ``DS(t)``, spec activations, spec
#: tasks and spec ParallelSL policy runs.
SPEC_CALLS: Counter = Counter()


class SpecTupleTask:
    """The earlier per-tuple walk, kept as the specification.

    Same constructor as :class:`TupleTask`: :func:`spec_start` hands it
    ``DS(t)`` with P1 and P2 applied. Its tasks record each complete
    non-skyline tuple in :attr:`non_skyline` as they finish.
    """

    #: Complete non-skyline tuples of the current spec run.
    non_skyline: set = set()

    def __init__(
        self,
        t,
        dominating_set,
        prefs,
        frequency,
        use_p2=True,
        use_p3=True,
        probe_ascending=False,
        multiway=2,
    ):
        if multiway < 2:
            raise ValueError("multiway group size must be at least 2")
        SPEC_CALLS["tasks"] += 1
        self.t = t
        self._ds = list(dominating_set)
        self._prefs = prefs
        self._frequency = frequency
        self._use_p2 = use_p2
        self._use_p3 = use_p3
        self._probe_ascending = probe_ascending
        self._multiway = multiway if prefs.num_attributes == 1 else 2
        self._asked_groups = set()
        self._probe_pairs = []
        self._ask_index = 0
        self._requested = set()
        self._abandoned = set()
        self.state = TaskState.PENDING
        self.outcome = None

    def activate(self):
        if self.state is not TaskState.PENDING:
            raise RuntimeError(f"task {self.t} activated twice")
        if self._use_p3 and len(self._ds) > 1:
            self._probe_pairs = self._sorted_probe_pairs(self._ds)
        self.state = TaskState.PROBING

    def _sorted_probe_pairs(self, members):
        members = list(members)
        freq = self._frequency.freq_matrix(members)
        pairs = [
            (members[i], members[j], int(freq[i, j]))
            for i in range(len(members))
            for j in range(i + 1, len(members))
        ]
        sign = 1 if self._probe_ascending else -1
        pairs.sort(key=lambda p: (sign * p[2], p[0], p[1]))
        return [(u, v) for u, v, _ in pairs]

    def _remove_member(self, member):
        self._ds = [s for s in self._ds if s != member]
        self._probe_pairs = [
            pair for pair in self._probe_pairs if member not in pair
        ]

    def _resolve_probe_pair(self, u, v):
        rels = self._prefs.pair_relations(u, v)
        if None not in rels:
            left = Preference.LEFT in rels
            right = Preference.RIGHT in rels
            if left and not right:
                self._remove_member(v)
                return True
            if right and not left:
                self._remove_member(u)
                return True
            if not left and not right:
                self._remove_member(max(u, v))
                return True
            self._probe_pairs = [
                pair for pair in self._probe_pairs if pair != (u, v)
            ]
            return True
        return False

    def abandon_request(self, request):
        if isinstance(request, MultiwayRequest):
            self._probe_pairs = []
            if self.state is TaskState.PROBING:
                self.state = TaskState.ASKING
            return
        if self.state is TaskState.PROBING:
            pair = (request.left, request.right)
            flipped = (request.right, request.left)
            self._probe_pairs = [
                p for p in self._probe_pairs if p != pair and p != flipped
            ]
        elif self.state is TaskState.ASKING:
            self._abandoned.add(request.left)

    def advance(self):
        request = self._advance()
        if self.outcome is TaskOutcome.NON_SKYLINE:
            self.non_skyline.add(self.t)
        return request

    def _advance(self):
        if self.state is TaskState.PENDING:
            raise RuntimeError(f"task {self.t} not activated")

        while (
            self.state is TaskState.PROBING
            and self._use_p3
            and self._multiway > 2
        ):
            self._ds = sky_ac_groups(self._prefs, [self._ds])[0]
            if len(self._ds) <= 1:
                self.state = TaskState.ASKING
                break
            group = tuple(self._ds[: self._multiway])
            if group in self._asked_groups:
                raise RuntimeError(
                    f"multiway probing made no progress on {group}"
                )
            self._asked_groups.add(group)
            return MultiwayRequest(group)

        if self.state is TaskState.PROBING and len(self._probe_pairs) > 1:
            live = set(self._ds)
            self._prefs.resolve_pairs(
                (u, v)
                for u, v in self._probe_pairs
                if u in live and v in live
            )

        while self.state is TaskState.PROBING:
            if not self._probe_pairs:
                self.state = TaskState.ASKING
                break
            u, v = self._probe_pairs[0]
            if u not in self._ds or v not in self._ds:
                self._probe_pairs.pop(0)
                continue
            if self._resolve_probe_pair(u, v):
                continue
            return PairRequest(u, v)

        if (
            self.state is TaskState.ASKING
            and self._use_p2
            and len(self._ds) - self._ask_index > 1
        ):
            self._prefs.resolve_pairs(
                (s, self.t)
                for s in self._ds[self._ask_index:]
                if s not in self._abandoned
            )

        while self.state is TaskState.ASKING:
            if self._ask_index >= len(self._ds):
                if self.outcome is None:
                    self.outcome = TaskOutcome.SKYLINE
                self.state = TaskState.DONE
                break
            s = self._ds[self._ask_index]
            if s in self._abandoned:
                self._ask_index += 1
                continue
            if not self._use_p2 and s not in self._requested:
                self._requested.add(s)
                return PairRequest(s, self.t, force=True,
                                   dominance_check=True)
            rels = self._prefs.pair_relations(s, self.t)
            if all(
                rel is not None and rel is not Preference.RIGHT
                for rel in rels
            ):
                self.outcome = TaskOutcome.NON_SKYLINE
                self.state = TaskState.DONE
                break
            if None not in rels or (
                self._use_p2 and Preference.RIGHT in rels
            ):
                self._ask_index += 1
                continue
            return PairRequest(s, self.t, dominance_check=True)

        if self.state is TaskState.DONE and self.outcome is None:
            self.outcome = TaskOutcome.SKYLINE
        return None


def spec_start(evaluation, ts):
    """:meth:`Evaluation.start` one tuple at a time: ``DS(t)`` from
    ``ds_in_eval_order``, P1 dropping the complete non-skyline tuples,
    and one ``sky_ac`` call per tuple."""
    SPEC_CALLS["start"] += 1
    context = evaluation.context
    tasks = []
    for t in ts:
        ds = [int(s) for s in context.ds_in_eval_order(t)]
        if evaluation._use_p1:
            ds = [s for s in ds if s not in SpecTupleTask.non_skyline]
        if evaluation._use_p2:
            ds = sky_ac_groups(context.prefs, [ds])[0]
        task = SpecTupleTask(
            t, ds, context.prefs, context.frequency,
            **evaluation._task_options,
        )
        task.activate()
        tasks.append(task)
    return tasks


class SpecContext(ExecutionContext):
    """An execution context whose ``DS(t)`` are Python sets, handed out
    in evaluation order as the int64 arrays the program gathers."""

    def eval_order(self):
        ds = self.dominating
        order = sorted(range(len(ds)), key=lambda t: (len(ds[t]), t))
        return [t for t in order if t not in self.removed]

    def ds_in_eval_order(self, t):
        ds = self.dominating
        return np.array(
            sorted(ds[t], key=lambda s: (len(ds[s]), s)), dtype=np.int64
        )


def spec_context(context):
    """``context`` with every ``DS(t)`` re-derived as a set, one column
    scan per tuple, and the P1 registry reset to ``removed``."""
    removed = set(context.removed)
    matrix = context.matrix
    dominating = [
        {int(s) for s in np.flatnonzero(matrix[:, t]) if s not in removed}
        for t in range(matrix.shape[0])
    ]
    spec = SpecContext(
        **{f.name: getattr(context, f.name) for f in fields(context)}
    )
    spec.dominating = dominating
    spec.ds_sizes = [len(ds) for ds in dominating]
    spec.keep = np.array(
        [t not in removed for t in range(len(dominating))], dtype=bool
    )
    spec.order = np.array(spec.eval_order(), dtype=np.int64)
    SpecTupleTask.non_skyline = set(removed)
    return spec


def spec_disjoint_batches(context, members):
    """First-fit batches of pairwise disjoint ``DS(t) − non-skyline``,
    one set intersection at a time."""
    batches, unions = [], []
    for t in members:
        ds = context.dominating[t] - SpecTupleTask.non_skyline
        for batch, union in zip(batches, unions):
            if not union & ds:
                batch.append(t)
                union |= ds
                break
        else:
            batches.append([t])
            unions.append(set(ds))
    return batches


def spec_sl_policy(evaluation):
    """ParallelSL's policy with readiness as a rescan: every pass walks
    every pending tuple in evaluation order and draws each undecided
    one that is running or whose direct dominators are all complete."""
    SPEC_CALLS["sl_policy"] += 1
    context = evaluation.context
    complete = evaluation.complete
    cover = covering_graph_from_matrix(context.matrix)
    pending = []
    for t in context.eval_order():
        if context.ds_sizes[t]:
            pending.append(t)
        else:
            evaluation.decide(t, TaskOutcome.SKYLINE)
    tasks = {}

    def ready():
        drawn = set()
        changed = True
        while changed:
            changed = False
            for t in pending:
                if t in complete or t in drawn:
                    continue
                task = tasks.get(t)
                if task is None:
                    if not cover[t] <= complete:
                        continue
                    [task] = evaluation.start([t])
                    tasks[t] = task
                drawn.add(t)
                yield task
                if t in complete:
                    changed = True

    with phase("evaluate"):
        wave = 0
        while len(complete) < context.n:
            wave += 1
            context.crowd.set_cost_context(phase="evaluate", layer=wave)
            if not evaluation.step(ready()) and len(complete) < context.n:
                raise CrowdSkyError("spec ParallelSL deadlock")


def spec_build_context(*args, **kwargs):
    SPEC_CALLS["build_context"] += 1
    spec = spec_context(build_context(*args, **kwargs))
    if any(spec.ds_sizes[t] for t in spec.eval_order()):
        SPEC_CALLS["contexts_with_ds"] += 1
    return spec


@contextmanager
def spec_evaluate_phase():
    """Run the schedulers on the spec walk, sets and batches; yields
    :data:`SPEC_CALLS`, reset for this run."""
    SPEC_CALLS.clear()
    with mock.patch.object(
                crowdsky_module.Evaluation, "start", spec_start
            ), \
            mock.patch.object(
                crowdsky_module, "build_context", spec_build_context
            ), \
            mock.patch.object(
                parallel_module, "build_context", spec_build_context
            ), \
            mock.patch.object(
                parallel_module, "_disjoint_batches", spec_disjoint_batches
            ), \
            mock.patch.object(parallel_module, "_sl_policy", spec_sl_policy):
        yield SPEC_CALLS


@contextmanager
def deadline(seconds):
    """Fail instead of hanging when the block runs past ``seconds``."""

    def expire(signum, frame):
        raise TimeoutError(f"scheduler run exceeded {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def make_crowd(relation, crowd_kind, seed):
    if crowd_kind == "perfect":
        return SimulatedCrowd(relation, seed=seed)
    pool = WorkerPool.uniform(size=9, accuracy=0.7)
    if crowd_kind == "noisy":
        return SimulatedCrowd(relation, pool=pool, seed=seed)
    return SimulatedCrowd(
        relation,
        pool=pool,
        seed=seed,
        strict=False,
        faults=FaultPlan(
            abandonment_rate=0.2,
            hit_timeout_rate=0.15,
            transient_error_rate=0.15,
            spam_burst_rate=0.05,
            seed=seed + 1,
        ),
        retry=RetryPolicy(max_attempts=2, deadline_rounds=4),
    )


def outputs(result):
    return (
        list(result.question_log),
        list(result.stats.round_sizes),
        sorted(result.skyline),
        result.rejected_answers,
        list(result.unresolved_pairs),
    )


def run_both(relation, scheduler, config, crowd_kind, seed, visible=None):
    """(change, spec) outputs of one scheduler run on fresh crowds, each
    by closure graph name; the change's runs on the two graphs agree.
    ``visible``, when not None, is the run's ``visible_crowd``."""
    options = {} if visible is None else {"visible": visible}

    def run():
        crowd = make_crowd(relation, crowd_kind, seed)
        return outputs(
            SCHEDULERS[scheduler](relation, crowd, config, **options)
        )

    change, spec = {}, {}
    for name in GRAPHS:
        with closure_graph(name):
            with deadline(RUN_DEADLINE_S):
                change[name] = run()
            with spec_evaluate_phase() as calls, deadline(RUN_DEADLINE_S):
                spec[name] = run()
        # The spec must have been in use: a run that evaluates a tuple
        # with a non-empty DS(t) builds its context and its tasks from
        # the spec.
        assert calls["build_context"] == 1, dict(calls)
        if calls["contexts_with_ds"]:
            assert calls["start"] > 0 and calls["tasks"] > 0, dict(calls)
        assert calls["sl_policy"] == (scheduler == "parallel_sl"), dict(calls)
    assert change["numpy"] == change["reference"]
    return change, spec


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    st.integers(1, 2).flatmap(
        lambda crowd: crowd_relations(max_rows=14, num_crowd=crowd)
    ),
    st.sampled_from(sorted(SCHEDULERS)),
    st.sampled_from(list(PruningLevel)),
    st.sampled_from([2, 3]),
    st.booleans(),
    st.sampled_from(["perfect", "noisy", "faulty"]),
    st.integers(0, 2 ** 16),
    st.sets(st.integers(0, 13)),
)
def test_evaluate_phase_matches_spec(
    relation, scheduler, pruning, multiway, probe_ascending, crowd_kind, seed,
    visible,
):
    """``visible`` draws the visible tuples among the relation's (at
    most 14) rows, possibly none; the budgeted run takes none."""
    config = CrowdSkyConfig(
        pruning=pruning, multiway=multiway, probe_ascending=probe_ascending
    )
    if scheduler == "crowdsky_budgeted":
        visible = None
    else:
        visible = sorted(t for t in visible if t < len(relation))
    change, spec = run_both(
        relation, scheduler, config, crowd_kind, seed, visible
    )
    assert change == spec


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
@pytest.mark.parametrize("num_crowd", [1, 2])
def test_faulty_runs_abandon_mid_ladder_and_match_spec(scheduler, num_crowd):
    """On a larger relation the fault-injecting crowd abandons probe
    pairs while their ladders still have pairs left, and both sides
    still agree."""
    relation = generate_synthetic(
        80, 2, num_crowd, Distribution.INDEPENDENT, seed=11
    )
    mid_ladder = []
    abandon = TupleTask.abandon_request

    def counting(task, request):
        if task.state is TaskState.PROBING:
            mid_ladder.append(task._cursor + 1 < len(task._probe_pairs))
        abandon(task, request)

    with mock.patch.object(TupleTask, "abandon_request", counting):
        change, spec = run_both(
            relation, scheduler, CrowdSkyConfig(), "faulty", seed=5
        )
    assert change == spec
    assert any(mid_ladder)


@pytest.mark.parametrize("crowd_kind", ["perfect", "noisy"])
@pytest.mark.parametrize("num_crowd", [1, 2])
@pytest.mark.parametrize(
    "distribution", [Distribution.INDEPENDENT, Distribution.ANTI_CORRELATED]
)
def test_sl_readiness_matches_rescan_at_n40(
    distribution, num_crowd, crowd_kind
):
    """ParallelSL's event-driven readiness asks each round's questions
    in the rescan's order. The property's relations are too small to
    tell a tuple readied in the current pass from one deferred to the
    next, so these runs are larger. With every second tuple visible, a
    task activated mid-pass can decide on its first advance, so a pass
    can run a second wave of activations (one to three passes do, in
    all but the two independent runs with two crowd attributes)."""
    relation = generate_synthetic(40, 2, num_crowd, distribution, seed=23)
    for visible in (None, range(0, 40, 2)):
        change, spec = run_both(
            relation, "parallel_sl", CrowdSkyConfig(), crowd_kind, seed=29,
            visible=visible,
        )
        assert change == spec


def duplicate_heavy_relation(n, num_crowd, shape, seed):
    """``n`` rows drawn from ``n // 2`` distinct integer ``AK`` points,
    crowd values in 0..3, so duplicates and crowd ties are everywhere.

    ``independent`` points lie on a 3-D grid of 8 levels, where the
    widest ParallelSL batch of a run holds 8 to 17 tuples;
    ``anticorrelated`` points lie near a 2-D anti-diagonal, whose
    disjoint dominating sets make ParallelDSet batches of up to 5
    tuples.
    """
    rng = np.random.default_rng(seed)
    count = n // 2
    if shape == "independent":
        points = rng.integers(0, 8, size=(count, 3))
    else:
        base = rng.integers(0, 20, size=count)
        points = np.stack(
            [
                base + rng.integers(0, 3, size=count),
                20 - base + rng.integers(0, 3, size=count),
            ],
            axis=1,
        )
    known = points[rng.integers(0, count, size=n)]
    latent = rng.integers(0, 4, size=(n, num_crowd))
    return make_relation(
        [tuple(int(v) for v in row) for row in known],
        [tuple(int(v) for v in row) for row in latent],
    )


@pytest.mark.parametrize("crowd_kind", ["perfect", "noisy", "faulty"])
@pytest.mark.parametrize("num_crowd, n", [(1, 120), (2, 80)])
@pytest.mark.parametrize("shape", ["independent", "anticorrelated"])
@pytest.mark.parametrize("scheduler", ["parallel_dset", "parallel_sl"])
def test_batched_activation_matches_spec(
    scheduler, shape, num_crowd, n, crowd_kind
):
    """The parallel schedulers activate whole batches at once: a
    ParallelDSet batch, and every ready tuple a ParallelSL pass has
    queued. The property's relations rarely queue more than a few, so
    these runs are larger and duplicate-heavy."""
    relation = duplicate_heavy_relation(n, num_crowd, shape, seed=n)
    change, spec = run_both(
        relation, scheduler, CrowdSkyConfig(), crowd_kind, seed=31
    )
    assert change == spec


@contextmanager
def complete_at_activation():
    """Check, at every :meth:`Evaluation.start`, that each kept member
    of each started tuple's ``DS(t)`` is complete; yields the count of
    checked activations."""
    start = crowdsky_module.Evaluation.start
    checked = Counter()

    def checking(evaluation, ts):
        context = evaluation.context
        for t in ts:
            members = np.flatnonzero(context.matrix[:, t] & context.keep)
            late = [int(s) for s in members if s not in evaluation.complete]
            assert not late, f"DS({t}) members {late} not complete"
        checked["activations"] += len(ts)
        return start(evaluation, ts)

    with mock.patch.object(crowdsky_module.Evaluation, "start", checking):
        yield checked


P1_LEVELS = [level for level in PruningLevel if level.use_p1]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    st.integers(1, 2).flatmap(
        lambda crowd: crowd_relations(max_rows=24, num_crowd=crowd)
    ),
    st.sampled_from(sorted(SCHEDULERS)),
    st.sampled_from(P1_LEVELS),
    st.sampled_from([2, 3]),
    st.sampled_from(["perfect", "noisy", "faulty"]),
    st.integers(0, 2 ** 16),
)
def test_dominating_set_is_complete_at_activation(
    relation, scheduler, pruning, multiway, crowd_kind, seed
):
    """With P1 every kept ``DS(t)`` member is complete when ``t`` is
    activated, in every scheduler and on both closure graphs, which is
    what lets :meth:`Evaluation.start` read P1 off the skyline rows."""
    config = CrowdSkyConfig(pruning=pruning, multiway=multiway)
    for name in GRAPHS:
        with closure_graph(name), complete_at_activation(), \
                deadline(RUN_DEADLINE_S):
            SCHEDULERS[scheduler](
                relation, make_crowd(relation, crowd_kind, seed), config
            )


@pytest.mark.parametrize("scheduler", sorted(SCHEDULERS))
def test_dominating_set_is_complete_at_activation_n120(scheduler):
    relation = duplicate_heavy_relation(120, 1, "independent", seed=5)
    for name in GRAPHS:
        for pruning in P1_LEVELS:
            config = CrowdSkyConfig(pruning=pruning)
            with closure_graph(name), complete_at_activation() as checked:
                SCHEDULERS[scheduler](
                    relation, make_crowd(relation, "noisy", 3), config
                )
            assert checked["activations"] > 0
