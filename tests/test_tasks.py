"""Tests for the per-tuple evaluation state machine.

P1 and P2 at activation live in the evaluate phase
(:meth:`repro.core.crowdsky.Evaluation.start`), so their cases run
through it on the toy relation.
"""

from unittest import mock

import pytest

from repro.core.crowdsky import (
    CrowdSkyConfig,
    Evaluation,
    PruningLevel,
    crowdsky,
)
from repro.core.engine import build_context
from repro.core.preference import PreferenceSystem
from repro.core.tasks import (
    MultiwayRequest,
    PairRequest,
    TaskOutcome,
    TaskState,
    TupleTask,
)
from repro.data.synthetic import Distribution, generate_synthetic
from repro.questions import Preference
from repro.skyline.dominance import dominance_matrix
from repro.skyline.dominating import FrequencyOracle
from tests.sky_ac_groups import split

L, R, E = Preference.LEFT, Preference.RIGHT, Preference.EQUAL


@pytest.fixture
def toy_env(toy):
    matrix = dominance_matrix(toy.known_matrix())
    prefs = PreferenceSystem(len(toy), 1)
    frequency = FrequencyOracle(matrix)
    return toy, prefs, frequency


def toy_evaluation(toy, skyline="", non_skyline="", **config):
    """An evaluate phase over the toy relation with the ``skyline`` and
    ``non_skyline`` labels decided as such."""
    evaluation = Evaluation(build_context(toy), CrowdSkyConfig(**config))
    for labels, outcome in (
        (skyline, TaskOutcome.SKYLINE),
        (non_skyline, TaskOutcome.NON_SKYLINE),
    ):
        for label in labels:
            evaluation.decide(toy.index_of(label), outcome)
    return evaluation


def start(toy, evaluation, label):
    """The task ``evaluation`` builds and activates for ``label``."""
    [task] = evaluation.start([toy.index_of(label)])
    return task


def make_task(toy_env, label, ds_labels, **flags):
    toy, prefs, frequency = toy_env
    t = toy.index_of(label)
    ds = [toy.index_of(x) for x in ds_labels]
    return TupleTask(t, ds, prefs, frequency, **flags), toy, prefs


class TestLifecycle:
    def test_must_activate_before_advancing(self, toy_env):
        task, _, _ = make_task(toy_env, "a", ["b"])
        with pytest.raises(RuntimeError):
            task.advance()

    def test_double_activation_rejected(self, toy_env):
        task, _, _ = make_task(toy_env, "a", ["b"])
        task.activate()
        with pytest.raises(RuntimeError):
            task.activate()

    def test_empty_ds_completes_as_skyline(self, toy_env):
        task, _, _ = make_task(toy_env, "a", [])
        task.activate()
        assert task.advance() is None
        assert task.outcome is TaskOutcome.SKYLINE


class TestAskingPhase:
    def test_single_member_asks_one_pair(self, toy_env):
        task, toy, prefs = make_task(toy_env, "a", ["b"])
        task.activate()
        request = task.advance()
        assert (request.left, request.right) == (
            toy.index_of("b"), toy.index_of("a")
        )
        assert request.dominance_check

    def test_dominated_after_answer(self, toy_env):
        task, toy, prefs = make_task(toy_env, "a", ["b"])
        task.activate()
        request = task.advance()
        prefs.add_answer(request.left, request.right, 0, L)  # b preferred
        assert task.advance() is None
        assert task.outcome is TaskOutcome.NON_SKYLINE

    def test_survives_all_members(self, toy_env):
        task, toy, prefs = make_task(toy_env, "f", ["b", "e"])
        task.activate()
        while True:
            request = task.advance()
            if request is None:
                break
            # f is most preferred in A3: it wins every question.
            prefs.add_answer(request.left, request.right, 0, R)
        assert task.outcome is TaskOutcome.SKYLINE

    def test_equal_answer_dominates(self, toy_env):
        """s =_AC t with s ≺_AK t makes t a non-skyline tuple."""
        task, toy, prefs = make_task(toy_env, "a", ["b"])
        task.activate()
        request = task.advance()
        prefs.add_answer(request.left, request.right, 0, E)
        assert task.advance() is None
        assert task.outcome is TaskOutcome.NON_SKYLINE

    def test_early_break_skips_remaining(self, toy_env):
        task, toy, prefs = make_task(
            toy_env, "j", ["b", "e", "f"], use_p3=False
        )
        task.activate()
        request = task.advance()
        assert request.right == toy.index_of("j")
        prefs.add_answer(request.left, request.right, 0, L)  # lost at once
        assert task.advance() is None
        assert task.outcome is TaskOutcome.NON_SKYLINE


class TestPruningFlags:
    def test_p1_removes_complete_non_skyline(self, toy):
        evaluation = toy_evaluation(toy, skyline="be", non_skyline="a")
        task = start(toy, evaluation, "c")
        assert toy.index_of("a") not in task.dominating_set

    def test_p1_disabled_keeps_everyone(self, toy):
        evaluation = toy_evaluation(
            toy, skyline="be", non_skyline="a", pruning=PruningLevel.DSET
        )
        task = start(toy, evaluation, "c")
        assert toy.index_of("a") in task.dominating_set

    def test_p2_reduces_to_sky_ac(self, toy):
        evaluation = toy_evaluation(toy, skyline="be")
        prefs = evaluation.context.prefs
        prefs.add_answer(toy.index_of("e"), toy.index_of("b"), 0, L)
        task = start(toy, evaluation, "d")
        assert task.dominating_set == [toy.index_of("e")]

    def test_forced_requests_without_p2(self, toy_env):
        """DSet/P1 variants ask even transitively derivable pairs."""
        task, toy, prefs = make_task(
            toy_env, "d", ["b", "e"], use_p2=False, use_p3=False,
        )
        b, e, d = (toy.index_of(x) for x in "bed")
        prefs.add_answer(e, b, 0, L)
        prefs.add_answer(e, d, 0, L)  # derivable: d loses to e
        task.activate()
        request = task.advance()
        assert request is not None and request.force

    def test_dset_variant_stops_on_completion(self, toy_env):
        """Even without P1/P2/P3 a complete tuple stops asking
        (Definition 4 applies to every variant)."""
        task, toy, prefs = make_task(
            toy_env, "d", ["b", "e"], use_p2=False, use_p3=False,
        )
        task.activate()
        asked = 0
        while True:
            request = task.advance()
            if request is None:
                break
            asked += 1
            prefs.add_answer(request.left, request.right, 0, L)  # d loses
        assert asked == 1
        assert task.outcome is TaskOutcome.NON_SKYLINE

    def test_dset_variant_asks_all_when_surviving(self, toy_env):
        """A surviving tuple must still beat every DS member."""
        task, toy, prefs = make_task(
            toy_env, "f", ["a", "b", "d", "e"], use_p2=False, use_p3=False,
        )
        task.activate()
        asked = 0
        while True:
            request = task.advance()
            if request is None:
                break
            asked += 1
            prefs.add_answer(request.left, request.right, 0, R)  # f wins
        assert asked == 4
        assert task.outcome is TaskOutcome.SKYLINE


class TestProbingPhase:
    def test_probe_pairs_before_questions(self, toy_env):
        task, toy, prefs = make_task(toy_env, "d", ["b", "e"])
        task.activate()
        request = task.advance()
        b, e = toy.index_of("b"), toy.index_of("e")
        assert {request.left, request.right} == {b, e}

    def test_probe_answer_removes_loser(self, toy_env):
        task, toy, prefs = make_task(toy_env, "d", ["b", "e"])
        task.activate()
        request = task.advance()
        e = toy.index_of("e")
        winner_is_left = request.left == e
        prefs.add_answer(
            request.left, request.right, 0, L if winner_is_left else R
        )
        request = task.advance()
        # Now in the asking phase against the surviving member e.
        assert task.state is TaskState.ASKING
        assert request.left == e

    def test_probe_tie_keeps_one_member(self, toy_env):
        task, toy, prefs = make_task(toy_env, "d", ["b", "e"])
        task.activate()
        request = task.advance()
        prefs.add_answer(request.left, request.right, 0, E)
        task.advance()
        assert len(task.dominating_set) == 1

    def test_probe_skipped_without_p3(self, toy_env):
        task, toy, prefs = make_task(toy_env, "d", ["b", "e"], use_p3=False)
        task.activate()
        request = task.advance()
        assert request.right == toy.index_of("d")  # directly in Q(t)

    def test_probe_order_by_descending_frequency(self, toy_env):
        task, toy, prefs = make_task(toy_env, "j", ["b", "e", "i"])
        b, e, i = (toy.index_of(x) for x in "bei")
        pairs = task._sorted_probe_pairs([b, e, i])
        # freq(b,e)=5 > freq(e,i)=2 > freq(b,i)=2 (tie broken by index).
        frequency = toy_env[2]
        freqs = [frequency.freq(u, v) for u, v in pairs]
        assert freqs == sorted(freqs, reverse=True)


class TestMultiAttribute:
    def test_incomparable_members_both_survive_probing(self, multi_crowd):
        prefs = PreferenceSystem(len(multi_crowd), 2)
        matrix = dominance_matrix(multi_crowd.known_matrix())
        frequency = FrequencyOracle(matrix)
        task = TupleTask(0, [1, 2], prefs, frequency)
        prefs.add_answer(1, 2, 0, L)
        prefs.add_answer(1, 2, 1, R)  # incomparable in AC
        task.activate()
        request = task.advance()
        # Probing cannot reduce {1, 2}; both must be asked against 0.
        assert task.state is TaskState.ASKING
        assert len(task.dominating_set) == 2

    def test_settled_pair_left_out_of_the_ladder(self, multi_crowd):
        """A pair known incomparable at activation never enters the
        ladder; an open one does."""
        prefs = PreferenceSystem(len(multi_crowd), 2)
        matrix = dominance_matrix(multi_crowd.known_matrix())
        frequency = FrequencyOracle(matrix)
        prefs.add_answer(1, 2, 0, L)
        prefs.add_answer(1, 2, 1, R)
        settled = TupleTask(0, [1, 2], prefs, frequency)
        settled.activate()
        assert settled._probe_pairs == []
        prefs.add_answer(2, 3, 0, L)  # known on one attribute only
        opened = TupleTask(0, [1, 2, 3], prefs, frequency)
        opened.activate()
        assert sorted(opened._probe_pairs) == [(1, 3), (2, 3)]


class TestGatheredDominatingSet:
    """:meth:`Evaluation.start` gathers ``DS(t)`` as int64 rows off the
    dominance matrix; its tasks' requests still carry Python ints, which
    questions and journal records need."""

    @pytest.mark.parametrize(
        "flags",
        [
            {},
            {"pruning": PruningLevel.DSET},
            {"multiway": 3},
        ],
    )
    def test_requests_from_an_int64_gather_carry_python_ints(
        self, toy, flags
    ):
        evaluation = toy_evaluation(
            toy, skyline="bdefghi", non_skyline="a", **flags
        )
        prefs = evaluation.context.prefs
        task = start(toy, evaluation, "j")
        assert all(type(s) is int for s in task.dominating_set)
        requests = []
        while (request := task.advance()) is not None:
            requests.append(request)
            if isinstance(request, MultiwayRequest):
                prefs.apply_verdicts([
                    (request.candidates[0], loser, 0, L)
                    for loser in request.candidates[1:]
                ])
            else:
                prefs.add_answer(request.left, request.right, 0, R)
        assert requests
        for request in requests:
            members = (
                request.candidates
                if isinstance(request, MultiwayRequest)
                else (request.left, request.right)
            )
            assert all(type(s) is int for s in members), request


class TestMultiwayProbing:
    """m-ary probing walks no pairwise ladder and reduces ``DS(t)``
    only under a closure that changed since its last reduction."""

    def test_no_ladder_and_no_redundant_reduction(self):
        """ANT n = 200, ``|AC| = 1``, ``multiway=3``, seed 0. The
        evaluate phase hands every task its members reduced, and the
        first m-ary step used to reduce them again under the same
        closure: 56 of the 300 groups of two or more members, in 441
        ``sky_ac`` calls. Each activation also built a pairwise ladder
        that m-ary probing never walks: 56 ladders holding 77 pairs,
        from 56 ``freq_matrix`` calls."""
        calls = {"sky_ac": 0, "groups": 0, "redundant": 0, "freq": 0}
        reduced = {}
        sky_ac = PreferenceSystem.sky_ac
        freq_matrix = FrequencyOracle.freq_matrix

        def counting_sky_ac(system, members, group):
            calls["sky_ac"] += 1
            version = system.version
            count = int(group.max()) + 1 if len(group) else 0
            for members_of in split(members, group, count):
                if len(members_of) > 1:
                    calls["groups"] += 1
                    if reduced.get(tuple(members_of)) == version:
                        calls["redundant"] += 1
            keep = sky_ac(system, members, group)
            reduced.update(
                (tuple(survivors), version)
                for survivors in split(members[keep], group[keep], count)
            )
            return keep

        def counting_freq_matrix(oracle, members):
            calls["freq"] += 1
            return freq_matrix(oracle, members)

        relation = generate_synthetic(
            200, 2, 1, Distribution.ANTI_CORRELATED, seed=0
        )
        with mock.patch.object(
            PreferenceSystem, "sky_ac", counting_sky_ac
        ), mock.patch.object(
            FrequencyOracle, "freq_matrix", counting_freq_matrix
        ):
            result = crowdsky(relation, config=CrowdSkyConfig(multiway=3))
        assert result.stats.questions == 249
        assert calls == {
            "sky_ac": 249, "groups": 244, "redundant": 0, "freq": 0
        }
