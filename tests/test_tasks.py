"""Tests for the per-tuple evaluation state machine."""

import numpy as np
import pytest

from repro.core.preference import PreferenceSystem
from repro.core.tasks import (
    PairRequest,
    TaskOutcome,
    TaskState,
    TupleTask,
)
from repro.questions import Preference
from repro.skyline.dominance import dominance_matrix
from repro.skyline.dominating import FrequencyOracle

L, R, E = Preference.LEFT, Preference.RIGHT, Preference.EQUAL


@pytest.fixture
def toy_env(toy):
    matrix = dominance_matrix(toy.known_matrix())
    prefs = PreferenceSystem(len(toy), 1)
    frequency = FrequencyOracle(matrix)
    return toy, prefs, frequency


def non_skyline(relation, *labels):
    """The bool mask ``activate`` takes: True for ``labels``."""
    mask = np.zeros(len(relation), dtype=bool)
    mask[[relation.index_of(x) for x in labels]] = True
    return mask


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
        task.activate(non_skyline(toy_env[0]))
        with pytest.raises(RuntimeError):
            task.activate(non_skyline(toy_env[0]))

    def test_empty_ds_completes_as_skyline(self, toy_env):
        task, _, _ = make_task(toy_env, "a", [])
        task.activate(non_skyline(toy_env[0]))
        assert task.advance() is None
        assert task.outcome is TaskOutcome.SKYLINE


class TestAskingPhase:
    def test_single_member_asks_one_pair(self, toy_env):
        task, toy, prefs = make_task(toy_env, "a", ["b"])
        task.activate(non_skyline(toy_env[0]))
        request = task.advance()
        assert (request.left, request.right) == (
            toy.index_of("b"), toy.index_of("a")
        )
        assert request.dominance_check

    def test_dominated_after_answer(self, toy_env):
        task, toy, prefs = make_task(toy_env, "a", ["b"])
        task.activate(non_skyline(toy_env[0]))
        request = task.advance()
        prefs.add_answer(request.left, request.right, 0, L)  # b preferred
        assert task.advance() is None
        assert task.outcome is TaskOutcome.NON_SKYLINE

    def test_survives_all_members(self, toy_env):
        task, toy, prefs = make_task(toy_env, "f", ["b", "e"])
        task.activate(non_skyline(toy_env[0]))
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
        task.activate(non_skyline(toy_env[0]))
        request = task.advance()
        prefs.add_answer(request.left, request.right, 0, E)
        assert task.advance() is None
        assert task.outcome is TaskOutcome.NON_SKYLINE

    def test_early_break_skips_remaining(self, toy_env):
        task, toy, prefs = make_task(
            toy_env, "j", ["b", "e", "f"], use_p3=False
        )
        task.activate(non_skyline(toy_env[0]))
        request = task.advance()
        assert request.right == toy.index_of("j")
        prefs.add_answer(request.left, request.right, 0, L)  # lost at once
        assert task.advance() is None
        assert task.outcome is TaskOutcome.NON_SKYLINE


class TestPruningFlags:
    def test_p1_removes_complete_non_skyline(self, toy_env):
        task, toy, prefs = make_task(toy_env, "c", ["a", "b", "e"])
        task.activate(non_skyline(toy, "a"))
        assert toy.index_of("a") not in task.dominating_set

    def test_p1_disabled_keeps_everyone(self, toy_env):
        task, toy, prefs = make_task(
            toy_env, "c", ["a", "b", "e"], use_p1=False, use_p2=False,
            use_p3=False,
        )
        task.activate(non_skyline(toy, "a"))
        assert toy.index_of("a") in task.dominating_set

    def test_p2_reduces_to_sky_ac(self, toy_env):
        task, toy, prefs = make_task(toy_env, "d", ["b", "e"])
        prefs.add_answer(toy.index_of("e"), toy.index_of("b"), 0, L)
        task.activate(non_skyline(toy_env[0]))
        assert task.dominating_set == [toy.index_of("e")]

    def test_forced_requests_without_p2(self, toy_env):
        """DSet/P1 variants ask even transitively derivable pairs."""
        task, toy, prefs = make_task(
            toy_env, "d", ["b", "e"], use_p2=False, use_p3=False,
        )
        b, e, d = (toy.index_of(x) for x in "bed")
        prefs.add_answer(e, b, 0, L)
        prefs.add_answer(e, d, 0, L)  # derivable: d loses to e
        task.activate(non_skyline(toy_env[0]))
        request = task.advance()
        assert request is not None and request.force

    def test_dset_variant_stops_on_completion(self, toy_env):
        """Even without P1/P2/P3 a complete tuple stops asking
        (Definition 4 applies to every variant)."""
        task, toy, prefs = make_task(
            toy_env, "d", ["b", "e"],
            use_p1=False, use_p2=False, use_p3=False,
        )
        task.activate(non_skyline(toy_env[0]))
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
            toy_env, "f", ["a", "b", "d", "e"],
            use_p1=False, use_p2=False, use_p3=False,
        )
        task.activate(non_skyline(toy_env[0]))
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
        task.activate(non_skyline(toy_env[0]))
        request = task.advance()
        b, e = toy.index_of("b"), toy.index_of("e")
        assert {request.left, request.right} == {b, e}

    def test_probe_answer_removes_loser(self, toy_env):
        task, toy, prefs = make_task(toy_env, "d", ["b", "e"])
        task.activate(non_skyline(toy_env[0]))
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
        task.activate(non_skyline(toy_env[0]))
        request = task.advance()
        prefs.add_answer(request.left, request.right, 0, E)
        task.advance()
        assert len(task.dominating_set) == 1

    def test_probe_skipped_without_p3(self, toy_env):
        task, toy, prefs = make_task(toy_env, "d", ["b", "e"], use_p3=False)
        task.activate(non_skyline(toy_env[0]))
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
        task.activate(np.zeros(len(multi_crowd), dtype=bool))
        request = task.advance()
        # Probing cannot reduce {1, 2}; both must be asked against 0.
        assert task.state is TaskState.ASKING
        assert len(task.dominating_set) == 2
