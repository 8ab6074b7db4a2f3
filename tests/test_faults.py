"""Fault injection, retry/backoff, and graceful degradation.

Covers the robustness layer end to end:

* unit semantics of :class:`RetryPolicy` and :class:`FaultPlan`,
* the strict-mode exception contract and the non-strict unresolved
  contract at the platform level,
* byte-identity of a zero-rate plan with the plain platform,
* seeded determinism of whole fault-injected executions (swept over
  ``REPRO_FAULT_SEEDS``, see ``make test-robustness``),
* the acceptance matrix: every scheduler completes on every
  distribution at n=200 under heavy fault rates, returning a degraded
  result instead of raising,
* Hypothesis properties: termination for arbitrary fault
  configurations, and the conservative-superset guarantee for lossy
  (spam-free) plans with perfect workers,
* atomicity of round accounting under a strict budget abort.
"""

import logging
import os
import re

import pytest
from hypothesis import given

from repro.core.crowdsky import crowdsky, crowdsky_budgeted
from repro.core.parallel import parallel_dset, parallel_sl
from repro.crowd.faults import FaultPlan, HitOutcome
from repro.crowd.hits import HitLedger
from repro.crowd.platform import SimulatedCrowd
from repro.questions import (
    MultiwayQuestion,
    PairwiseQuestion,
    UnaryQuestion,
)
from repro.crowd.retry import RetryPolicy
from repro.data.synthetic import Distribution, generate_synthetic
from repro.exceptions import (
    BudgetExhaustedError,
    CrowdPlatformError,
    FaultInjectionError,
    QuestionTimeoutError,
    RetriesExhaustedError,
)
from repro.metrics.accuracy import ground_truth_skyline
from repro.obs import observe
from tests.strategies import (
    ROBUSTNESS_SETTINGS,
    fault_plans,
    lossy_fault_plans,
    retry_policies,
    small_crowd_relations,
)

SCHEDULERS = [crowdsky, parallel_dset, parallel_sl]


@pytest.fixture
def platform_log(caplog, monkeypatch):
    """``caplog`` at INFO over the crowd platform's records.

    The ``repro`` logger is put back as the library leaves it, silent
    and propagating: an in-process CLI test earlier in the session
    configures it for its own captured stderr and stops propagation."""
    logger = logging.getLogger("repro")
    monkeypatch.setattr(logger, "handlers", [logging.NullHandler()])
    monkeypatch.setattr(logger, "propagate", True)
    caplog.set_level(logging.INFO, logger="repro.crowd.platform")
    return caplog

#: Seeds swept by the robustness suite; override via the env var
#: (space- or comma-separated), e.g. ``make test-robustness
#: REPRO_FAULT_SEEDS="0 1 2 3 4"``.
FAULT_SEEDS = [
    int(s)
    for s in re.split(
        r"[,\s]+", os.environ.get("REPRO_FAULT_SEEDS", "0 1 7").strip()
    )
    if s
]

#: The acceptance-matrix fault regime: heavy but survivable.
HEAVY_FAULTS = dict(
    abandonment_rate=0.3,
    hit_timeout_rate=0.2,
    transient_error_rate=0.1,
    spam_burst_rate=0.05,
)


def run_trace(result, crowd):
    """Everything that must be identical across same-seed runs."""
    return (
        sorted(result.skyline),
        result.stats.questions,
        result.stats.rounds,
        result.stats.round_sizes,
        result.stats.retried_per_round,
        result.stats.worker_assignments,
        result.stats.retries,
        result.stats.timeouts,
        result.stats.abandoned_assignments,
        result.stats.degraded_answers,
        result.stats.unresolved_questions,
        result.stats.backoff_rounds,
        result.degraded,
        result.unresolved_pairs,
        result.fault_stats.as_dict() if result.fault_stats else None,
        crowd.question_log,
    )


class TestRetryPolicy:
    def test_backoff_grows_exponentially_then_caps(self):
        policy = RetryPolicy(backoff_base=1, backoff_factor=2.0, max_backoff=8)
        assert [policy.backoff_rounds(k) for k in (1, 2, 3, 4, 5)] == [
            1, 2, 4, 8, 8,
        ]

    def test_zero_base_never_waits(self):
        policy = RetryPolicy(backoff_base=0)
        assert policy.backoff_rounds(1) == 0
        assert policy.backoff_rounds(4) == 0

    def test_attempts_left(self):
        policy = RetryPolicy(max_attempts=3)
        assert policy.attempts_left(2)
        assert not policy.attempts_left(3)

    def test_single_attempt_disables_retries(self):
        assert not RetryPolicy(max_attempts=1).attempts_left(1)

    def test_deadline(self):
        assert not RetryPolicy(deadline_rounds=None).past_deadline(10 ** 6)
        policy = RetryPolicy(deadline_rounds=5)
        assert not policy.past_deadline(4)
        assert policy.past_deadline(5)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_attempts": 0},
            {"backoff_base": -1},
            {"backoff_factor": 0.5},
            {"max_backoff": -1},
            {"deadline_rounds": 0},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(CrowdPlatformError):
            RetryPolicy(**kwargs)

    def test_backoff_rejects_zero_failures(self):
        with pytest.raises(CrowdPlatformError):
            RetryPolicy().backoff_rounds(0)


class TestFaultPlan:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"abandonment_rate": -0.1},
            {"hit_timeout_rate": 1.5},
            {"transient_error_rate": 2.0},
            {"spam_burst_rate": -1.0},
            {"hit_timeout_rate": 0.6, "spam_burst_rate": 0.6},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(CrowdPlatformError):
            FaultPlan(**kwargs)

    def test_any_faults(self):
        assert not FaultPlan(seed=0).any_faults()
        assert FaultPlan(transient_error_rate=0.1, seed=0).any_faults()

    def test_rolls_are_deterministic_per_seed(self):
        def roll_sequence():
            plan = FaultPlan(
                abandonment_rate=0.4,
                hit_timeout_rate=0.3,
                transient_error_rate=0.2,
                spam_burst_rate=0.3,
                seed=13,
            )
            trace = [plan.roll_hit() for _ in range(20)]
            trace += [plan.roll_transient() for _ in range(20)]
            trace += [plan.roll_abandonment() for _ in range(20)]
            return trace, plan.stats.as_dict()

        assert roll_sequence() == roll_sequence()

    def test_rolls_tally_stats(self):
        plan = FaultPlan(hit_timeout_rate=1.0, seed=0)
        assert plan.roll_hit() is HitOutcome.EXPIRED
        assert plan.stats.expired_hits == 1
        plan = FaultPlan(spam_burst_rate=1.0, seed=0)
        assert plan.roll_hit() is HitOutcome.SPAM
        assert plan.stats.spam_bursts == 1
        plan = FaultPlan(transient_error_rate=1.0, abandonment_rate=1.0, seed=0)
        assert plan.roll_transient() and plan.roll_abandonment()
        assert plan.stats.transient_errors == 1
        assert plan.stats.abandoned_assignments == 1
        assert plan.stats.total_events() == 2


class TestExceptionHierarchy:
    def test_fault_errors_are_platform_errors(self):
        for exc in (
            FaultInjectionError,
            QuestionTimeoutError,
            RetriesExhaustedError,
        ):
            assert issubclass(exc, CrowdPlatformError)

    def test_top_level_exports(self):
        import repro

        for name in (
            "FaultPlan",
            "FaultStats",
            "RetryPolicy",
            "BudgetExhaustedError",
            "FaultInjectionError",
            "QuestionTimeoutError",
            "RetriesExhaustedError",
        ):
            assert hasattr(repro, name)
            assert name in repro.__all__


class TestStrictModeContract:
    """Platform-level fate of a question that can never be answered."""

    def question(self, toy):
        return PairwiseQuestion(toy.index_of("f"), toy.index_of("j"))

    def test_strict_without_retry_raises_fault_injection(self, toy):
        crowd = SimulatedCrowd(
            toy, seed=0, faults=FaultPlan(hit_timeout_rate=1.0, seed=0),
            strict=True,
        )
        with pytest.raises(FaultInjectionError):
            crowd.ask_pairwise_round([self.question(toy)])

    def test_strict_with_retry_raises_retries_exhausted(self, toy):
        crowd = SimulatedCrowd(
            toy, seed=0, faults=FaultPlan(hit_timeout_rate=1.0, seed=0),
            retry=RetryPolicy(max_attempts=2), strict=True,
        )
        with pytest.raises(RetriesExhaustedError):
            crowd.ask_pairwise_round([self.question(toy)])

    def test_strict_deadline_raises_question_timeout(self, toy):
        crowd = SimulatedCrowd(
            toy, seed=0, faults=FaultPlan(hit_timeout_rate=1.0, seed=0),
            retry=RetryPolicy(max_attempts=100, deadline_rounds=3),
            strict=True,
        )
        with pytest.raises(QuestionTimeoutError):
            crowd.ask_pairwise_round([self.question(toy)])

    def test_default_is_non_strict_once_faults_attached(self, toy):
        plain = SimulatedCrowd(toy, seed=0)
        faulty = SimulatedCrowd(toy, seed=0, faults=FaultPlan(seed=0))
        assert plain.strict and not faulty.strict

    def test_non_strict_marks_unresolved_instead(self, toy):
        crowd = SimulatedCrowd(
            toy, seed=0, faults=FaultPlan(hit_timeout_rate=1.0, seed=0),
            retry=RetryPolicy(max_attempts=2),
        )
        question = self.question(toy)
        answers = crowd.ask_pairwise_round([question])
        assert question not in answers
        assert crowd.is_unresolved(question)
        assert question.key() in crowd.unresolved_keys
        assert crowd.stats.unresolved_questions == 1
        assert crowd.ask_pairwise(question) is None

    def test_unresolved_questions_are_never_reposted(self, toy):
        crowd = SimulatedCrowd(
            toy, seed=0, faults=FaultPlan(hit_timeout_rate=1.0, seed=0),
        )
        question = self.question(toy)
        crowd.ask_pairwise_round([question])
        posted = crowd.stats.questions
        crowd.ask_pairwise_round([question])
        assert crowd.stats.questions == posted

    def test_retry_recovers_and_pays_for_reposts(self, toy):
        # Expiry on exactly the first HIT roll: the re-post succeeds.
        def expires_then_recovers(s):
            plan = FaultPlan(hit_timeout_rate=0.5, seed=s)
            return (
                plan.roll_hit() is HitOutcome.EXPIRED
                and plan.roll_hit() is HitOutcome.OK
            )

        seed = next(s for s in range(100) if expires_then_recovers(s))
        crowd = SimulatedCrowd(
            toy, seed=0,
            faults=FaultPlan(hit_timeout_rate=0.5, seed=seed),
            retry=RetryPolicy(max_attempts=3, backoff_base=1),
        )
        question = self.question(toy)
        answers = crowd.ask_pairwise_round([question])
        assert question in answers
        assert crowd.stats.retries >= 1
        # The re-post is a further platform round and is paid again.
        assert crowd.stats.rounds >= 2
        assert sum(crowd.stats.round_sizes) >= 2
        assert crowd.stats.backoff_rounds >= 1


class TestZeroRateIdentity:
    """A zero-rate plan must be byte-identical to no plan at all."""

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_zero_rate_strict_matches_seed_behaviour(
        self, small_independent, scheduler
    ):
        plain_crowd = SimulatedCrowd(small_independent, seed=0)
        plain = scheduler(small_independent, plain_crowd)
        faulty_crowd = SimulatedCrowd(
            small_independent, seed=0,
            faults=FaultPlan(seed=99), retry=RetryPolicy(), strict=True,
        )
        faulty = scheduler(small_independent, faulty_crowd)
        assert run_trace(plain, plain_crowd)[:-3] == run_trace(
            faulty, faulty_crowd
        )[:-3]
        assert plain_crowd.question_log == faulty_crowd.question_log
        assert not faulty.degraded
        assert faulty.unresolved_pairs == []
        assert faulty.fault_stats.total_events() == 0


@pytest.mark.faults
class TestSeededDeterminism:
    """Same (worker seed, fault seed) pair → identical execution."""

    @pytest.mark.parametrize("seed", FAULT_SEEDS)
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_repeat_runs_are_identical(self, scheduler, seed):
        relation = generate_synthetic(
            80, 2, 1, Distribution.INDEPENDENT, seed=seed
        )

        def run():
            crowd = SimulatedCrowd(
                relation, seed=seed,
                faults=FaultPlan(seed=seed + 1, **HEAVY_FAULTS),
                retry=RetryPolicy(max_attempts=3, deadline_rounds=25),
            )
            return run_trace(scheduler(relation, crowd), crowd)

        assert run() == run()

    @pytest.mark.parametrize("seed", FAULT_SEEDS)
    def test_different_fault_seeds_touch_only_fault_path(self, seed):
        """Changing the *fault* seed must not silently change worker
        behaviour: a lossless rerun still answers from ground truth."""
        relation = generate_synthetic(
            60, 2, 1, Distribution.ANTI_CORRELATED, seed=seed
        )
        truth = ground_truth_skyline(relation)
        crowd = SimulatedCrowd(
            relation, seed=seed,
            faults=FaultPlan(
                abandonment_rate=0.3, hit_timeout_rate=0.2,
                transient_error_rate=0.1, seed=seed + 1,
            ),
            retry=RetryPolicy(max_attempts=4, deadline_rounds=40),
        )
        result = parallel_sl(relation, crowd)
        assert result.skyline >= truth


@pytest.mark.faults
class TestGracefulDegradation:
    """The acceptance matrix: heavy faults never crash a scheduler."""

    @pytest.mark.parametrize(
        "distribution", list(Distribution), ids=[d.value for d in Distribution]
    )
    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_heavy_faults_complete_degraded(self, scheduler, distribution):
        relation = generate_synthetic(200, 2, 1, distribution, seed=3)
        crowd = SimulatedCrowd(
            relation, seed=0,
            faults=FaultPlan(seed=1, **HEAVY_FAULTS),
            retry=RetryPolicy(max_attempts=3, deadline_rounds=25),
        )
        result = scheduler(relation, crowd)
        assert result.skyline <= set(range(len(relation)))
        assert result.degraded
        assert result.unresolved_pairs
        assert result.fault_stats.total_events() > 0
        assert result.stats.retries > 0
        assert result.stats.timeouts > 0
        assert result.stats.unresolved_questions == len(
            result.unresolved_pairs
        )

    @pytest.mark.parametrize("scheduler", SCHEDULERS)
    def test_lossy_faults_keep_superset_guarantee(self, scheduler):
        """Without spam (and with perfect workers) faults only lose
        answers, so the degraded skyline can only gain tuples."""
        relation = generate_synthetic(
            200, 2, 1, Distribution.INDEPENDENT, seed=5
        )
        truth = ground_truth_skyline(relation)
        crowd = SimulatedCrowd(
            relation, seed=0,
            faults=FaultPlan(
                abandonment_rate=0.3, hit_timeout_rate=0.2,
                transient_error_rate=0.1, seed=2,
            ),
            retry=RetryPolicy(max_attempts=2, deadline_rounds=20),
        )
        result = scheduler(relation, crowd)
        assert result.skyline >= truth

    def test_result_surfaces_fault_accounting(self):
        relation = generate_synthetic(
            100, 2, 1, Distribution.INDEPENDENT, seed=3
        )
        crowd = SimulatedCrowd(
            relation, seed=0,
            faults=FaultPlan(seed=1, **HEAVY_FAULTS),
            retry=RetryPolicy(max_attempts=3, deadline_rounds=25),
        )
        result = crowdsky(relation, crowd)
        summary = result.summary()
        assert "retries=" in summary
        assert "DEGRADED" in summary
        assert f"unresolved_pairs={len(result.unresolved_pairs)}" in summary
        table = result.round_table()
        assert all("retried" in row for row in table)
        assert any(row["retried"] for row in table)
        # Rows only exist for rounds that delivered answers, but each
        # row's count must agree with the per-round accounting.
        retried = result.stats.retried_per_round
        for row in table:
            assert row["retried"] == retried[row["round"] - 1]

    def test_clean_summary_stays_clean(self, small_independent):
        result = crowdsky(small_independent)
        assert "DEGRADED" not in result.summary()
        assert "retries=" not in result.summary()
        assert all("retried" not in row for row in result.round_table())


class TestFaultProperties:
    """Hypothesis: the engine terminates for *any* fault configuration,
    and lossy plans preserve the conservative superset."""

    @ROBUSTNESS_SETTINGS
    @given(
        relation=small_crowd_relations(),
        plan_kwargs=fault_plans(),
        policy=retry_policies(),
    )
    def test_terminates_for_any_fault_rates(
        self, relation, plan_kwargs, policy
    ):
        for scheduler in SCHEDULERS:
            crowd = SimulatedCrowd(
                relation, seed=0, faults=FaultPlan(**plan_kwargs),
                retry=policy,
            )
            result = scheduler(relation, crowd)
            assert result.skyline <= set(range(len(relation)))
            if not result.degraded:
                assert result.unresolved_pairs == []

    @ROBUSTNESS_SETTINGS
    @given(
        relation=small_crowd_relations(),
        plan_kwargs=lossy_fault_plans(),
        policy=retry_policies(),
    )
    def test_lossy_plans_return_superset(self, relation, plan_kwargs, policy):
        truth = ground_truth_skyline(relation)
        for scheduler in SCHEDULERS:
            crowd = SimulatedCrowd(
                relation, seed=0, faults=FaultPlan(**plan_kwargs),
                retry=policy,
            )
            result = scheduler(relation, crowd)
            assert result.skyline >= truth


class TestBudgetAtomicity:
    """A strict budget abort must leave accounting untouched (the round
    either commits fully or not at all)."""

    def snapshot(self, crowd, ledger):
        stats = crowd.stats
        return (
            stats.questions,
            stats.rounds,
            stats.cached_hits,
            list(stats.round_sizes),
            stats.worker_assignments,
            ledger.num_hits,
            len(crowd.question_log),
        )

    def test_pairwise_abort_records_nothing(self, toy):
        ledger = HitLedger()
        crowd = SimulatedCrowd(toy, seed=0, max_questions=1, ledger=ledger)
        f, j, e, h = (toy.index_of(x) for x in "fjeh")
        crowd.ask_pairwise_round([PairwiseQuestion(f, j)])
        before = self.snapshot(crowd, ledger)
        with pytest.raises(BudgetExhaustedError):
            # One cached + two fresh: the old bug committed the cached
            # hit before noticing the budget was blown.
            crowd.ask_pairwise_round(
                [
                    PairwiseQuestion(f, j),
                    PairwiseQuestion(f, e),
                    PairwiseQuestion(f, h),
                ]
            )
        assert self.snapshot(crowd, ledger) == before

    def test_multiway_abort_records_nothing(self, toy):
        ledger = HitLedger()
        crowd = SimulatedCrowd(toy, seed=0, max_questions=1, ledger=ledger)
        crowd.ask_pairwise_round(
            [PairwiseQuestion(toy.index_of("f"), toy.index_of("j"))]
        )
        before = self.snapshot(crowd, ledger)
        with pytest.raises(BudgetExhaustedError):
            crowd.ask_multiway_round(
                [MultiwayQuestion((0, 1, 2)), MultiwayQuestion((3, 4, 5))]
            )
        assert self.snapshot(crowd, ledger) == before

    def test_unary_abort_records_nothing(self, toy):
        ledger = HitLedger()
        crowd = SimulatedCrowd(toy, seed=0, max_questions=1, ledger=ledger)
        crowd.ask_pairwise_round(
            [PairwiseQuestion(toy.index_of("f"), toy.index_of("j"))]
        )
        before = self.snapshot(crowd, ledger)
        with pytest.raises(BudgetExhaustedError):
            crowd.ask_unary_round([UnaryQuestion(0), UnaryQuestion(1)])
        assert self.snapshot(crowd, ledger) == before

    def test_non_strict_budget_completes_degraded(self, small_independent):
        crowd = SimulatedCrowd(
            small_independent, seed=0, max_questions=25, strict=False
        )
        result = crowdsky(small_independent, crowd)
        assert result.stats.questions <= 25
        assert result.budget_exhausted
        assert result.degraded
        assert crowd.budget_degraded

    def test_budgeted_wrapper_still_works_strict(self, small_independent):
        result = crowdsky_budgeted(small_independent, 25)
        assert result.budget_exhausted
        assert result.degraded
        assert result.stats.questions <= 25

    def test_multiway_round_omits_a_question_given_up_on(self, toy):
        """A posted m-ary round answers its fresh questions and leaves
        out the ones the budget made the crowd give up on."""
        crowd = SimulatedCrowd(toy, seed=0, max_questions=0, strict=False)
        given_up = MultiwayQuestion((0, 1, 2))
        assert crowd.ask_multiway_round([given_up]) == {}
        crowd.set_budget(None)
        fresh = MultiwayQuestion((3, 4, 5))
        answers = crowd.ask_multiway_round([given_up, fresh])
        assert list(answers) == [fresh]
        assert crowd.is_unresolved(given_up)
        assert crowd.stats.questions == 1

    def test_budget_refusal_logs_once_per_posting(self, platform_log):
        """A refused posting is one INFO record. Its questions are not
        logged again one WARNING each; their ``crowd.unresolved``
        events stay, one per question."""
        relation = generate_synthetic(40, 2, 2, seed=7)
        crowd = SimulatedCrowd(relation, seed=1, strict=False)
        with observe() as observation:
            crowdsky_budgeted(relation, 10, crowd)
        names = [event.get("name") for event in observation.tracer.events]
        denials = names.count("crowd.budget")
        records = [
            record for record in platform_log.records
            if record.name == "repro.crowd.platform"
        ]
        assert denials > 10
        assert names.count("crowd.unresolved") == (
            crowd.stats.unresolved_questions
        )
        assert crowd.stats.unresolved_questions > denials
        assert [r.levelno for r in records] == [logging.INFO] * denials

    def test_fault_unresolved_logs_a_warning_per_question(
        self, platform_log, toy
    ):
        crowd = SimulatedCrowd(
            toy, seed=0, faults=FaultPlan(hit_timeout_rate=1.0, seed=0)
        )
        crowd.ask_pairwise_round(
            [PairwiseQuestion(0, 1), PairwiseQuestion(0, 2)]
        )
        warnings = [
            record.getMessage() for record in platform_log.records
            if record.levelno == logging.WARNING
        ]
        assert crowd.stats.unresolved_questions == 2
        assert len(warnings) == 2
        assert all("(no_retry_policy)" in message for message in warnings)

    def test_non_strict_budget_does_not_copy_the_unresolved_set(
        self, monkeypatch
    ):
        """Once the budget is spent every later request is given up on,
        so the crowd's unresolved set grows with the run. The engine
        asks the crowd about one question at a time; it reads the set
        (a fresh copy per read) only once, when the context is built,
        instead of once per posting and per request."""
        reads = []
        snapshot = SimulatedCrowd.unresolved_keys.fget

        def counted(crowd):
            reads.append(1)
            return snapshot(crowd)

        monkeypatch.setattr(
            SimulatedCrowd, "unresolved_keys", property(counted)
        )
        relation = generate_synthetic(40, 2, 2, seed=7)
        crowd = SimulatedCrowd(relation, seed=1, strict=False)
        result = crowdsky_budgeted(relation, 10, crowd)
        assert result.stats.questions == 10
        assert crowd.stats.unresolved_questions > 100
        assert len(reads) == 1
