"""CrowdSky: Skyline Computation with Crowdsourcing — full reproduction.

Reproduces Lee, Lee & Kim, EDBT 2016 (DOI 10.5441/002/edbt.2016.14): a
crowd-enabled skyline engine that asks human workers pairwise questions
to fill missing (crowd) attributes, minimizing monetary cost via
dominating-set pruning, latency via parallel round scheduling, and
improving accuracy via dynamic majority voting.

Quick start::

    from repro import crowdsky, generate_synthetic, Distribution

    relation = generate_synthetic(500, num_known=4, num_crowd=1,
                                  distribution=Distribution.INDEPENDENT,
                                  seed=0)
    result = crowdsky(relation)
    print(result.summary())

See README.md for the architecture overview and examples/ for runnable
scenarios.
"""

from repro.core.baseline import baseline_skyline
from repro.core.crowdsky import (
    CrowdSkyConfig,
    PruningLevel,
    crowdsky,
    crowdsky_budgeted,
)
from repro.core.parallel import parallel_dset, parallel_sl
from repro.core.preference import PreferenceSystem
from repro.core.result import CrowdSkylineResult
from repro.core.resume import replay_run, resume_run
from repro.core.unary import unary_skyline
from repro.crowd.backends import (
    CrowdBackend,
    ReplayBackend,
    SimulatedBackend,
)
from repro.crowd.faults import FaultPlan, FaultStats
from repro.crowd.journal import (
    JournalWriter,
    RecoveredJournal,
    recover_journal,
)
from repro.crowd.platform import CrowdStats, SimulatedCrowd
from repro.crowd.retry import RetryPolicy
from repro.crowd.voting import DynamicVoting, StaticVoting
from repro.crowd.workers import (
    BernoulliWorker,
    DifficultyAwareWorker,
    PerfectWorker,
    SkilledWorker,
    SpammerWorker,
    WorkerPool,
)
from repro.data.relation import (
    Attribute,
    AttributeKind,
    Direction,
    Relation,
    Schema,
    Tuple,
)
from repro.data.synthetic import Distribution, generate_synthetic
from repro.exceptions import (
    BudgetExhaustedError,
    CrowdSkyError,
    FaultInjectionError,
    JournalError,
    JournalReplayError,
    QuestionTimeoutError,
    RetriesExhaustedError,
)
from repro.metrics.accuracy import (
    AccuracyReport,
    ak_skyline,
    ground_truth_skyline,
    precision_recall,
)
from repro.obs import (
    MetricsRegistry,
    Tracer,
    current_observation,
    observe,
    summarize_trace,
)
from repro.query.executor import execute_query
from repro.query.parser import parse_query
from repro.questions import (
    MultiwayQuestion,
    PairwiseQuestion,
    Preference,
    UnaryQuestion,
)

__version__ = "1.0.0"

__all__ = [
    "AccuracyReport",
    "Attribute",
    "AttributeKind",
    "BernoulliWorker",
    "BudgetExhaustedError",
    "CrowdBackend",
    "CrowdSkyConfig",
    "CrowdSkyError",
    "CrowdSkylineResult",
    "CrowdStats",
    "DifficultyAwareWorker",
    "Direction",
    "Distribution",
    "DynamicVoting",
    "FaultInjectionError",
    "FaultPlan",
    "FaultStats",
    "JournalError",
    "JournalReplayError",
    "JournalWriter",
    "MetricsRegistry",
    "MultiwayQuestion",
    "PairwiseQuestion",
    "PerfectWorker",
    "Preference",
    "PreferenceSystem",
    "PruningLevel",
    "QuestionTimeoutError",
    "RecoveredJournal",
    "Relation",
    "ReplayBackend",
    "RetriesExhaustedError",
    "RetryPolicy",
    "Schema",
    "SimulatedBackend",
    "SimulatedCrowd",
    "SkilledWorker",
    "SpammerWorker",
    "StaticVoting",
    "Tracer",
    "Tuple",
    "UnaryQuestion",
    "WorkerPool",
    "ak_skyline",
    "baseline_skyline",
    "crowdsky",
    "crowdsky_budgeted",
    "current_observation",
    "execute_query",
    "generate_synthetic",
    "ground_truth_skyline",
    "observe",
    "parallel_dset",
    "parallel_sl",
    "parse_query",
    "precision_recall",
    "recover_journal",
    "replay_run",
    "resume_run",
    "summarize_trace",
    "unary_skyline",
]
