"""Hypothesis strategies for property-based tests.

Re-exports commonly used strategies for convenience::

    from tests.strategies import fault_plans, lossy_fault_plans, \
        retry_policies, small_crowd_relations, ROBUSTNESS_SETTINGS
    from tests.strategies import answer_sequences, small_relations
"""

from tests.strategies.faults import (
    fault_plans,
    lossy_fault_plans,
    retry_policies,
    small_crowd_relations,
)
from tests.strategies.modules import module_names, python_modules
from tests.strategies.preferences import (
    answer_events,
    answer_sequences,
    consistent_answer_sequences,
    small_relations,
    verdict_rounds,
)
from tests.strategies.relations import (
    KINDS,
    crowd_relations,
    known_matrices,
)
from tests.strategies.settings import DIFFERENTIAL_SETTINGS, ROBUSTNESS_SETTINGS

__all__ = [
    "DIFFERENTIAL_SETTINGS",
    "KINDS",
    "ROBUSTNESS_SETTINGS",
    "answer_events",
    "answer_sequences",
    "consistent_answer_sequences",
    "crowd_relations",
    "fault_plans",
    "known_matrices",
    "lossy_fault_plans",
    "module_names",
    "python_modules",
    "retry_policies",
    "small_crowd_relations",
    "small_relations",
    "verdict_rounds",
]
