"""The unary-question baseline simulating Lofi et al. [12] (paper §6.1).

[12] assesses missing values with *quantitative* (unary) questions: each
tuple is rated in isolation and the ratings induce the missing column.
The paper simulates this format by drawing, for every tuple, an estimate
from a normal distribution centred on the tuple's actual crowd-attribute
value; the skyline is then computed machine-side over known values plus
the estimates.

All unary questions are independent, so the whole column is collected in
a single round per crowd attribute (one-shot strategy) — cheap in latency
but, as §6.1 shows, less accurate than CrowdSky's pairwise comparisons
because workers lack global knowledge of the value scale.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.result import CrowdSkylineResult
from repro.crowd.platform import SimulatedCrowd
from repro.questions import UnaryQuestion
from repro.crowd.voting import DEFAULT_OMEGA
from repro.data.relation import Relation
from repro.exceptions import CrowdSkyError
from repro.obs import phase, run_span
from repro.skyline.bnl import bnl_skyline


def unary_skyline(
    relation: Relation,
    crowd: Optional[SimulatedCrowd] = None,
    omega: int = DEFAULT_OMEGA,
) -> CrowdSkylineResult:
    """Compute the crowdsourced skyline from unary value estimates.

    Parameters
    ----------
    relation:
        Dataset with at least one crowd attribute.
    crowd:
        Crowd platform; its workers' ``answer_unary`` model supplies the
        noisy estimates (a perfect crowd reproduces the true skyline).
    omega:
        Workers per unary question; their estimates are averaged.
    """
    if relation.schema.num_crowd < 1:
        raise CrowdSkyError("unary baseline needs at least one crowd attribute")
    if crowd is None:
        crowd = SimulatedCrowd(relation)

    n = len(relation)
    m = relation.schema.num_crowd
    with run_span("unary", n=n, omega=omega) as span:
        estimates = np.empty((n, m), dtype=float)
        with phase("estimate"):
            for attribute in range(m):
                questions = [UnaryQuestion(i, attribute) for i in range(n)]
                answers = crowd.ask_unary_round(questions, omega=omega)
                for question, value in answers.items():
                    estimates[question.tuple_index, attribute] = value

        with phase("machine_skyline"):
            augmented = np.hstack([relation.known_matrix(), estimates])
            skyline = set(bnl_skyline(augmented))

        result = CrowdSkylineResult(
            skyline=skyline,
            stats=crowd.stats,
            algorithm="Unary[12]",
        )
    if span is not None:
        result.wall_time_s = span.duration_s
    return result
