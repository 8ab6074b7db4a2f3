"""Result container for crowd-enabled skyline executions."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple as TupleT

from repro.crowd.faults import FaultStats
from repro.crowd.platform import CrowdStats
from repro.questions import PairwiseQuestion, Preference
from repro.data.relation import Relation
from repro.obs.report import (
    DEFAULT_OMEGA,
    DEFAULT_PRICE,
    QUESTIONS_PER_HIT,
    price_rounds,
)


@dataclass
class CrowdSkylineResult:
    """Outcome of a crowd-enabled skyline computation.

    Attributes
    ----------
    skyline:
        Tuple indices of the crowdsourced skyline ``SKY_A(R)``.
    stats:
        Question/round/cost accounting from the crowd platform.
    question_log:
        The asked micro-questions in execution order, as
        ``(round, question, aggregated answer)`` — enables the golden
        trace tests against the paper's worked examples.
    algorithm:
        Name of the algorithm/scheduler that produced the result.
    rejected_answers:
        Aggregated answers rejected for contradicting earlier knowledge
        (only nonzero with noisy crowds).
    """

    skyline: Set[int]
    stats: CrowdStats
    question_log: List[TupleT[int, PairwiseQuestion, Preference]] = field(
        default_factory=list
    )
    algorithm: str = "crowdsky"
    rejected_answers: int = 0
    #: Budgeted runs: did the question budget run out before completion?
    budget_exhausted: bool = False
    #: Budgeted runs: tuples whose status was definitively decided.
    complete_tuples: Optional[int] = None
    #: Fault-tolerant runs: True when some question was permanently given
    #: up on (retries exhausted, deadline missed, or budget gone) — the
    #: skyline is then a conservative superset: unresolved pairs were
    #: treated as incomparable, so no true skyline tuple was dropped.
    degraded: bool = False
    #: The question keys ``(u, v, attribute)`` the crowd gave up on.
    unresolved_pairs: List[TupleT[int, int, int]] = field(
        default_factory=list
    )
    #: Injected-fault tallies (None when no fault plan was attached).
    fault_stats: Optional[FaultStats] = None
    #: Wall-clock seconds of the run, stamped when a trace was active
    #: (``repro.obs.observe``); None otherwise.
    wall_time_s: Optional[float] = None
    #: One dict per executed crowd posting (round index, format,
    #: question/assignment/retry/fault counts, attribution context) —
    #: see ``SimulatedCrowd.cost_records``. Feeds :meth:`cost_breakdown`.
    cost_records: List[Dict[str, Any]] = field(default_factory=list)

    @classmethod
    def resume(
        cls,
        journal,
        relation: Relation,
        crowd=None,
    ) -> "CrowdSkylineResult":
        """Resume an interrupted journaled run (see
        :func:`repro.core.resume.resume_run`).

        ``journal`` is the journal directory (or a recovered journal);
        ``relation`` must be the dataset the original run used. The
        import is deferred: the resume machinery pulls in every
        algorithm entry point, which this module must not.
        """
        from repro.core.resume import resume_run

        return resume_run(journal, relation, crowd=crowd)

    def cost_breakdown(
        self,
        price: float = DEFAULT_PRICE,
        omega: int = DEFAULT_OMEGA,
        per_hit: int = QUESTIONS_PER_HIT,
    ) -> Dict[str, Any]:
        """Charge the run's money back to what caused each round.

        Prices :attr:`cost_records` with
        :func:`repro.obs.report.price_rounds`, the pricer of the
        trace-side RunReport cost too: postings are grouped by round
        (merged multiway postings share their predecessor round's HIT
        arithmetic, like :meth:`CrowdStats.hit_cost`) and each round's
        HITs are attributed to the context recorded when it executed —
        scheduler, phase, layer and tuple dimensions. ``total_cost``
        equals ``stats.hit_cost(price, omega, per_hit)`` bit for bit
        whenever the records cover the whole run. ``faults`` counts the
        failed questions of every posting.
        """
        records = self.cost_records
        breakdown = price_rounds(
            (
                (record["round"], record, record.get("context", {}))
                for record in records
            ),
            price=price,
            omega=omega,
            per_hit=per_hit,
        )
        breakdown["faults"] = sum(record.get("faults", 0) for record in records)
        return breakdown

    def skyline_labels(self, relation: Relation) -> Set[str]:
        """The skyline as human-readable labels."""
        return {relation.label(i) for i in sorted(self.skyline)}

    def asked_pairs(self) -> List[TupleT[int, int]]:
        """The asked pairs (tuple-index pairs) in order, attributes merged."""
        seen = []
        last: Optional[TupleT[int, int]] = None
        for _, question, _ in self.question_log:
            pair = (question.left, question.right)
            if pair != last:
                seen.append(pair)
            last = pair
        return seen

    def round_table(self, relation: Optional[Relation] = None) -> List[dict]:
        """Per-round question listing (the shape of the paper's Table 3).

        Returns one row per executed round with the asked pairs, labelled
        when a relation is provided.
        """
        by_round: dict = {}
        for round_number, question, _ in self.question_log:
            if relation is not None:
                pair = (
                    f"({relation.label(question.left)}, "
                    f"{relation.label(question.right)})"
                )
            else:
                pair = f"({question.left}, {question.right})"
            by_round.setdefault(round_number, []).append(pair)
        retried = self.stats.retried_per_round
        show_faults = self.stats.retries > 0 or self.stats.timeouts > 0
        rows = []
        for round_number, pairs in sorted(by_round.items()):
            row = {"round": round_number, "questions": ", ".join(pairs)}
            if show_faults:
                # round_sizes[i] belongs to round i + 1.
                index = round_number - 1
                row["retried"] = (
                    retried[index] if 0 <= index < len(retried) else 0
                )
            rows.append(row)
        return rows

    def summary(self, relation: Optional[Relation] = None) -> str:
        """One-line human-readable summary.

        Fault/retry numbers come from :attr:`stats`; total wall-clock
        time is appended when the run executed under an active trace
        (:func:`repro.obs.observe`).
        """
        labels = ""
        if relation is not None:
            labels = " {" + ", ".join(
                sorted(relation.label(i) for i in self.skyline)
            ) + "}"
        text = (
            f"{self.algorithm}: |skyline|={len(self.skyline)}{labels} "
            f"questions={self.stats.questions} rounds={self.stats.rounds} "
            f"cost=${self.stats.hit_cost():.2f}"
        )
        stats = self.stats
        retries = stats.retries
        timeouts = stats.timeouts
        degraded_answers = stats.degraded_answers
        if retries or timeouts or degraded_answers:
            text += (
                f" retries={retries} timeouts={timeouts} "
                f"degraded_answers={degraded_answers}"
            )
        if self.degraded:
            text += (
                f" DEGRADED (unresolved_pairs={len(self.unresolved_pairs)})"
            )
        if self.wall_time_s is not None:
            text += f" wall={self.wall_time_s:.3f}s"
        return text
