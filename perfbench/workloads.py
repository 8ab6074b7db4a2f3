"""The benchmark's three seeded workloads.

A workload is a list of relations, relation ``i`` generated with seed
``workload seed + i``; each relation is one skyline query, sent through
a public scheduler entry point. The program receives only the generated
relation and a crowd built for it. Why each workload exists is stated
in ``BENCHMARK.json`` and ``README.md``.
"""

from __future__ import annotations

import dataclasses
import shutil
import tempfile
from pathlib import Path
from typing import Callable, Dict, Optional

from repro import (
    CrowdSkylineResult,
    Distribution,
    JournalWriter,
    Relation,
    SimulatedCrowd,
    StaticVoting,
    WorkerPool,
    crowdsky,
    generate_synthetic,
    parallel_dset,
    parallel_sl,
)

Scheduler = Callable[[Relation, SimulatedCrowd], CrowdSkylineResult]

#: Worker accuracy and votes per question of the noisy workloads.
NOISY_ACCURACY = 0.8
NOISY_OMEGA = 5


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload."""

    name: str
    scheduler: Scheduler
    n: int
    num_known: int
    num_crowd: int
    distribution: Distribution
    noisy: bool
    journal: bool

    def relation(self, seed: int, n: Optional[int] = None) -> Relation:
        return generate_synthetic(
            n or self.n, self.num_known, self.num_crowd,
            self.distribution, seed=seed,
        )


class Query:
    """One relation and the crowd that answers its questions.

    With ``journal`` the crowd writes a fsync-per-posting journal into a
    fresh directory under ``scratch``; :meth:`close` closes it and
    removes the directory, returning the journal's size in bytes.
    """

    def __init__(
        self, workload: Workload, relation: Relation, seed: int,
        scratch: Path,
    ):
        self.relation = relation
        self._dir: Optional[str] = None
        journal = None
        if workload.journal:
            self._dir = tempfile.mkdtemp(prefix="journal-", dir=scratch)
            journal = JournalWriter(self._dir)
        if workload.noisy:
            self.crowd = SimulatedCrowd(
                relation,
                pool=WorkerPool.uniform(accuracy=NOISY_ACCURACY),
                voting=StaticVoting(NOISY_OMEGA),
                seed=seed,
                journal=journal,
            )
        else:
            self.crowd = SimulatedCrowd(relation, journal=journal)

    def close(self) -> int:
        if self._dir is None:
            return 0
        self.crowd.journal.close()
        size = sum(path.stat().st_size for path in Path(self._dir).iterdir())
        shutil.rmtree(self._dir)
        self._dir = None
        return size


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="serial-ind-perfect",
            scheduler=crowdsky,
            n=1000, num_known=2, num_crowd=2,
            distribution=Distribution.INDEPENDENT,
            noisy=False, journal=False,
        ),
        Workload(
            name="sl-ant-noisy",
            scheduler=parallel_sl,
            n=1500, num_known=2, num_crowd=1,
            distribution=Distribution.ANTI_CORRELATED,
            noisy=True, journal=False,
        ),
        Workload(
            name="dset-ant-journal",
            scheduler=parallel_dset,
            n=1500, num_known=2, num_crowd=1,
            distribution=Distribution.ANTI_CORRELATED,
            noisy=True, journal=True,
        ),
    )
}
