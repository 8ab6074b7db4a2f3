"""Deterministic closure workloads shared by benchmarks and perf tests.

Each workload is a flat list of ops — ``("answer", u, v, Preference)``
or ``("query", u, v)`` — generated once from a fixed seed and replayed
against a fresh graph of each closure graph class
(:class:`~repro.core.preference.NumpyPreferenceGraph` and
:class:`~repro.core.preference.ReferencePreferenceGraph`). Replaying
returns a checksum over every query result and the accept/reject bit of
every answer, so a run simultaneously measures speed *and* proves the
two graphs computed identical relations.

Query density matters: after every crowd answer the schedulers
re-check dominance for a batch of candidate pairs (``resolve_pairs``
in ``engine.ask_batch``, the probe ladder in ``tasks.py``), so every
mutation here is followed by ``QUERIES_PER_ANSWER`` seeded pair
probes. The mixes exercise the cases that separate the graphs:

* ``chain_probe`` — forward chain growth. Every insert invalidates
  the cached descendant sets of all ancestors, so the reference
  graph re-runs a DFS per distinct probe source each round; the
  numpy graph answers each probe with one bit test on a packed row.
* ``reverse_chain`` — the chain built tip-first, the worst insert
  order for cache reuse: every new edge lands *above* all existing
  knowledge.
* ``random_dag`` — answers consistent with a hidden total order;
  the closest mix to what the schedulers actually generate.
* ``tie_heavy`` — a strict backbone plus pairwise tie merges,
  stressing class-union bookkeeping and merge propagation.
"""

from __future__ import annotations

import random
from typing import Dict, List, Tuple, Type

from repro.core.preference import _BasePreferenceGraph
from repro.questions import Preference

N = 512

# Pair probes issued after every mutation — the schedulers check at
# least this many candidate pairs per incorporated crowd answer.
QUERIES_PER_ANSWER = 8

Op = Tuple


def _probes(rng: random.Random, n: int, ops: List[Op]) -> None:
    for _ in range(QUERIES_PER_ANSWER):
        a, b = rng.sample(range(n), 2)
        ops.append(("query", a, b))


def chain_probe_ops(n: int = N, seed: int = 2) -> List[Op]:
    rng = random.Random(seed)
    ops: List[Op] = []
    for i in range(n - 1):
        ops.append(("answer", i, i + 1, Preference.LEFT))
        _probes(rng, n, ops)
    return ops


def reverse_chain_ops(n: int = N, seed: int = 3) -> List[Op]:
    rng = random.Random(seed)
    ops: List[Op] = []
    for i in range(n - 2, -1, -1):
        ops.append(("answer", i, i + 1, Preference.LEFT))
        _probes(rng, n, ops)
    return ops


def random_dag_ops(n: int = N, seed: int = 0) -> List[Op]:
    rng = random.Random(seed)
    order = list(range(n))
    rng.shuffle(order)
    rank = {t: i for i, t in enumerate(order)}
    ops: List[Op] = []
    for _ in range(2 * n):
        u, v = rng.sample(range(n), 2)
        answer = Preference.LEFT if rank[u] < rank[v] else Preference.RIGHT
        ops.append(("answer", u, v, answer))
        _probes(rng, n, ops)
    return ops


def tie_heavy_ops(n: int = N, seed: int = 1) -> List[Op]:
    rng = random.Random(seed)
    ops: List[Op] = []
    # strict backbone over the even tuples...
    evens = list(range(0, n, 2))
    for a, b in zip(evens, evens[1:]):
        ops.append(("answer", a, b, Preference.LEFT))
        _probes(rng, n, ops)
    # ...then merge each odd tuple into its left neighbour's class,
    # probing across the backbone after every merge
    for i in range(1, n, 2):
        ops.append(("answer", i - 1, i, Preference.EQUAL))
        _probes(rng, n, ops)
    return ops


WORKLOADS: Dict[str, List[Op]] = {
    "chain_probe": chain_probe_ops(),
    "reverse_chain": reverse_chain_ops(),
    "random_dag": random_dag_ops(),
    "tie_heavy": tie_heavy_ops(),
}


def make_workloads(n: int) -> Dict[str, List[Op]]:
    """The same four mixes at a custom instance size."""
    return {
        "chain_probe": chain_probe_ops(n),
        "reverse_chain": reverse_chain_ops(n),
        "random_dag": random_dag_ops(n),
        "tie_heavy": tie_heavy_ops(n),
    }


_RELATION_CODE = {
    None: 0,
    Preference.LEFT: 3,
    Preference.RIGHT: 4,
    Preference.EQUAL: 5,
}


def run_workload(
    ops: List[Op], n: int, graph_class: Type[_BasePreferenceGraph]
) -> int:
    """Replay ``ops`` on a fresh ``graph_class(n)``; return a result
    checksum."""
    graph = graph_class(n)
    checksum = 0
    for op in ops:
        if op[0] == "answer":
            _, u, v, answer = op
            checksum = checksum * 31 + (1 if graph.add_answer(u, v, answer) else 2)
        else:
            _, u, v = op
            checksum = checksum * 31 + _RELATION_CODE[graph.relation(u, v)]
        checksum %= 2**61 - 1
    return checksum
