"""Machine-only skyline substrate (paper §2.2, §3.1, §4.2).

These components operate on fully-known data (the ``AK`` projection, or
the full matrix when computing ground truth):

* :mod:`repro.skyline.dominance` — dominance/incomparability predicates
  and the vectorized pairwise dominance matrix,
* :mod:`repro.skyline.bnl` — block-nested-loops skyline (Börzsönyi 2001),
* :mod:`repro.skyline.sfs` — sort-filter skyline (Chomicki 2003),
* :mod:`repro.skyline.dnc` — divide & conquer skyline,
* :mod:`repro.skyline.bskytree` — pivot-based skyline with
  incomparability sharing (BSkyTree-style, the paper's [10]),
* :mod:`repro.skyline.layers` — skyline layers + covering graph (§4.2),
* :mod:`repro.skyline.dominating` — dominating sets ``DS(t)`` and pair
  frequency ``freq(u, v)`` (§3.1, §3.4),
* :mod:`repro.skyline.sharded` — deterministic shard partitioners and
  per-shard local skylines with a communication-cost-aware merge
  (docs/sharding.md).
"""

from repro.skyline.bnl import bnl_skyline
from repro.skyline.bskytree import bskytree_skyline
from repro.skyline.dnc import dnc_skyline
from repro.skyline.dominance import (
    DominanceRelation,
    compare,
    dominance_matrix,
    dominates,
    incomparable,
)
from repro.skyline.dominating import (
    dominating_sets,
    dominating_sets_from_matrix,
    evaluation_order,
    pair_frequency,
)
from repro.skyline.layers import covering_graph, skyline_layers
from repro.skyline.sfs import sfs_skyline
from repro.skyline.sharded import (
    ShardPlan,
    ShardStats,
    local_skyline_mask,
    make_plan,
    sharded_skyline_mask,
)

__all__ = [
    "DominanceRelation",
    "ShardPlan",
    "ShardStats",
    "bnl_skyline",
    "bskytree_skyline",
    "compare",
    "covering_graph",
    "dnc_skyline",
    "dominance_matrix",
    "dominates",
    "dominating_sets",
    "dominating_sets_from_matrix",
    "evaluation_order",
    "incomparable",
    "local_skyline_mask",
    "make_plan",
    "pair_frequency",
    "sfs_skyline",
    "sharded_skyline_mask",
    "skyline_layers",
]
