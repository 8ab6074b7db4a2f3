"""``PreferenceSystem.sky_ac`` over lists of groups.

``sky_ac`` takes its groups laid end to end, each member with its
group's index, and returns a keep mask over the members. The tests
state their cases as lists of groups, so :func:`sky_ac_groups` lays
them end to end and splits the mask back into one survivor list per
group with :func:`split`.
"""

from typing import List, Sequence

import numpy as np


def split(
    values: np.ndarray, group: np.ndarray, count: int
) -> List[List[int]]:
    """``values`` back as one list per group index below ``count``."""
    return [values[group == index].tolist() for index in range(count)]


def sky_ac_groups(system, groups: Sequence[Sequence[int]]) -> List[List[int]]:
    """The survivors of ``system.sky_ac`` in each of ``groups``, in
    group order."""
    members = np.array([v for ds in groups for v in ds], dtype=np.int64)
    group = np.repeat(np.arange(len(groups)), [len(ds) for ds in groups])
    keep = system.sky_ac(members, group)
    return split(members[keep], group[keep], len(groups))
