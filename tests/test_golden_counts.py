"""Golden regression: question/round/skyline counts must not drift.

An optimized preference closure is exactly the kind of change that
silently corrupts question counts — the algorithm still returns the
right skyline but stops matching the paper's cost accounting. This
suite replays a small seeded matrix of (dataset × scheduler × backend)
and compares every case against ``tests/fixtures/golden_counts.json``
exactly. Beside the default configuration it replays the extra cases
of :func:`tests.regen_golden.extra_cases` — the budgeted scheduler,
every pruning level, m-ary probing, round robin, and noisy and
fault-injecting crowds — down to a digest of the question log and of
the cost records. After an *intentional* behaviour change, regenerate
with ``make regen-golden`` and commit the diff.
"""

import json

import pytest

from tests.regen_golden import (
    BACKENDS,
    BUDGETED,
    GOLDEN_PATH,
    SCHEDULERS,
    datasets,
    extra_cases,
    run_case,
    run_extra_case,
    serial_twin,
)

EXTRA_CASES = extra_cases()

pytestmark = pytest.mark.pref


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN_PATH.exists(), (
        "missing golden fixture — run `make regen-golden` and commit "
        f"{GOLDEN_PATH}"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def golden_datasets():
    return datasets()


@pytest.mark.parametrize("scheduler_name", sorted(SCHEDULERS))
@pytest.mark.parametrize(
    "dataset_name",
    ["toy_fig1", "ind_n40", "ant_n36", "cor_n40", "ind_ac2_n30"],
)
def test_counts_match_golden(
    golden, golden_datasets, dataset_name, scheduler_name
):
    key = f"{dataset_name}/{scheduler_name}"
    assert key in golden, f"missing golden case {key} — run `make regen-golden`"
    relation = golden_datasets[dataset_name]
    for backend in BACKENDS:
        actual = run_case(relation, scheduler_name, backend)
        assert actual == golden[key][backend], (
            f"drift in {key} [{backend}]: got {actual}, golden "
            f"{golden[key][backend]} — if intentional, run `make "
            f"regen-golden` and commit the updated fixture"
        )


@pytest.mark.parametrize("key", sorted(EXTRA_CASES))
def test_extra_cases_match_golden(golden, golden_datasets, key):
    """Budgets, pruning levels, m-ary probing, round robin and noisy or
    faulty crowds: counts, budget fields and log digests are pinned."""
    assert key in golden, f"missing golden case {key} — run `make regen-golden`"
    case = EXTRA_CASES[key]
    budget = 0
    if case[1] == BUDGETED:
        budget = golden[serial_twin(key)]["reference"]["questions"] // 2
    relation = golden_datasets[case[0]]
    for backend in BACKENDS:
        actual = run_extra_case(relation, case, backend, budget)
        assert actual == golden[key][backend], (
            f"drift in {key} [{backend}]: got {actual}, golden "
            f"{golden[key][backend]} — if intentional, run `make "
            f"regen-golden` and commit the updated fixture"
        )


def test_golden_backends_agree(golden):
    """The committed fixture itself must be backend-consistent."""
    for key, per_backend in golden.items():
        for backend in BACKENDS:
            assert per_backend[backend] == per_backend["reference"], (
                f"{key} [{backend}]"
            )
