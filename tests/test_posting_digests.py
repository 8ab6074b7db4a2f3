"""Posting-path contract: what the crowd layer reports must not drift.

Every crowd posting is accounted in several outputs — the trace, the
metrics, ``CrowdStats``, the cost records, the question log and the
result's ``summary()``, ``round_table()`` and ``cost_breakdown()``. This
suite replays the seeded scenarios of
:data:`tests.regen_golden.POSTING_SCENARIOS` (every posting format,
fault and retry branch, both budget modes, the journal and its replay)
and compares a digest of each output against
``tests/fixtures/posting_digests.json``. After an *intentional* change
to what a posting reports, regenerate with ``make regen-golden`` and
commit the diff.
"""

import json

import pytest

from tests.regen_golden import (
    POSTING_DIGESTS_PATH,
    POSTING_SCENARIOS,
    record_posting,
)


@pytest.fixture(scope="module")
def digests():
    assert POSTING_DIGESTS_PATH.exists(), (
        "missing posting-digest fixture — run `make regen-golden` and "
        f"commit {POSTING_DIGESTS_PATH}"
    )
    return json.loads(POSTING_DIGESTS_PATH.read_text())


def test_fixture_covers_every_scenario(digests):
    assert sorted(digests) == sorted(POSTING_SCENARIOS)


@pytest.mark.parametrize("name", sorted(POSTING_SCENARIOS))
def test_posting_outputs_match_fixture(digests, name):
    actual = record_posting(name)
    moved = sorted(
        output
        for output in set(actual) | set(digests[name])
        if actual.get(output) != digests[name].get(output)
    )
    assert not moved, (
        f"{name}: {', '.join(moved)} drifted — if intentional, run "
        "`make regen-golden` and commit the updated fixture"
    )
