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

It also pins the trace's volume on two of the scenarios, which the
digest alone would let grow unseen.
"""

import json
import tempfile
from pathlib import Path

import pytest

from repro.obs import observe
from tests.regen_golden import (
    POSTING_DIGESTS_PATH,
    POSTING_SCENARIOS,
    normalised_trace,
    record_posting,
)

#: Caps on the normalised trace of a scenario, set just above the
#: recorded values: (records per posting, JSONL bytes per question).
#: Recorded: 21.10 and 1301.0 for the serial run, 35.67 and 934.3 for
#: the batched one. Raise a cap only for records that are meant to be
#: added to every posting.
TRACE_VOLUME_CAPS = {
    "crowdsky[perfect]": (21.2, 1310.0),
    "parallel_sl[noisy]": (35.7, 940.0),
}


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


@pytest.mark.parametrize("name", sorted(TRACE_VOLUME_CAPS))
def test_trace_volume_stays_under_its_caps(name):
    with tempfile.TemporaryDirectory() as scratch:
        with observe() as observation:
            result, _ = POSTING_SCENARIOS[name](Path(scratch))
    records = normalised_trace(observation.tracer.events)
    per_posting = len(records) / len(result.cost_records)
    jsonl_bytes = sum(
        len(json.dumps(record, separators=(",", ":"))) + 1
        for record in records
    )
    per_question = jsonl_bytes / result.stats.questions
    record_cap, byte_cap = TRACE_VOLUME_CAPS[name]
    assert per_posting < record_cap, (
        f"{name}: {per_posting:.2f} records per posting"
    )
    assert per_question < byte_cap, (
        f"{name}: {per_question:.1f} JSONL bytes per question"
    )
