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
digest alone would let grow unseen, and the trace's layout: each step
of a posting is one span that carries its own counts.
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
#: Recorded: 10.62 and 686.5 for the serial run, 14.08 and 377.6 for
#: the batched one. Raise a cap only for records that are meant to be
#: added to every posting.
TRACE_VOLUME_CAPS = {
    "crowdsky[perfect]": (10.7, 690.0),
    "parallel_sl[noisy]": (14.1, 380.0),
}

#: Records no posting emits: votes are kept by the journal, not the
#: trace, and a batch's counts ride on its ``engine.ask_batch`` and
#: ``pref.apply_verdicts`` spans.
DELETED_RECORDS = frozenset(
    {"crowd.vote", "engine.batch", "pref.batch", "engine.apply_answers"}
)

#: The entry points that run ``repro.core.crowdsky.Evaluation``.
EVALUATION_SCHEDULERS = (
    "crowdsky", "crowdsky_budgeted", "parallel_dset", "parallel_sl",
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


def _traced(name):
    """Run one posting scenario under a fresh observation; return its
    result and trace."""
    with tempfile.TemporaryDirectory() as scratch:
        with observe() as observation:
            result, _ = POSTING_SCENARIOS[name](Path(scratch))
    return result, observation.tracer.events


@pytest.mark.parametrize("name", sorted(TRACE_VOLUME_CAPS))
def test_trace_volume_stays_under_its_caps(name):
    result, events = _traced(name)
    records = normalised_trace(events)
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


@pytest.mark.parametrize("name", sorted(POSTING_SCENARIOS))
def test_each_posting_step_is_one_span(name):
    _, events = _traced(name)
    assert not DELETED_RECORDS & {record["name"] for record in events}
    starts = {
        record["span"]: record
        for record in events
        if record["kind"] == "span_start"
    }

    def ancestors(record):
        names = set()
        parent = record["parent"]
        while parent is not None:
            names.add(starts[parent]["name"])
            parent = starts[parent]["parent"]
        return names

    evaluated = 0
    for record in starts.values():
        if record["name"] == "pref.apply_verdicts":
            assert "accepted" in record["attrs"], name
        if record["name"] in ("crowd.post", "pref.apply_verdicts"):
            above = ancestors(record)
            if "phase.evaluate" in above:
                evaluated += 1
                assert "engine.ask_batch" in above, (
                    f"{name}: a {record['name']} span of the evaluate "
                    "phase is outside every engine.ask_batch span"
                )
    # Every Evaluation scheduler posts its rounds in the evaluate phase.
    assert bool(evaluated) == (
        name.split("[")[0] in EVALUATION_SCHEDULERS
    ), name
