"""Crash-injection differential suite: resume is byte-identical.

The durability contract (docs/durability.md): for a fixed
``(config, seed)``, killing a journaled run at *every* journaled
write point and resuming must yield a ``CrowdSkylineResult`` equal to
the uninterrupted run's in every field, and a journal whose bytes are
identical to the uninterrupted journal. The suite simulates the kill
by truncating a completed run's journal at each record boundary (plus
torn mid-record cuts) and resuming from the prefix — exactly the disk
state an ill-timed ``kill -9`` leaves behind, since the writer fsyncs
record groups in order.

Also covered: pure replay (zero fresh questions, enforced by
raising), the relation fingerprint guard, header-less journals,
hand-built crowds that need an explicit equivalent platform, and
recorded journals whose headers hold config keys the config no longer
has (the three shard keys, and the ``policy`` and ``backend`` keys of
the closure switches).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.crowdsky import CrowdSkyConfig, crowdsky, crowdsky_budgeted
from repro.core.parallel import parallel_dset
from repro.core.resume import replay_run, resume_run
from repro.core.result import CrowdSkylineResult
from repro.crowd.hits import HitLedger
from repro.crowd.faults import FaultPlan
from repro.crowd.journal import recover_journal, segment_paths
from repro.crowd.platform import SimulatedCrowd
from repro.crowd.retry import RetryPolicy
from repro.crowd.workers import BernoulliWorker, WorkerPool
from repro.data.synthetic import generate_synthetic
from repro.data.toy import figure1_dataset
from repro.exceptions import JournalError, JournalReplayError

pytestmark = pytest.mark.recovery


def _relation():
    return generate_synthetic(24, 2, 1, seed=5)


def _noisy_crowd(relation, journal):
    """Workers, faults and retries all active: the richest journal."""
    return SimulatedCrowd(
        relation,
        pool=WorkerPool.uniform(size=25, accuracy=0.85),
        seed=9,
        journal=journal,
        faults=FaultPlan(
            abandonment_rate=0.05,
            hit_timeout_rate=0.04,
            transient_error_rate=0.04,
            spam_burst_rate=0.03,
            seed=13,
        ),
        retry=RetryPolicy(max_attempts=4),
    )


SCENARIOS = {
    "noisy": (
        _relation,
        _noisy_crowd,
        lambda relation, crowd: crowdsky(relation, crowd),
    ),
    "budgeted": (
        _relation,
        lambda relation, journal: SimulatedCrowd(
            relation,
            pool=WorkerPool.uniform(size=25, accuracy=0.85),
            seed=9,
            journal=journal,
            strict=False,
        ),
        lambda relation, crowd: crowdsky_budgeted(relation, 40, crowd),
    ),
    "multiway": (
        _relation,
        lambda relation, journal: SimulatedCrowd(
            relation,
            pool=WorkerPool.uniform(size=25, accuracy=0.9),
            seed=3,
            journal=journal,
        ),
        lambda relation, crowd: crowdsky(
            relation, crowd, CrowdSkyConfig(multiway=4)
        ),
    ),
    "parallel_dset": (
        _relation,
        lambda relation, journal: SimulatedCrowd(
            relation,
            pool=WorkerPool.uniform(size=25, accuracy=0.9),
            seed=7,
            journal=journal,
            ledger=HitLedger(seed=8),
        ),
        lambda relation, crowd: parallel_dset(relation, crowd),
    ),
}


def run_scenario(name, journal):
    make_relation, make_crowd, run = SCENARIOS[name]
    relation = make_relation()
    crowd = make_crowd(relation, journal)
    result = run(relation, crowd)
    if crowd.journal is not None:
        crowd.journal.close()
    return relation, result


def journal_bytes(journal):
    return b"".join(p.read_bytes() for p in segment_paths(journal))


def record_boundaries(raw):
    """Byte offsets just after each record write, in order."""
    points, offset = [], 0
    while True:
        newline = raw.find(b"\n", offset)
        if newline < 0:
            return points
        offset = newline + 1
        points.append(offset)


def crash_at(tmp_path, name, raw, cut):
    """The journal directory an ill-timed kill leaves: ``raw[:cut]``."""
    crashed = tmp_path / name
    crashed.mkdir()
    (crashed / "wal-000001.jsonl").write_bytes(raw[:cut])
    return crashed


def assert_same_result(
    resumed: CrowdSkylineResult, baseline: CrowdSkylineResult
) -> None:
    assert resumed.skyline == baseline.skyline
    assert resumed.algorithm == baseline.algorithm
    assert resumed.question_log == baseline.question_log
    assert resumed.stats == baseline.stats
    assert resumed.rejected_answers == baseline.rejected_answers
    assert resumed.degraded == baseline.degraded
    assert resumed.unresolved_pairs == baseline.unresolved_pairs
    assert resumed.budget_exhausted == baseline.budget_exhausted
    assert resumed.complete_tuples == baseline.complete_tuples
    assert resumed.fault_stats == baseline.fault_stats


# -- the differential harness ------------------------------------------------


def test_crash_at_every_write_point_resumes_byte_identical(tmp_path):
    """The tentpole proof, at full resolution for the richest run:
    a kill after *any* journaled write resumes to the identical run."""
    relation, baseline = run_scenario("noisy", tmp_path / "base")
    raw = journal_bytes(tmp_path / "base")
    boundaries = record_boundaries(raw)
    assert len(boundaries) > 50
    for index, cut in enumerate(boundaries):
        crashed = crash_at(tmp_path, f"cut{index}", raw, cut)
        resumed = resume_run(crashed, relation)
        assert_same_result(resumed, baseline)
        assert journal_bytes(crashed) == raw, f"cut after record {index}"


@pytest.mark.parametrize(
    "scenario", ["budgeted", "multiway", "parallel_dset"]
)
def test_crash_resume_differential_per_scenario(tmp_path, scenario):
    """Sampled write points for every other scheduler/crowd shape."""
    relation, baseline = run_scenario(scenario, tmp_path / "base")
    raw = journal_bytes(tmp_path / "base")
    boundaries = record_boundaries(raw)
    samples = sorted(
        {boundaries[0], boundaries[len(boundaries) // 3],
         boundaries[2 * len(boundaries) // 3], boundaries[-1]}
    )
    for index, cut in enumerate(samples):
        crashed = crash_at(tmp_path, f"cut{index}", raw, cut)
        resumed = resume_run(crashed, relation)
        assert_same_result(resumed, baseline)
        assert journal_bytes(crashed) == raw


def test_torn_mid_record_crashes_resume_byte_identical(tmp_path):
    """A kill *during* a write leaves a torn half-record; healing
    drops it and the resume still converges to the identical run."""
    relation, baseline = run_scenario("noisy", tmp_path / "base")
    raw = journal_bytes(tmp_path / "base")
    boundaries = record_boundaries(raw)
    for index, boundary in enumerate(
        [boundaries[0], boundaries[len(boundaries) // 2], boundaries[-2]]
    ):
        crashed = crash_at(tmp_path, f"torn{index}", raw, boundary + 11)
        resumed = resume_run(crashed, relation)
        assert_same_result(resumed, baseline)
        assert journal_bytes(crashed) == raw


# -- headers with removed config keys ---------------------------------------

#: Journals of the ``noisy`` scenario's crowd, recorded while
#: ``CrowdSkyConfig`` still had ``shards``, ``shard_jobs`` and
#: ``shard_partitioner`` fields, by name: the header config those keys
#: held. Both headers also hold the ``policy`` and ``backend`` keys of
#: the closure switches, at :data:`GRAPH_KEYS`.
SHARD_KEY_JOURNALS = {
    "serial": {"shards": 1, "shard_jobs": 1, "shard_partitioner": "range"},
    "shards3_hash": {
        "shards": 3, "shard_jobs": 1, "shard_partitioner": "hash",
    },
}


#: The closure keys every header held before the config lost its
#: ``policy`` and ``backend`` fields: the first answer wins, and the
#: graph was not named.
GRAPH_KEYS = {"policy": "keep_first", "backend": None}


def header_config(raw):
    """The config recorded in a journal's header record."""
    return json.loads(raw.split(b"\n", 1)[0])["data"]["run"]["config"]


@pytest.mark.parametrize("name", sorted(SHARD_KEY_JOURNALS))
def test_header_with_shard_keys_resumes_byte_identical(tmp_path, name):
    """The shard keys named a second way to build the same dominance
    matrix, and the closure keys the one closure graph and contradiction
    rule the program has, so a journal that holds them, torn
    mid-record, resumes to the run the code makes uninterrupted today
    and continues to the recorded bytes; only the header differs from a
    fresh journal."""
    raw = (
        Path(__file__).parent / "fixtures" / "shard_key_journals"
        / f"{name}.jsonl"
    ).read_bytes()
    records = raw.split(b"\n", 1)[1]
    config = header_config(raw)
    assert {key: config[key] for key in SHARD_KEY_JOURNALS[name]} == (
        SHARD_KEY_JOURNALS[name]
    )
    assert {key: config[key] for key in GRAPH_KEYS} == GRAPH_KEYS
    relation, baseline = run_scenario("noisy", tmp_path / "fresh")
    assert journal_bytes(tmp_path / "fresh").split(b"\n", 1)[1] == records
    boundaries = record_boundaries(raw)
    for index, boundary in enumerate(
        [boundaries[0], boundaries[len(boundaries) // 2], boundaries[-2]]
    ):
        crashed = crash_at(tmp_path, f"torn{index}", raw, boundary + 11)
        resumed = resume_run(crashed, relation)
        assert_same_result(resumed, baseline)
        assert journal_bytes(crashed) == raw, f"cut {index}"


def test_fresh_header_holds_only_the_config_fields(tmp_path):
    """A fresh header records the config's four fields, and neither
    closure key: no run names its closure graph or its contradiction
    rule."""
    run_scenario("noisy", tmp_path / "fresh")
    config = header_config(journal_bytes(tmp_path / "fresh"))
    assert not GRAPH_KEYS.keys() & config.keys()
    assert config == CrowdSkyConfig().to_payload()


# -- pure replay -------------------------------------------------------------


def test_replay_is_free_and_identical(tmp_path):
    relation, baseline = run_scenario("noisy", tmp_path / "base")
    raw = journal_bytes(tmp_path / "base")
    replayed = replay_run(tmp_path / "base", relation)
    assert_same_result(replayed, baseline)
    # No writer is attached in replay mode: not a byte changed.
    assert journal_bytes(tmp_path / "base") == raw


def test_replay_of_a_truncated_journal_refuses_fresh_questions(tmp_path):
    """Replay mode has no live crowd: a journal missing its tail
    forces a fresh question, which must raise instead of spending."""
    relation, _ = run_scenario("noisy", tmp_path / "base")
    raw = journal_bytes(tmp_path / "base")
    boundaries = record_boundaries(raw)
    crashed = crash_at(
        tmp_path, "partial", raw, boundaries[len(boundaries) // 2]
    )
    with pytest.raises(JournalReplayError):
        replay_run(crashed, relation)


# -- guards ------------------------------------------------------------------


def test_resume_rejects_a_different_relation(tmp_path):
    _, _ = run_scenario("noisy", tmp_path / "base")
    with pytest.raises(JournalReplayError, match="fingerprint"):
        resume_run(tmp_path / "base", figure1_dataset())


def test_resume_requires_a_header(tmp_path):
    empty = tmp_path / "empty"
    empty.mkdir()
    with pytest.raises(JournalError, match="no header"):
        resume_run(empty, _relation())


def test_handbuilt_crowd_requires_explicit_equivalent(tmp_path):
    """A pool without a construction recipe journals ``spec: null``;
    resume then needs the caller to supply the equivalent platform."""
    relation = _relation()

    def handbuilt(journal):
        return SimulatedCrowd(
            relation,
            pool=WorkerPool([BernoulliWorker(accuracy=0.9)]),
            seed=4,
            journal=journal,
        )

    crowd = handbuilt(tmp_path / "base")
    baseline = crowdsky(relation, crowd)
    crowd.journal.close()
    raw = journal_bytes(tmp_path / "base")
    boundaries = record_boundaries(raw)
    crashed = crash_at(
        tmp_path, "cut", raw, boundaries[len(boundaries) // 2]
    )
    with pytest.raises(JournalError, match="no crowd recipe"):
        resume_run(crashed, relation)
    resumed = resume_run(crashed, relation, crowd=handbuilt(None))
    assert_same_result(resumed, baseline)
    assert journal_bytes(crashed) == raw


def test_recovered_journal_object_is_accepted_directly(tmp_path):
    relation, baseline = run_scenario("noisy", tmp_path / "base")
    recovered = recover_journal(tmp_path / "base")
    assert_same_result(replay_run(recovered, relation), baseline)
