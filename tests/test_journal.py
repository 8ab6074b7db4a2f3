"""Corruption-robustness suite for the write-ahead vote journal.

Per the durability contract (docs/durability.md): every corruption
shape — torn tail, interior checksum flip, duplicated posting epoch,
zero-byte interior segment, uncommitted group — recovers to the
longest valid prefix, surfaces a ``journal.recovered`` trace event,
and never raises. Plus writer mechanics: fresh-directory guard,
header-once, segment rotation, and the resumed-writer event dedupe.
"""

from __future__ import annotations

import json
from unittest import mock

import pytest

from repro.core.crowdsky import CrowdSkyConfig, crowdsky, crowdsky_budgeted
from repro.core.unary import unary_skyline
from repro.crowd import journal as journal_module
from repro.crowd.faults import FaultPlan
from repro.crowd.journal import (
    JournalWriter,
    _crc,
    recover_journal,
    segment_paths,
)
from repro.crowd.platform import SimulatedCrowd
from repro.crowd.retry import RetryPolicy
from repro.crowd.workers import WorkerPool
from repro.data.synthetic import generate_synthetic
from repro.exceptions import JournalError, JournalReplayError
from repro.obs import observe, read_trace_jsonl

pytestmark = pytest.mark.recovery


def journaled_run(tmp_path, name="wal", segment_bytes=4 * 1024 * 1024):
    """A complete noisy journaled run; returns (relation, dir, result)."""
    relation = generate_synthetic(24, 2, 1, seed=5)
    journal = tmp_path / name
    crowd = SimulatedCrowd(
        relation,
        pool=WorkerPool.uniform(size=25, accuracy=0.85),
        seed=9,
        journal=JournalWriter(journal, segment_bytes=segment_bytes),
    )
    result = crowdsky(relation, crowd)
    crowd.journal.close()
    return relation, journal, result


def record_lines(journal):
    """All record lines across segments, in journal order."""
    lines = []
    for segment in segment_paths(journal):
        lines.extend(segment.read_bytes().splitlines(keepends=True))
    return lines


# -- clean journals ----------------------------------------------------------


def test_clean_journal_recovers_fully(tmp_path):
    _, journal, result = journaled_run(tmp_path)
    recovered = recover_journal(journal)
    assert not recovered.truncated
    assert recovered.problems == []
    assert recovered.header is not None
    assert recovered.header["algorithm"] == "crowdsky"
    assert recovered.postings
    assert recovered.last_epoch == len(recovered.postings)
    assert recovered.dropped_records == 0


def test_segment_rotation_preserves_the_journal(tmp_path):
    _, journal, _ = journaled_run(tmp_path, segment_bytes=700)
    segments = segment_paths(journal)
    assert len(segments) > 2
    recovered = recover_journal(journal)
    assert not recovered.truncated
    baseline = recover_journal(journaled_run(tmp_path, name="ref")[1])
    assert recovered.postings == baseline.postings


def test_fresh_writer_refuses_nonempty_directory(tmp_path):
    _, journal, _ = journaled_run(tmp_path)
    with pytest.raises(JournalError, match="recover and resume"):
        JournalWriter(journal)


def test_header_is_write_once(tmp_path):
    with JournalWriter(tmp_path / "wal") as writer:
        writer.write_header({"algorithm": "x"})
        with pytest.raises(JournalError, match="already written"):
            writer.write_header({"algorithm": "x"})
        with pytest.raises(JournalError, match="standalone"):
            writer.append_event("post", {})


# -- record encoding ---------------------------------------------------------


def two_dump_encode(seq, epoch, type, data):
    """The record line as two ``json.dumps`` calls, one for the checksum
    payload and one for the record, each serialising ``data``."""
    record = {
        "seq": seq,
        "epoch": epoch,
        "type": type,
        "data": data,
        "crc": _crc(seq, epoch, type, data),
    }
    return (
        json.dumps(record, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode("utf-8")


def test_encode_matches_two_dump_encoding_for_every_record_type(tmp_path):
    """Every record the writer emits — pairwise, multiway and unary
    postings, fault records, a budget denial, and a header and note
    carrying non-ASCII text and floats — encodes to the same bytes as
    the two-dump version, and the journals recover cleanly."""
    real_encode = journal_module._encode
    seen = set()

    def checked(seq, epoch, type, data):
        line = real_encode(seq, epoch, type, data)
        assert line == two_dump_encode(seq, epoch, type, data)
        seen.add(type)
        return line

    relation = generate_synthetic(24, 2, 1, seed=5)
    pool = WorkerPool.uniform(size=25, accuracy=0.85)
    faults = FaultPlan(
        abandonment_rate=0.05,
        hit_timeout_rate=0.04,
        transient_error_rate=0.04,
        spam_burst_rate=0.03,
        seed=13,
    )
    runs = {
        "faulty": (
            dict(faults=faults, retry=RetryPolicy(max_attempts=4)),
            lambda crowd: crowdsky(relation, crowd),
        ),
        "budgeted": (
            dict(strict=False),
            lambda crowd: crowdsky_budgeted(relation, 10, crowd),
        ),
        "multiway": (
            {},
            lambda crowd: crowdsky(
                relation, crowd, CrowdSkyConfig(multiway=4)
            ),
        ),
        "unary": ({}, lambda crowd: unary_skyline(relation, crowd)),
    }
    with mock.patch.object(journal_module, "_encode", checked):
        for name, (options, run) in runs.items():
            crowd = SimulatedCrowd(
                relation, pool=pool, seed=9,
                journal=JournalWriter(tmp_path / name), **options,
            )
            run(crowd)
            crowd.journal.close()
        with JournalWriter(tmp_path / "note") as writer:
            writer.write_header(
                {"name": "Zoë — ☃", "scale": 0.1, "tiny": 5e-324,
                 "big": 1.7976931348623157e308, "zero": -0.0}
            )
            writer.append_event(
                "note",
                {"text": "naïve café ✓", "ratio": 2 / 3,
                 "nested": {"b": [1.5, "ü", None], "a": True}},
            )
    assert seen == {
        "header", "post", "vote", "fault", "verdict", "commit",
        "budget", "note",
    }
    for name in [*runs, "note"]:
        recovered = recover_journal(tmp_path / name)
        assert not recovered.truncated
        assert recovered.problems == []


# -- corruption matrix -------------------------------------------------------


def test_torn_tail_recovers_longest_prefix(tmp_path):
    _, journal, _ = journaled_run(tmp_path)
    whole = recover_journal(journal)
    segment = segment_paths(journal)[-1]
    segment.write_bytes(segment.read_bytes()[:-7])
    recovered = recover_journal(journal, heal=True)
    assert recovered.truncated
    assert any("torn" in p or "uncommitted" in p for p in recovered.problems)
    assert len(recovered.postings) < len(whole.postings)
    assert recovered.postings == whole.postings[: len(recovered.postings)]
    # Healing makes the prefix physical: a re-scan is clean again.
    healed = recover_journal(journal)
    assert not healed.truncated
    assert healed.postings == recovered.postings


def test_interior_checksum_flip_stops_the_scan(tmp_path):
    _, journal, _ = journaled_run(tmp_path)
    whole = recover_journal(journal)
    segment = segment_paths(journal)[0]
    lines = segment.read_bytes().splitlines(keepends=True)
    victim = len(lines) // 2
    corrupt = lines[victim].replace(b'"crc":', b'"crx":', 1)
    segment.write_bytes(b"".join(lines[:victim] + [corrupt] + lines[victim + 1:]))
    recovered = recover_journal(journal, heal=False)
    assert recovered.truncated
    assert any("checksum" in p or "malformed" in p for p in recovered.problems)
    assert len(recovered.postings) < len(whole.postings)
    assert recovered.postings == whole.postings[: len(recovered.postings)]


def test_duplicated_posting_epoch_is_rejected(tmp_path):
    _, journal, _ = journaled_run(tmp_path)
    segment = segment_paths(journal)[0]
    lines = segment.read_bytes().splitlines(keepends=True)
    records = [json.loads(line) for line in lines]
    posts = [i for i, r in enumerate(records) if r["type"] == "post"]
    assert len(posts) >= 2
    # Rewind the second posting's epoch with a *valid* checksum, so
    # only the monotonic-epoch rule can catch it.
    clone = records[posts[1]]
    clone["epoch"] = records[posts[0]]["epoch"]
    clone["crc"] = _crc(
        clone["seq"], clone["epoch"], clone["type"], clone["data"]
    )
    lines[posts[1]] = (
        json.dumps(clone, sort_keys=True, separators=(",", ":")) + "\n"
    ).encode()
    segment.write_bytes(b"".join(lines))
    recovered = recover_journal(journal, heal=False)
    assert recovered.truncated
    assert any("epoch" in p for p in recovered.problems)
    assert len(recovered.postings) == 1


def test_zero_byte_interior_segment_ends_the_prefix(tmp_path):
    _, journal, _ = journaled_run(tmp_path, segment_bytes=700)
    segments = segment_paths(journal)
    assert len(segments) >= 3
    before = recover_journal(journal)
    segments[1].write_bytes(b"")
    recovered = recover_journal(journal, heal=True)
    assert recovered.truncated
    assert any("empty segment" in p for p in recovered.problems)
    assert 0 < len(recovered.postings) < len(before.postings)
    # Heal removed the empty segment and everything after it.
    healed = recover_journal(journal)
    assert not healed.truncated
    assert healed.postings == recovered.postings


def test_empty_journal_directory_is_not_an_error(tmp_path):
    empty = tmp_path / "nothing"
    empty.mkdir()
    recovered = recover_journal(empty)
    assert not recovered.truncated
    assert recovered.header is None
    assert recovered.postings == []


def test_recovery_emits_journal_recovered_event(tmp_path):
    _, journal, _ = journaled_run(tmp_path)
    segment = segment_paths(journal)[-1]
    segment.write_bytes(segment.read_bytes()[:-5])
    trace = tmp_path / "trace.jsonl"
    with observe(trace_path=str(trace)):
        recover_journal(journal)
    events = [
        e for e in read_trace_jsonl(str(trace))
        if e.get("name") == "journal.recovered"
    ]
    assert len(events) == 1
    attrs = events[0]["attrs"]
    assert attrs["epochs"] >= 1
    assert attrs["dropped"] >= 1
    assert attrs["records"] >= 1
    assert "reason" in attrs


# -- resumed-writer mechanics ------------------------------------------------


def test_resumed_writer_dedupes_replayed_events(tmp_path):
    journal = tmp_path / "wal"
    with JournalWriter(journal) as writer:
        writer.write_header({"algorithm": "x"})
        assert writer.append_event("note", {"k": 1}) == 1

    resumed = JournalWriter.resume(recover_journal(journal))
    # The re-execution re-emits the already-durable event: no write.
    assert resumed.append_event("note", {"k": 1}) == 0
    # Past the recovered prefix, events are fresh again.
    assert resumed.append_event("note", {"k": 2}) == 1
    resumed.close()
    recovered = recover_journal(journal)
    assert [e["data"] for e in recovered.events] == [{"k": 1}, {"k": 2}]


def test_resumed_writer_rejects_diverging_events(tmp_path):
    journal = tmp_path / "wal"
    with JournalWriter(journal) as writer:
        writer.write_header({"algorithm": "x"})
        writer.append_event("note", {"k": 1})
    resumed = JournalWriter.resume(recover_journal(journal))
    with pytest.raises(JournalReplayError, match="diverged"):
        resumed.append_event("note", {"k": 999})
    resumed.close()
