"""The write-ahead vote journal: durable crowd runs.

A crowd run spends money and wall-clock on answers; a process crash
must not throw them away. When a journal is attached to
:class:`~repro.crowd.platform.SimulatedCrowd`, every *posting* — one
backend execution of a pairwise/multiway/unary batch — is appended as
a group of checksummed records **before** its results are applied,
and fsynced as a unit (fsync-on-round). A crashed run therefore
leaves a journal whose committed prefix is exactly the set of rounds
whose answers were paid for, and
:func:`repro.core.resume.resume_run` re-executes the run with a
:class:`~repro.crowd.backends.ReplayBackend` serving that prefix —
deterministically, at zero cost, asking zero fresh questions.

Format. A journal is a directory of append-only segments
(``wal-000001.jsonl`` …), each a sequence of JSON records::

    {"seq": n, "epoch": e, "type": t, "data": {...}, "crc": c}

``seq`` increases by one per record across the whole journal; ``crc``
is a CRC-32 over the canonical serialization of the other fields. A
posting is the group ``post`` (question keys, format), then one
``vote`` / ``fault`` / ``verdict`` record per question, closed by a
``commit`` record snapshotting the backend state (RNG positions,
fault tallies). ``epoch`` is the monotonic posting counter: every
``post`` opens epoch ``e+1`` and only a matching ``commit`` makes it
durable. ``header`` and ``budget`` records stand alone between
postings. Segments rotate at posting boundaries, so no group ever
spans two files.

Recovery. :func:`recover_journal` scans segments in order and keeps
the longest valid prefix: records with correct checksums, strictly
increasing ``seq``, strictly increasing posting epochs, and properly
closed groups. Anything after the first violation — a torn tail from
a mid-write crash, a flipped bit, a duplicated epoch, a zero-byte
segment — is dropped; with ``heal=True`` the surviving prefix is
rewritten in place (atomically, via :mod:`repro.io.atomic`) so the
journal is append-ready again. Dropping anything surfaces a
``journal.recovered`` trace event; recovery never raises on corrupt
content.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple, Union

from repro.crowd.backends import (
    MultiwayOutcome,
    PairwiseOutcome,
    RecordedPosting,
    STATUS_ANSWERED,
    UnaryOutcome,
)
from repro.exceptions import JournalError, JournalReplayError
from repro.io.atomic import atomic_write_bytes, fsync_dir
from repro.obs import current_observation
from repro.obs.logging import get_logger
from repro.questions import Preference

#: Bump when the record layout changes (refuses to resume across).
JOURNAL_VERSION = 1

#: Segment filename pattern: ``wal-<6-digit index>.jsonl``.
SEGMENT_PREFIX = "wal-"
SEGMENT_SUFFIX = ".jsonl"

#: Default segment rotation threshold.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024

_GROUP_TYPES = frozenset({"vote", "fault", "verdict"})
_STANDALONE_TYPES = frozenset({"header", "budget", "note"})

_log = get_logger(__name__)

#: The canonical serialization: ``json.dumps(..., sort_keys=True,
#: separators=(",", ":"))``, with one encoder built once instead of
#: one per call. The encoder keeps no state between calls.
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def _crc(seq: int, epoch: int, type: str, data: Any) -> int:
    payload = _CANONICAL.encode([seq, epoch, type, data])
    return zlib.crc32(payload.encode("utf-8")) & 0xFFFFFFFF


def _encode(seq: int, epoch: int, type: str, data: Any) -> bytes:
    """One record line: the bytes of the canonical serialization of
    ``{seq, epoch, type, data, crc}``, with ``data`` serialised once
    for both the checksum payload and the record. Record types are
    plain identifiers, so they need no escaping."""
    body = _CANONICAL.encode(data)
    crc = zlib.crc32(
        f'[{seq},{epoch},"{type}",{body}]'.encode("utf-8")
    ) & 0xFFFFFFFF
    return (
        f'{{"crc":{crc},"data":{body},"epoch":{epoch},"seq":{seq},'
        f'"type":"{type}"}}\n'
    ).encode("utf-8")


def segment_name(index: int) -> str:
    """Filename of the ``index``-th segment (1-based)."""
    return f"{SEGMENT_PREFIX}{index:06d}{SEGMENT_SUFFIX}"


def segment_paths(directory: Union[str, Path]) -> List[Path]:
    """The journal's segment files, in journal order."""
    root = Path(directory)
    if not root.is_dir():
        return []
    return [
        p
        for p in sorted(root.iterdir())
        if p.name.startswith(SEGMENT_PREFIX)
        and p.name.endswith(SEGMENT_SUFFIX)
    ]


# -- outcome (de)serialization ------------------------------------------------


def _key_to_json(format: str, key: Tuple) -> List:
    if format == "multiway":
        return [[int(c) for c in key[0]], int(key[1])]
    return [int(x) for x in key]


def _key_from_json(format: str, raw: List) -> Tuple:
    if format == "multiway":
        return (tuple(int(c) for c in raw[0]), int(raw[1]))
    return tuple(int(x) for x in raw)


def _outcome_records(
    format: str, outcomes: List[Any]
) -> Iterator[Tuple[str, Dict[str, Any]]]:
    """The per-question records of one posting, in outcome order."""
    for outcome in outcomes:
        q = _key_to_json(format, outcome.key)
        if format == "pairwise":
            if outcome.votes:
                yield "vote", {
                    "q": q,
                    "votes": [v.value for v in outcome.votes],
                }
            if outcome.status != STATUS_ANSWERED:
                yield "fault", {"q": q, "kind": outcome.status}
            elif outcome.spam:
                yield "fault", {"q": q, "kind": "spam"}
            yield "verdict", {
                "q": q,
                "status": outcome.status,
                "omega": outcome.omega,
                "answer": (
                    outcome.answer.value
                    if outcome.answer is not None
                    else None
                ),
                "degraded": outcome.degraded,
                "spam": outcome.spam,
            }
        elif format == "multiway":
            yield "vote", {"q": q, "votes": [int(v) for v in outcome.votes]}
            yield "verdict", {
                "q": q,
                "omega": outcome.omega,
                "winner": int(outcome.winner),
            }
        else:  # unary
            yield "vote", {
                "q": q,
                "votes": [float(e) for e in outcome.estimates],
            }
            yield "verdict", {
                "q": q,
                "omega": outcome.omega,
                "value": float(outcome.value),
            }


def _outcomes_from_group(
    format: str, records: List[Dict[str, Any]]
) -> List[Any]:
    """Rebuild backend outcomes from one posting's record group."""
    votes_by_key: Dict[Tuple, List] = {}
    outcomes: List[Any] = []
    for record in records:
        data = record["data"]
        key = _key_from_json(format, data["q"])
        if record["type"] == "vote":
            votes_by_key[key] = data["votes"]
        elif record["type"] == "verdict":
            if format == "pairwise":
                raw_votes = votes_by_key.get(key, [])
                answer = data.get("answer")
                outcomes.append(
                    PairwiseOutcome(
                        key=key,
                        status=data["status"],
                        omega=int(data["omega"]),
                        votes=[Preference(v) for v in raw_votes],
                        answer=(
                            Preference(answer)
                            if answer is not None
                            else None
                        ),
                        degraded=bool(data["degraded"]),
                        spam=bool(data["spam"]),
                    )
                )
            elif format == "multiway":
                outcomes.append(
                    MultiwayOutcome(
                        key=key,
                        omega=int(data["omega"]),
                        votes=[
                            int(v) for v in votes_by_key.get(key, [])
                        ],
                        winner=int(data["winner"]),
                    )
                )
            else:  # unary
                outcomes.append(
                    UnaryOutcome(
                        key=key,
                        omega=int(data["omega"]),
                        estimates=[
                            float(v) for v in votes_by_key.get(key, [])
                        ],
                        value=float(data["value"]),
                    )
                )
    return outcomes


# -- recovery -----------------------------------------------------------------


@dataclass
class RecoveredJournal:
    """Everything salvaged from a journal directory."""

    directory: Path
    header: Optional[Dict[str, Any]] = None
    postings: List[RecordedPosting] = field(default_factory=list)
    #: Standalone records other than the header (budget decisions …).
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: Backend snapshot of the last committed posting (None when no
    #: posting committed — resume starts from the header state).
    last_state: Optional[Dict[str, Any]] = None
    #: Continuation points for an appending writer.
    last_seq: int = 0
    last_epoch: int = 0
    #: Whether anything invalid was found (and, with ``heal``, dropped).
    truncated: bool = False
    problems: List[str] = field(default_factory=list)
    #: Records kept / dropped across all segments.
    kept_records: int = 0
    dropped_records: int = 0


class _Scanner:
    """Single pass over the segment files, tracking validity."""

    def __init__(self) -> None:
        self.result: Optional[RecoveredJournal] = None
        self.last_seq = 0
        self.last_post_epoch = 0
        self.open_group: Optional[Dict[str, Any]] = None

    def feed(self, record: Dict[str, Any]) -> Optional[str]:
        """Apply one structurally valid record; returns a problem
        string (stop scanning) or None (record accepted)."""
        assert self.result is not None
        seq, epoch = record["seq"], record["epoch"]
        type = record["type"]
        if seq != self.last_seq + 1:
            return f"seq jumped from {self.last_seq} to {seq}"
        if type == "post":
            if self.open_group is not None:
                return "post inside an open posting group"
            if epoch != self.last_post_epoch + 1:
                return (
                    f"posting epoch {epoch} after epoch "
                    f"{self.last_post_epoch} (duplicated or skipped)"
                )
            self.open_group = {"post": record, "records": []}
        elif type in _GROUP_TYPES:
            if self.open_group is None:
                return f"{type} record outside a posting group"
            self.open_group["records"].append(record)
        elif type == "commit":
            if self.open_group is None:
                return "commit without an open posting group"
            post = self.open_group["post"]
            if epoch != post["epoch"]:
                return (
                    f"commit epoch {epoch} does not match posting "
                    f"epoch {post['epoch']}"
                )
            data = post["data"]
            format = data["format"]
            self.result.postings.append(
                RecordedPosting(
                    epoch=epoch,
                    format=format,
                    keys=[
                        _key_from_json(format, raw)
                        for raw in data["keys"]
                    ],
                    outcomes=_outcomes_from_group(
                        format, self.open_group["records"]
                    ),
                    state=record["data"]["state"],
                    retried=int(data.get("retried", 0)),
                    omega=data.get("omega"),
                )
            )
            self.result.last_state = record["data"]["state"]
            self.last_post_epoch = epoch
            self.open_group = None
        elif type in _STANDALONE_TYPES:
            if self.open_group is not None:
                return f"{type} record inside a posting group"
            if type == "header":
                if self.result.header is not None:
                    return "second header record"
                self.result.header = record["data"]
            else:
                self.result.events.append(record)
        else:
            return f"unknown record type {type!r}"
        self.last_seq = seq
        return None


def _parse_line(line: bytes) -> Optional[Dict[str, Any]]:
    """Decode and checksum one record line; None when invalid."""
    try:
        record = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(record, dict):
        return None
    for name in ("seq", "epoch", "crc"):
        if not isinstance(record.get(name), int):
            return None
    if not isinstance(record.get("type"), str) or "data" not in record:
        return None
    expected = _crc(
        record["seq"], record["epoch"], record["type"], record["data"]
    )
    if record["crc"] != expected:
        return None
    return record


def recover_journal(
    directory: Union[str, Path], heal: bool = True
) -> RecoveredJournal:
    """Salvage the longest valid prefix of a journal directory.

    Scans segments in order; the first invalid byte — torn tail, bad
    checksum, seq/epoch regression, unterminated posting group — ends
    the valid prefix. With ``heal=True`` the prefix is made physical:
    the offending segment is atomically rewritten to its valid length
    (empty segments are removed) and all later segments deleted, so a
    writer can append again. Emits a ``journal.recovered`` trace event
    when anything was dropped. Never raises on corrupt content.
    """
    root = Path(directory)
    scanner = _Scanner()
    result = RecoveredJournal(directory=root)
    scanner.result = result
    #: Per segment: byte offset of the last *safe boundary* (end of a
    #: committed group or standalone record).
    segments = segment_paths(root)
    boundaries: Dict[Path, int] = {}
    stopped = False
    safe_seq = 0
    for segment in segments:
        if stopped:
            result.dropped_records += segment.read_bytes().count(b"\n")
            continue
        raw = segment.read_bytes()
        offset = 0
        safe = 0
        safe_records = result.kept_records
        pending = 0
        while offset < len(raw):
            newline = raw.find(b"\n", offset)
            if newline < 0:
                result.problems.append(
                    f"{segment.name}: torn record at byte {offset}"
                )
                stopped = True
                break
            line = raw[offset:newline]
            record = _parse_line(line)
            if record is None:
                result.problems.append(
                    f"{segment.name}: bad checksum or malformed record "
                    f"at byte {offset}"
                )
                stopped = True
                break
            problem = scanner.feed(record)
            if problem is not None:
                result.problems.append(f"{segment.name}: {problem}")
                stopped = True
                break
            offset = newline + 1
            pending += 1
            if scanner.open_group is None:
                safe = offset
                safe_records += pending
                safe_seq = scanner.last_seq
                pending = 0
        if not stopped and scanner.open_group is not None:
            # Clean EOF mid-group: the posting never committed.
            result.problems.append(
                f"{segment.name}: uncommitted posting group at tail"
            )
            stopped = True
        if stopped:
            # Roll back the scanner past the unsafe suffix: the group
            # being assembled never committed, so derived state
            # (postings, last_state, epochs) is already correct — only
            # the open group must be discarded.
            scanner.open_group = None
            result.dropped_records += pending
        result.kept_records = safe_records
        boundaries[segment] = safe
        if not stopped and len(raw) == 0 and segment != segments[-1]:
            # An interior zero-byte segment breaks append continuity.
            result.problems.append(f"{segment.name}: empty segment")
            stopped = True
    result.truncated = bool(result.problems)
    # Records past the last safe boundary are dropped, so the writer
    # continues from the boundary's seq, not the scanner's.
    result.last_seq = safe_seq
    result.last_epoch = scanner.last_post_epoch

    if heal and result.truncated:
        for segment in segments:
            keep = boundaries.get(segment)
            if keep is None or keep == 0:
                segment.unlink()
            elif keep < segment.stat().st_size:
                atomic_write_bytes(
                    segment, segment.read_bytes()[:keep], durable=True
                )
        fsync_dir(root)

    if result.truncated:
        _log.warning(
            "journal %s recovered to %d posting(s): %s",
            root, len(result.postings), "; ".join(result.problems),
        )
        observation = current_observation()
        if observation.enabled:
            observation.tracer.event(
                "journal.recovered",
                epochs=len(result.postings),
                records=result.kept_records,
                dropped=result.dropped_records,
                reason=result.problems[0],
            )
    return result


# -- writer -------------------------------------------------------------------


class JournalWriter:
    """Appends checksummed records to segment files, fsync-on-round.

    Construct over an empty (or new) directory for a fresh run, or via
    :meth:`resume` over a :func:`recover_journal` result to continue an
    interrupted one. Not safe for concurrent writers.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        _recovered: Optional[RecoveredJournal] = None,
    ):
        self._dir = Path(directory)
        self._dir.mkdir(parents=True, exist_ok=True)
        self._segment_bytes = segment_bytes
        self._closed = False
        existing = segment_paths(self._dir)
        #: Standalone records already durable from a recovered run, in
        #: journal order. A resumed run deterministically re-emits the
        #: same events; :meth:`append_event` consumes this list instead
        #: of writing duplicates until it is exhausted.
        self._replay_events: List[Tuple[str, Any]] = []
        self._replay_index = 0
        if _recovered is None:
            if existing:
                raise JournalError(
                    f"journal directory {self._dir} already holds "
                    f"{len(existing)} segment(s); recover and resume "
                    "instead of overwriting"
                )
            self._seq = 0
            self._epoch = 0
            self.header_written = False
            self._segment_index = 1
            path = self._dir / segment_name(self._segment_index)
            self._handle = open(path, "ab")
            fsync_dir(self._dir)
        else:
            self._seq = _recovered.last_seq
            self._epoch = _recovered.last_epoch
            self.header_written = _recovered.header is not None
            self._replay_events = [
                (e["type"], e["data"]) for e in _recovered.events
            ]
            if existing:
                last = existing[-1]
                self._segment_index = int(
                    last.name[len(SEGMENT_PREFIX):-len(SEGMENT_SUFFIX)]
                )
                self._handle = open(last, "ab")
            else:
                self._segment_index = 1
                self._handle = open(
                    self._dir / segment_name(self._segment_index), "ab"
                )
                fsync_dir(self._dir)

    @classmethod
    def resume(
        cls,
        recovered: RecoveredJournal,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
    ) -> "JournalWriter":
        """An appending writer continuing a recovered journal."""
        return cls(
            recovered.directory,
            segment_bytes=segment_bytes,
            _recovered=recovered,
        )

    @property
    def directory(self) -> Path:
        return self._dir

    @property
    def epoch(self) -> int:
        """Epoch of the most recently committed posting."""
        return self._epoch

    def _write(self, type: str, data: Any, epoch: int) -> int:
        if self._closed:
            raise JournalError("journal writer is closed")
        self._seq += 1
        self._handle.write(_encode(self._seq, epoch, type, data))
        return 1

    def _sync(self) -> None:
        observation = current_observation()
        if observation.enabled:
            with observation.tracer.span("journal.fsync"):
                self._handle.flush()
                os.fsync(self._handle.fileno())
            return
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def _maybe_rotate(self) -> None:
        if self._handle.tell() < self._segment_bytes:
            return
        self._sync()
        self._handle.close()
        self._segment_index += 1
        path = self._dir / segment_name(self._segment_index)
        self._handle = open(path, "ab")
        fsync_dir(self._dir)

    def write_header(self, payload: Dict[str, Any]) -> int:
        """Record the run's identity (config, specs, initial state)."""
        if self.header_written:
            raise JournalError("journal header already written")
        data = dict(payload)
        data["journal_version"] = JOURNAL_VERSION
        written = self._write("header", data, epoch=0)
        self._sync()
        self.header_written = True
        return written

    def append_posting(
        self,
        format: str,
        keys: List[Tuple],
        outcomes: List[Any],
        state: Dict[str, Any],
        retried: int = 0,
        merge: bool = False,
        omega: Optional[int] = None,
    ) -> int:
        """Journal one backend posting as a committed epoch; returns
        the number of records written (post + per-question + commit).
        The commit record carries the post-posting backend snapshot and
        the group is fsynced before this method returns."""
        epoch = self._epoch + 1
        written = self._write(
            "post",
            {
                "format": format,
                "keys": [_key_to_json(format, key) for key in keys],
                "retried": retried,
                "merge": merge,
                "omega": omega,
            },
            epoch,
        )
        for type, data in _outcome_records(format, outcomes):
            written += self._write(type, data, epoch)
        written += self._write("commit", {"state": state}, epoch)
        self._epoch = epoch
        self._sync()
        self._maybe_rotate()
        return written

    def append_event(self, type: str, data: Dict[str, Any]) -> int:
        """Journal a standalone record (e.g. a budget denial) under the
        current epoch.

        On a resumed journal the re-executed run re-emits the events
        that are already durable; those are matched positionally
        against the recovered prefix and skipped (returns 0) instead
        of duplicated. A mismatch means the resumed run diverged from
        the journaled one and raises."""
        if type not in _STANDALONE_TYPES:
            raise JournalError(f"not a standalone record type: {type!r}")
        if self._replay_index < len(self._replay_events):
            expected = self._replay_events[self._replay_index]
            if expected != (type, data):
                raise JournalReplayError(
                    f"resumed run emitted event {(type, data)!r} where "
                    f"the journal recorded {expected!r}; the resume "
                    "diverged from the journaled execution"
                )
            self._replay_index += 1
            return 0
        written = self._write(type, data, self._epoch)
        self._sync()
        return written

    def close(self) -> None:
        if not self._closed:
            self._sync()
            self._handle.close()
            self._closed = True

    def __enter__(self) -> "JournalWriter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
