"""Append-only change feed: the durable event log of the CDC subsystem.

The resolution system is specified over a fixed tuple set and a fixed Σ ∪ Γ;
any edit used to mean a full batch re-run.  The change feed turns edits into
*data*: every mutation of the registry is appended as one typed event —
:class:`TupleAdded`, :class:`TupleRetracted` or :class:`ConstraintChanged` —
under a monotonically increasing sequence number, and consumers re-derive the
affected resolutions incrementally (:mod:`repro.cdc.consumer`).  The design
follows the changelog architecture of production identity registries: the
feed is the source of truth for *what changed*, and any consumer position is
just a sequence number.

Determinism is the load-bearing property.  The event codec
(:func:`encode_event` / :func:`decode_event`) is canonical JSON — sorted
keys, fixed separators — so the same event always encodes to the same bytes
and a feed can be diffed, replayed and byte-compared across backends.  The
storage envelope adds ``seq`` and an append timestamp ``ts`` *around* the
event, never inside it: timestamps are nondeterministic by nature and must
not perturb the canonical event bytes.

Three backends share the contract (and the cross-backend tests assert their
equivalence):

* :class:`MemoryChangeFeed` — an in-process list, for tests;
* :class:`JsonlChangeFeed` — one envelope per line in an append-only file,
  human-readable and `tail -f`-able, tailed by byte offset; one appending
  process;
* :class:`SqliteChangeFeed` — a SQLite file in WAL mode, safe for concurrent
  appenders across processes (same journal settings as the result store).
"""

from __future__ import annotations

import bisect
import json
import os
import sqlite3
import sys
import threading
import time
import weakref
from array import array
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple, Union

from repro.core.errors import ReproError
from repro.core.values import Value, is_null

__all__ = [
    "ChangeEvent",
    "ChangeFeed",
    "ConstraintChanged",
    "FeedError",
    "FeedRecord",
    "JsonlChangeFeed",
    "MemoryChangeFeed",
    "SqliteChangeFeed",
    "TupleAdded",
    "TupleRetracted",
    "decode_event",
    "encode_event",
    "open_change_feed",
]


class FeedError(ReproError):
    """A change-feed event or envelope does not conform to the codec."""


def _canonical(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def _json_row(row: Mapping[str, Value]) -> Dict[str, Any]:
    """One observed row as JSON primitives (NULLs normalised to ``None``).

    The codec is strict: a value that is not a JSON primitive would decode
    to something other than what was encoded, silently breaking the
    replay-equivalence contract — reject it at append time instead.
    """
    record: Dict[str, Any] = {}
    for attribute, value in row.items():
        if is_null(value):
            record[str(attribute)] = None
        elif isinstance(value, (str, int, float, bool)):
            record[str(attribute)] = value
        else:
            raise FeedError(
                f"row value {value!r} for attribute {attribute!r} is not a "
                "JSON primitive; change events carry plain values only"
            )
    return record


@dataclass(frozen=True)
class TupleAdded:
    """A new observed tuple of *entity* entered the registry."""

    entity: str
    row: Mapping[str, Value]

    kind = "tuple_added"

    def payload(self) -> Dict[str, Any]:
        return {"entity": self.entity, "kind": self.kind, "row": _json_row(self.row)}


@dataclass(frozen=True)
class TupleRetracted:
    """An observed tuple of *entity* was withdrawn (must match an earlier add)."""

    entity: str
    row: Mapping[str, Value]

    kind = "tuple_retracted"

    def payload(self) -> Dict[str, Any]:
        return {"entity": self.entity, "kind": self.kind, "row": _json_row(self.row)}


@dataclass(frozen=True)
class ConstraintChanged:
    """The global Σ ∪ Γ was replaced by *constraints* (constraint-file text)."""

    constraints: str

    kind = "constraint_changed"

    def payload(self) -> Dict[str, Any]:
        return {"constraints": self.constraints, "kind": self.kind}


ChangeEvent = Union[TupleAdded, TupleRetracted, ConstraintChanged]

_EVENT_KINDS = {
    TupleAdded.kind: TupleAdded,
    TupleRetracted.kind: TupleRetracted,
    ConstraintChanged.kind: ConstraintChanged,
}


def encode_event(event: ChangeEvent) -> str:
    """Canonical one-line encoding of one event (no trailing newline)."""
    if not isinstance(event, (TupleAdded, TupleRetracted, ConstraintChanged)):
        raise FeedError(f"not a change event: {type(event).__name__}")
    return _canonical(event.payload())


def decode_event(text: str) -> ChangeEvent:
    """Inverse of :func:`encode_event`; rejects malformed events loudly."""
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise FeedError(f"event is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise FeedError(f"event must be a JSON object, got {type(payload).__name__}")
    kind = payload.get("kind")
    if kind not in _EVENT_KINDS:
        known = ", ".join(sorted(_EVENT_KINDS))
        raise FeedError(f"unknown event kind {kind!r}; expected one of: {known}")
    if kind == ConstraintChanged.kind:
        expected = {"kind", "constraints"}
        constraints = payload.get("constraints")
        if not isinstance(constraints, str):
            raise FeedError("constraint_changed needs a 'constraints' string")
    else:
        expected = {"kind", "entity", "row"}
        entity = payload.get("entity")
        if not isinstance(entity, str) or not entity:
            raise FeedError(f"{kind} needs a non-empty 'entity' string")
        row = payload.get("row")
        if not isinstance(row, dict):
            raise FeedError(f"{kind} for {entity!r} needs a 'row' object")
    unknown = sorted(set(payload) - expected)
    if unknown:
        raise FeedError(f"{kind} has unknown fields: {', '.join(unknown)}")
    if kind == ConstraintChanged.kind:
        return ConstraintChanged(constraints=payload["constraints"])
    return _EVENT_KINDS[kind](entity=payload["entity"], row=dict(payload["row"]))


@dataclass(frozen=True)
class FeedRecord:
    """One stored event: the feed's envelope around the canonical bytes."""

    seq: int
    ts: float
    event: ChangeEvent


def encode_envelope(record: FeedRecord) -> str:
    """Canonical one-line encoding of a stored record (seq + ts + event)."""
    return _canonical(
        {"data": record.event.payload(), "seq": record.seq, "ts": record.ts}
    )


def _decode_envelope(text: str, where: str) -> FeedRecord:
    try:
        payload = json.loads(text)
    except json.JSONDecodeError as error:
        raise FeedError(f"{where}: envelope is not valid JSON: {error}") from None
    if not isinstance(payload, dict) or "seq" not in payload or "data" not in payload:
        raise FeedError(f"{where}: envelope needs 'seq' and 'data' fields")
    return FeedRecord(
        seq=int(payload["seq"]),
        ts=float(payload.get("ts", 0.0)),
        event=decode_event(_canonical(payload["data"])),
    )


class ChangeFeed:
    """Contract of an append-only change feed (see the backends below).

    Sequence numbers are assigned by the feed, start at 1 and increase by 1
    per append — a position in the feed is therefore exactly "the number of
    events consumed", the same shape as a pipeline checkpoint.  All methods
    are thread-safe.
    """

    #: Human-readable backend tag (``"memory"`` / ``"jsonl"`` / ``"sqlite"``).
    backend: str = "abstract"

    def __init__(self) -> None:
        self._lock = threading.Lock()

    # -- required backend primitives -------------------------------------------

    def _append(self, record: FeedRecord) -> None:
        raise NotImplementedError

    def _last_sequence(self) -> int:
        raise NotImplementedError

    def _records(self, after: int) -> Iterator[FeedRecord]:
        raise NotImplementedError

    # -- public API ------------------------------------------------------------

    def append(self, event: ChangeEvent) -> int:
        """Durably append one event; return its assigned sequence number."""
        encode_event(event)  # validate (and normalise) before anything lands
        with self._lock:
            seq = self._last_sequence() + 1
            self._append(FeedRecord(seq=seq, ts=time.time(), event=event))
        return seq

    def events(self, after: int = 0) -> Iterator[FeedRecord]:
        """Replay the feed strictly after position *after*, in order.

        The records are materialised under the lock, so the iteration is a
        stable snapshot: appends racing the replay are simply not part of it
        and will be seen by the next ``events`` call.
        """
        if after < 0:
            raise FeedError(f"feed position must be >= 0, got {after}")
        with self._lock:
            records = list(self._records(after))
        return iter(records)

    def last_sequence(self) -> int:
        """The highest assigned sequence number (0 for an empty feed)."""
        with self._lock:
            return self._last_sequence()

    def __len__(self) -> int:
        return self.last_sequence()

    def close(self) -> None:
        """Release backend resources (idempotent)."""

    def __enter__(self) -> "ChangeFeed":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class MemoryChangeFeed(ChangeFeed):
    """List-backed feed; events still round-trip through the codec so the
    backends stay byte-equivalent."""

    backend = "memory"

    def __init__(self) -> None:
        super().__init__()
        self._data: list[FeedRecord] = []

    def _append(self, record: FeedRecord) -> None:
        # The codec round-trip mirrors what the durable backends do, so a
        # value the file formats would reject is rejected here too.
        self._data.append(
            FeedRecord(record.seq, record.ts, decode_event(encode_event(record.event)))
        )

    def _last_sequence(self) -> int:
        return self._data[-1].seq if self._data else 0

    def _records(self, after: int) -> Iterator[FeedRecord]:
        first = bisect.bisect_right(self._data, after, key=lambda record: record.seq)
        return iter(self._data[first:])


class _StaleIndex(Exception):
    """The file no longer holds the lines a :class:`JsonlChangeFeed` indexed."""


#: One lock per JSONL file, shared by every handle on it in this process, so
#: appends through different handles cannot race for a sequence number.
_PATH_LOCKS: "weakref.WeakValueDictionary[str, threading.Lock]" = (
    weakref.WeakValueDictionary()
)
_PATH_LOCKS_GUARD = threading.Lock()


def _path_lock(path: Path) -> threading.Lock:
    key = str(path.resolve())
    with _PATH_LOCKS_GUARD:
        lock = _PATH_LOCKS.get(key)
        if lock is None:
            lock = _PATH_LOCKS[key] = threading.Lock()
        return lock


class JsonlChangeFeed(ChangeFeed):
    """One envelope per line in an append-only text file.

    Appends go through one handle opened in append mode and are flushed per
    event; replay reads through a separate read-only handle, so a reader
    never disturbs the writer.

    Each handle keeps a byte-offset index of the complete lines it has
    decoded (sequence number → start of its line), seeded by the scan at
    open.  ``events(after=k)`` seeks to the first indexed record past *k* —
    or, when there is none, to the last indexed line — and decodes only from
    there on, so a follower polling a growing file decodes each new line
    once.  Lines past the indexed end get the open-time checks (valid
    envelopes, strictly increasing ``seq``) and are indexed once
    newline-terminated; an unterminated final line is read but not indexed,
    so a line still being written is read again by the next call.  A read
    trusts the index only while the file is no shorter than the indexed end
    and every indexed line it passes sits at its recorded offset with its
    recorded sequence number (the last indexed line: byte for byte);
    otherwise it drops the index and rescans from offset 0, so a file
    rewritten under the reader is never misread.

    :meth:`last_sequence` reads the lines past the indexed end too, unless
    the file still has the size this handle last read or wrote — so it sees
    appends made through other handles, while a writer's own appends cost
    it no decode.  :meth:`append` takes its sequence number from it.

    A JSONL feed supports one appending *process*: the handles on a file
    within one process share a lock, but nothing orders appends from several
    processes — use :class:`SqliteChangeFeed` for concurrent appenders.
    """

    backend = "jsonl"

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__()
        self.path = Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = _path_lock(self.path)
        self._closed = False
        self._reset_index()
        with self._lock:
            self._read(after=sys.maxsize)  # index the whole file, fully checked
            self._handle = self.path.open("ab")

    def _reset_index(self) -> None:
        # One entry per indexed record line: its sequence number, the offset
        # its line starts at and its 1-based line number.
        self._seqs = array("q")
        self._offsets = array("q")
        self._numbers = array("q")
        #: Offset just past the last indexed (newline-terminated) line.
        self._end = 0
        #: The last indexed record line, newline included.
        self._anchor = b""
        #: Highest sequence number in the file when it had ``_size`` bytes.
        self._last = 0
        self._size = 0
        #: Whether the file's final line lacks its newline.
        self._unterminated = False

    def _decode(self, line: bytes, number: int) -> FeedRecord:
        where = f"{self.path}:{number}"
        try:
            text = line.decode("utf-8")
        except UnicodeDecodeError as error:
            raise FeedError(f"{where}: envelope is not valid UTF-8: {error}") from None
        return _decode_envelope(text.strip(), where)

    def _read(self, after: int) -> List[FeedRecord]:
        """Decode the records past *after* through the index, extending it.

        Raises :class:`_StaleIndex` when the file does not match the index.
        """
        seqs, offsets, numbers = self._seqs, self._offsets, self._numbers
        indexed = len(seqs)
        entry = bisect.bisect_right(seqs, after)
        if entry == indexed and indexed:
            entry -= 1  # nothing indexed past *after*: start at the last line
        start = offsets[entry] if indexed else 0
        number = numbers[entry] - 1 if indexed else 0
        try:
            with self.path.open("rb") as handle:
                handle.seek(start)
                data = handle.read()
        except FileNotFoundError:
            data = b""
        if start + len(data) < self._end:
            raise _StaleIndex
        records: List[FeedRecord] = []
        last = seqs[-1] if seqs else 0
        position = 0
        while position < len(data):
            newline = data.find(b"\n", position)
            stop = len(data) if newline < 0 else newline + 1
            line, offset = data[position:stop], start + position
            position = stop
            number += 1
            if offset < self._end:
                # An indexed line: it must be the one the index recorded.
                if not line.strip():
                    continue
                if entry >= indexed or offset != offsets[entry]:
                    raise _StaleIndex
                if seqs[entry] <= after:  # the last indexed line, not wanted
                    if line != self._anchor:
                        raise _StaleIndex
                else:
                    try:
                        record = self._decode(line, number)
                    except FeedError:
                        raise _StaleIndex from None
                    if record.seq != seqs[entry]:
                        raise _StaleIndex
                    records.append(record)
                entry += 1
                continue
            if entry < indexed:
                raise _StaleIndex
            if line.strip():
                record = self._decode(line, number)
                if record.seq <= last:
                    raise FeedError(
                        f"{self.path}:{number}: sequence {record.seq} is not "
                        f"monotonic (last was {last})"
                    )
                if record.seq > sys.maxsize:  # the index holds 64-bit integers
                    raise FeedError(
                        f"{self.path}:{number}: sequence {record.seq} is out of range"
                    )
                last = record.seq
                if record.seq > after:
                    records.append(record)
                if newline >= 0:
                    seqs.append(record.seq)
                    offsets.append(offset)
                    numbers.append(number)
                    self._anchor = line
            if newline >= 0:
                self._end = start + stop
        if entry < indexed:
            raise _StaleIndex
        self._last, self._size = last, start + len(data)
        self._unterminated = not data.endswith(b"\n") and bool(data)
        return records

    def _tail(self, after: int) -> List[FeedRecord]:
        """:meth:`_read`, rescanning from offset 0 when the index is stale."""
        self._require_open()
        try:
            return self._read(after)
        except _StaleIndex:
            self._reset_index()
            return self._read(after)

    def _append(self, record: FeedRecord) -> None:
        self._require_open()
        # The final line, if unterminated, decoded (or no sequence number
        # would have been assigned): end it before the new line.
        line = b"\n" if self._unterminated else b""
        line += (encode_envelope(record) + "\n").encode("utf-8")
        self._handle.write(line)
        self._handle.flush()
        self._last, self._size = record.seq, self._size + len(line)
        self._unterminated = False

    def _last_sequence(self) -> int:
        self._require_open()
        try:
            unchanged = self.path.stat().st_size == self._size
        except FileNotFoundError:
            unchanged = False
        if not unchanged:
            self._tail(self._seqs[-1] if self._seqs else 0)
        return self._last

    def _records(self, after: int) -> Iterator[FeedRecord]:
        return iter(self._tail(after))

    def _require_open(self) -> None:
        if self._closed:
            raise FeedError("the change feed is closed")

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._handle.close()


class SqliteChangeFeed(ChangeFeed):
    """SQLite-backed feed (WAL journal, busy timeout — like the result store).

    The write path is one INSERT per event under the feed's lock; WAL mode
    plus the busy timeout make concurrent appenders in separate processes
    safe, with SQLite serialising the sequence assignment.
    """

    backend = "sqlite"

    #: How long a writer waits on another process's transaction (ms).
    BUSY_TIMEOUT_MS = 5000

    _SCHEMA = """
        CREATE TABLE IF NOT EXISTS events (
            seq INTEGER PRIMARY KEY,
            ts REAL NOT NULL,
            data TEXT NOT NULL
        )
    """

    def __init__(self, path: Union[str, Path]) -> None:
        super().__init__()
        self.path = Path(path) if str(path) != ":memory:" else path
        if isinstance(self.path, Path):
            self.path.parent.mkdir(parents=True, exist_ok=True)
        self._connection = sqlite3.connect(str(path), check_same_thread=False)
        self._connection.execute(f"PRAGMA busy_timeout = {self.BUSY_TIMEOUT_MS}")
        self.journal_mode = str(
            self._connection.execute("PRAGMA journal_mode = WAL").fetchone()[0]
        ).lower()
        self._connection.execute("PRAGMA synchronous = NORMAL")
        self._connection.execute(self._SCHEMA)
        self._connection.commit()
        self._closed = False

    def _append(self, record: FeedRecord) -> None:
        self._require_open()
        self._connection.execute(
            "INSERT INTO events (seq, ts, data) VALUES (?, ?, ?)",
            (record.seq, record.ts, encode_event(record.event)),
        )
        self._connection.commit()

    def _last_sequence(self) -> int:
        self._require_open()
        row = self._connection.execute("SELECT MAX(seq) FROM events").fetchone()
        return int(row[0]) if row and row[0] is not None else 0

    def _records(self, after: int) -> Iterator[FeedRecord]:
        self._require_open()
        cursor = self._connection.execute(
            "SELECT seq, ts, data FROM events WHERE seq > ? ORDER BY seq", (after,)
        )
        for seq, ts, data in cursor.fetchall():
            yield FeedRecord(seq=int(seq), ts=float(ts), event=decode_event(data))

    def _require_open(self) -> None:
        if self._closed:
            raise FeedError("the change feed is closed")

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._closed = True
                self._connection.close()


def open_change_feed(target: Union[str, Path, ChangeFeed]) -> ChangeFeed:
    """Open (or pass through) a change feed.

    A :class:`ChangeFeed` instance is returned as-is; ``":memory:"`` opens a
    :class:`MemoryChangeFeed`; a ``.jsonl``/``.ndjson`` path opens a
    :class:`JsonlChangeFeed`; any other path opens a :class:`SqliteChangeFeed`.
    """
    if isinstance(target, ChangeFeed):
        return target
    if str(target) == ":memory:":
        return MemoryChangeFeed()
    if str(target).endswith((".jsonl", ".ndjson")):
        return JsonlChangeFeed(target)
    return SqliteChangeFeed(target)
