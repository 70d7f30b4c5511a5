"""Append-only write-ahead mutation journal.

A durable :class:`~repro.core.engine.ObstacleDatabase` (opened with
``durable=path``) appends every obstacle/entity mutation here *before*
applying it, fsyncing each record.  Crash
recovery is ``ObstacleDatabase.load(base, durable=journal)``: restore
the base snapshot, replay the journal's records through the same
index operations the live process used, and the result is
bit-identical to a process that never crashed.  Compaction
(``db.compact()``, or the size/ratio trigger — see
:meth:`MutationJournal.outgrew`) folds the journal into a new base
snapshot through the existing durable atomic-rename path and then
truncates the journal back to its header.

File layout (framing shared with snapshots and traces, see
:mod:`repro.persist.framing`)::

    offset 0   magic            8 bytes  (``b"RPROJRNL"``)
    offset 8   format version   u32
    offset 12  payload length   u64      (always 0 — stream format)
    offset 20  payload crc32    u32      (always 0)
    offset 24  header crc32     u32      (over bytes [0, 24))
    offset 28  record stream

Each record is individually framed and checksummed::

    offset +0   sequence number  u64     (monotonic, never reused)
    offset +8   payload length   u32
    offset +12  payload crc32    u32
    offset +16  record crc32     u32     (over the first 16 bytes)
    offset +20  payload          ``payload length`` bytes

Torn-tail discipline: recovery scans records in order.  A tail too
short to hold a record header, or a complete header whose payload
bytes run past end-of-file, is a torn append (the crash hit
mid-write); the file is silently truncated back to the last complete
record — the longest durable prefix.  A record whose header or
payload checksum does not match at full length is *corruption*, not a
crash artefact, and raises :class:`~repro.errors.DatasetError` naming
the path and byte offset before anything is applied.

The sequence number makes compaction crash-safe: each base snapshot
is stamped with the highest sequence folded into it (snapshot format
4), and recovery replays only records with a higher sequence.  A
``kill -9`` between a compaction's base rewrite and its journal
truncation therefore leaves records that recovery recognises as
already folded — they are skipped and the interrupted truncation is
completed, never double-applied.
"""

from __future__ import annotations

import os
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

from repro.errors import DatasetError
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.model import Obstacle
from repro.persist import framing
from repro.persist.codec import BinaryReader, BinaryWriter

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.engine import ObstacleDatabase
    from repro.runtime.stats import RuntimeStats

#: First 8 bytes of every journal file.
JOURNAL_MAGIC = b"RPROJRNL"

#: The journal format this build writes (and the newest it reads).
#: Version history:
#:
#: 1. file header + self-checksummed record stream; record payloads
#:    are the four mutation kinds of :class:`MutationRecord`.
JOURNAL_VERSION = 1

#: The file header size; records start at this offset.
JOURNAL_HEADER_SIZE = framing.HEADER_SIZE

_RECORD_HEAD = struct.Struct("<QII")
_RECORD_CRC = struct.Struct("<I")

#: Per-record framing overhead, preceding each payload.
RECORD_HEADER_SIZE = _RECORD_HEAD.size + _RECORD_CRC.size

#: Wire codes for the four mutation kinds.
_CODES = {
    ("obstacle", "insert"): 1,
    ("obstacle", "delete"): 2,
    ("entity", "insert"): 3,
    ("entity", "delete"): 4,
}
_KINDS = {code: key for key, code in _CODES.items()}

#: The auto-compaction trigger (see :meth:`MutationJournal.outgrew`):
#: a floor on the journal's record bytes, and their ratio to the base
#: snapshot's size.
COMPACT_BYTES = 1 << 16
COMPACT_RATIO = 2.0


@dataclass(frozen=True)
class MutationRecord:
    """One journaled mutation — also the serving pool's delta unit.

    ``scope`` selects which fields matter: obstacle records carry the
    parent-assigned ``oid`` plus the polygon ``vertices`` (deletes too,
    so replay can address the R*-tree by the obstacle's MBR without a
    scan); entity records carry the ``point``.
    """

    scope: str  # "obstacle" | "entity"
    op: str  # "insert" | "delete"
    set_name: str
    oid: int = -1
    vertices: tuple[Point, ...] = ()
    point: Point | None = None


def obstacle_record(op: str, set_name: str, obstacle: Obstacle) -> MutationRecord:
    """The journal record for an obstacle mutation."""
    return MutationRecord(
        scope="obstacle",
        op=op,
        set_name=set_name,
        oid=obstacle.oid,
        vertices=tuple(obstacle.polygon.vertices),
    )


def entity_record(op: str, set_name: str, point: Point) -> MutationRecord:
    """The journal record for an entity mutation."""
    return MutationRecord(scope="entity", op=op, set_name=set_name, point=point)


def encode_record(record: MutationRecord) -> bytes:
    """The record's payload bytes (unframed)."""
    code = _CODES.get((record.scope, record.op))
    if code is None:
        raise DatasetError(
            f"cannot encode mutation record of unknown kind "
            f"{record.scope!r}/{record.op!r}"
        )
    w = BinaryWriter()
    w.u8(code)
    w.str_(record.set_name)
    if record.scope == "obstacle":
        w.i64(record.oid)
        w.points(record.vertices)
    else:
        w.f64(record.point.x)
        w.f64(record.point.y)
    return w.getvalue()


def decode_record(
    payload: bytes, *, path: str | Path = "<journal>", base_offset: int = 0
) -> MutationRecord:
    """Decode a record payload (inverse of :func:`encode_record`)."""
    r = BinaryReader(payload, path=path, base_offset=base_offset)
    code = r.u8()
    kind = _KINDS.get(code)
    if kind is None:
        raise DatasetError(
            f"{path}: unknown mutation record kind {code} at offset "
            f"{r.offset - 1}"
        )
    scope, op = kind
    set_name = r.str_()
    if scope == "obstacle":
        oid = r.i64()
        vertices = tuple(r.points())
        record = MutationRecord(
            scope=scope, op=op, set_name=set_name, oid=oid, vertices=vertices
        )
    else:
        record = MutationRecord(
            scope=scope,
            op=op,
            set_name=set_name,
            point=Point(r.f64(), r.f64()),
        )
    r.expect_end()
    return record


def apply_record(db: "ObstacleDatabase", record: MutationRecord) -> None:
    """Apply one record to ``db`` exactly as the originating process did.

    The record goes through the database's own apply step — the one
    :meth:`~repro.core.engine.ObstacleDatabase._commit` runs after
    journaling — with the obstacle rebuilt under its parent-assigned
    oid (``_next_oid`` is bumped past it, so ids never collide after
    replay).  Nothing is appended to an attached journal; the record is
    announced on the database's feed like a live one.  Both journal
    recovery and the serving pool's worker-side delta replay use this
    one function.
    """
    obstacle = None
    if record.scope == "obstacle":
        obstacle = Obstacle(record.oid, Polygon(record.vertices))
    db._apply(record, obstacle)


def _file_path(path: "str | os.PathLike[str]") -> str:
    """``path`` as a string, refusing a directory: a journal is one
    file, and ``open`` would fail on it without saying which argument
    was wrong."""
    name = os.fspath(path)
    if os.path.isdir(name):
        raise DatasetError(
            f"{name}: durable= must name a journal file, not a directory"
        )
    return name


class MutationJournal:
    """One open journal file: append, recover, truncate.

    Appends write the framed record and fsync before returning — once
    :meth:`append` returns, the mutation survives ``kill -9``.  When
    ``stats`` is set (the owning database's
    :class:`~repro.runtime.stats.RuntimeStats`), each append ticks
    ``journal_appends``/``journal_bytes``.
    """

    def __init__(
        self, path: str, fh, *, size: int, records: int, next_seq: int = 1
    ) -> None:
        self.path = path
        self._fh = fh
        self._size = size
        self._records = records
        self._next_seq = next_seq
        #: The base snapshot the records replay over (``None`` until
        #: anchored: set to the file a ``save`` just wrote, after
        #: :meth:`reset`, or to the one a ``load`` replayed them over).
        self.base_path: str | None = None
        self.stats: "RuntimeStats | None" = None

    # -- opening -----------------------------------------------------------

    @classmethod
    def create(cls, path: "str | os.PathLike[str]") -> "MutationJournal":
        """Open ``path`` as a fresh, empty journal.

        A missing, empty, or header-only file is (re)initialised in
        place.  A journal that already holds records is refused — that
        is durable state; recover it with
        ``ObstacleDatabase.load(base, durable=path)`` or delete the
        file to discard it.
        """
        name = _file_path(path)
        existing = 0
        if os.path.exists(name) and os.path.getsize(name) >= JOURNAL_HEADER_SIZE:
            probe, records = cls.recover(name)
            probe.close()
            existing = len(records)
        if existing:
            raise DatasetError(
                f"{name}: journal already holds {existing} record(s); "
                f"recover it with ObstacleDatabase.load(base, "
                f"durable=...) or delete the file to start fresh"
            )
        fh = open(name, "w+b")
        fh.write(framing.pack_header(JOURNAL_MAGIC, JOURNAL_VERSION, b""))
        fh.flush()
        os.fsync(fh.fileno())
        framing.fsync_directory(os.path.dirname(name) or ".")
        return cls(name, fh, size=JOURNAL_HEADER_SIZE, records=0)

    @classmethod
    def recover(
        cls, path: "str | os.PathLike[str]"
    ) -> "tuple[MutationJournal, list[tuple[int, MutationRecord]]]":
        """Open ``path``, recovering the longest durable prefix.

        Returns the open journal plus the decoded ``(seq, record)``
        pairs to replay.  A torn tail (crash mid-append, or
        mid-creation for a file shorter than the header) is truncated
        away silently; a checksum mismatch at full record length
        raises :class:`~repro.errors.DatasetError` naming path and
        offset — and nothing is applied, because the caller only sees
        a fully decoded record list.
        """
        name = _file_path(path)
        if not os.path.exists(name):
            return cls.create(name), []
        with open(name, "rb") as fh:
            blob = fh.read()
        if len(blob) < JOURNAL_HEADER_SIZE:
            # Torn creation: the crash hit before the header was
            # durable, so nothing was ever journaled.  Start fresh.
            return cls.create(name), []
        framing.verify_header(
            blob,
            magic=JOURNAL_MAGIC,
            max_version=JOURNAL_VERSION,
            path=name,
            kind="journal",
            what="repro mutation journal",
        )
        records: list[tuple[int, MutationRecord]] = []
        pos = JOURNAL_HEADER_SIZE
        durable_end = pos
        while pos < len(blob):
            if len(blob) - pos < RECORD_HEADER_SIZE:
                break  # torn tail: a partial record header
            seq, payload_len, payload_crc = _RECORD_HEAD.unpack_from(blob, pos)
            (head_crc,) = _RECORD_CRC.unpack_from(blob, pos + _RECORD_HEAD.size)
            if head_crc != zlib.crc32(blob[pos : pos + _RECORD_HEAD.size]):
                raise DatasetError(
                    f"{name}: journal record header checksum mismatch "
                    f"at offset {pos}"
                )
            start = pos + RECORD_HEADER_SIZE
            if len(blob) - start < payload_len:
                break  # torn tail: the payload write did not finish
            payload = blob[start : start + payload_len]
            if zlib.crc32(payload) != payload_crc:
                raise DatasetError(
                    f"{name}: journal record payload checksum mismatch "
                    f"at offset {start}"
                )
            records.append(
                (seq, decode_record(payload, path=name, base_offset=start))
            )
            pos = start + payload_len
            durable_end = pos
        fh = open(name, "r+b")
        if durable_end < len(blob):
            fh.truncate(durable_end)
            fh.flush()
            os.fsync(fh.fileno())
        fh.seek(durable_end)
        next_seq = records[-1][0] + 1 if records else 1
        journal = cls(
            name, fh, size=durable_end, records=len(records), next_seq=next_seq
        )
        return journal, records

    # -- appending ---------------------------------------------------------

    def append(self, record: MutationRecord) -> int:
        """Durably append ``record``; returns the bytes written."""
        payload = encode_record(record)
        head = _RECORD_HEAD.pack(
            self._next_seq, len(payload), zlib.crc32(payload)
        )
        framed = head + _RECORD_CRC.pack(zlib.crc32(head)) + payload
        self._fh.seek(self._size)
        self._fh.write(framed)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._size += len(framed)
        self._records += 1
        self._next_seq += 1
        if self.stats is not None:
            self.stats.journal_appends += 1
            self.stats.journal_bytes += len(framed)
        return len(framed)

    def reset(self) -> None:
        """Truncate back to the bare header (a new base snapshot has
        absorbed every record).  The sequence counter keeps counting —
        sequences are never reused, which is what lets recovery tell a
        record folded into the base from one that is not.
        """
        self._fh.truncate(JOURNAL_HEADER_SIZE)
        self._fh.flush()
        os.fsync(self._fh.fileno())
        self._fh.seek(JOURNAL_HEADER_SIZE)
        self._size = JOURNAL_HEADER_SIZE
        self._records = 0

    def ensure_seq_floor(self, floor: int) -> None:
        """Guarantee future appends carry a sequence above ``floor``
        (the base snapshot's folded-sequence stamp) — required when a
        fresh journal file is attached to a database restored from a
        base that had already folded higher sequences."""
        if self._next_seq <= floor:
            self._next_seq = floor + 1

    def close(self) -> None:
        """Close the file handle (the journal file stays on disk)."""
        if not self._fh.closed:
            self._fh.close()

    # -- sizing ------------------------------------------------------------

    @property
    def size(self) -> int:
        """Current file size in bytes (header + records)."""
        return self._size

    @property
    def records_bytes(self) -> int:
        """Bytes of framed records past the header — the compaction
        trigger input."""
        return self._size - JOURNAL_HEADER_SIZE

    def outgrew(self, base_bytes: int) -> bool:
        """Whether the journal is due for folding into a base snapshot
        of ``base_bytes``: its record bytes have reached
        ``max(COMPACT_BYTES, COMPACT_RATIO * base_bytes)``."""
        return self.records_bytes >= max(
            COMPACT_BYTES, COMPACT_RATIO * base_bytes
        )

    def due(self) -> bool:
        """Whether an anchored journal has outgrown its base snapshot's
        current size (see :meth:`outgrew`); never, while unanchored."""
        if self.base_path is None:
            return False
        try:
            base_bytes = os.path.getsize(self.base_path)
        except OSError:
            base_bytes = 0
        return self.outgrew(base_bytes)

    @property
    def record_count(self) -> int:
        """Records currently in the journal (since the last reset)."""
        return self._records

    @property
    def last_seq(self) -> int:
        """The sequence number of the most recently appended record
        (``0`` before the first append) — what a base snapshot saved
        *now* stamps as its folded sequence."""
        return self._next_seq - 1
