"""Binary framing of snapshot files.

Every snapshot is one file::

    offset 0   magic            8 bytes  (``b"RPROSNAP"``)
    offset 8   format version   u32
    offset 12  payload length   u64
    offset 20  payload crc32    u32
    offset 24  header crc32     u32      (over bytes [0, 24))
    offset 28  payload          ``payload length`` bytes

All integers and floats are **explicit little-endian** (``struct``
``"<"`` formats), so a snapshot written on any host reads identically
on any other — the framing never depends on native endianness or
alignment.  The payload is a flat sequence of primitive records
produced by :class:`BinaryWriter` and consumed by
:class:`BinaryReader`; both checksums are CRC-32 (:func:`zlib.crc32`).

Float and index arrays (coordinate lists, CSR vectors) are written and
read in bulk through ``ndarray`` buffers (``dtype="<f8"`` / ``"<u4"``).

Corruption handling is fail-fast and located: a truncated file, a
flipped byte, or a snapshot written in another format version each
raise :class:`~repro.errors.DatasetError` naming the file path and the
byte offset of the inconsistency, before any state is constructed.
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Iterable

import numpy as np

from repro.errors import DatasetError
from repro.geometry.point import Point
from repro.persist import framing

#: First 8 bytes of every snapshot file.
MAGIC = b"RPROSNAP"

#: The snapshot format this build writes — and the only one it reads:
#: page-backed trees, obstacle table, graph cache, runtime stats,
#: frozen-CSR arrays per cached graph, journal-sequence stamp.  A file
#: of any other version is refused with a located error
#: (:func:`read_snapshot`).
FORMAT_VERSION = 5

#: Total header size; the payload starts at this file offset.  The
#: header itself (and its verification) lives in
#: :mod:`repro.persist.framing`, shared with traces and the journal.
HEADER_SIZE = framing.HEADER_SIZE

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_I64 = struct.Struct("<q")
_F64 = struct.Struct("<d")


class BinaryWriter:
    """Accumulates one snapshot payload as little-endian records."""

    def __init__(self) -> None:
        self._buf = bytearray()

    def u8(self, value: int) -> None:
        """Append an unsigned byte."""
        self._buf += _U8.pack(value)

    def u32(self, value: int) -> None:
        """Append an unsigned 32-bit integer."""
        self._buf += _U32.pack(value)

    def u64(self, value: int) -> None:
        """Append an unsigned 64-bit integer."""
        self._buf += _U64.pack(value)

    def i64(self, value: int) -> None:
        """Append a signed 64-bit integer (``-1`` encodes ``None``
        throughout the snapshot format)."""
        self._buf += _I64.pack(value)

    def f64(self, value: float) -> None:
        """Append a 64-bit float."""
        self._buf += _F64.pack(value)

    def str_(self, value: str) -> None:
        """Append a length-prefixed UTF-8 string."""
        raw = value.encode("utf-8")
        self.u32(len(raw))
        self._buf += raw

    def points(self, pts: Iterable[Point]) -> None:
        """Append a length-prefixed list of points as a flat
        ``x0 y0 x1 y1 ...`` float array."""
        flat: list[float] = []
        for p in pts:
            flat.append(p.x)
            flat.append(p.y)
        self.u32(len(flat) // 2)
        self._buf += np.asarray(flat, dtype="<f8").tobytes()

    def f64_array(self, values: "Iterable[float]") -> None:
        """Append a length-prefixed bulk float64 array (CSR weights /
        coordinate vectors); accepts any iterable, including numpy
        arrays."""
        arr = np.asarray(values, dtype="<f8")
        self.u64(len(arr))
        self._buf += arr.tobytes()

    def u32_array(self, values: "Iterable[int]") -> None:
        """Append a length-prefixed bulk uint32 array (CSR index
        vectors)."""
        arr = np.asarray(values, dtype="<u4")
        self.u64(len(arr))
        self._buf += arr.tobytes()

    def getvalue(self) -> bytes:
        """The accumulated payload."""
        return bytes(self._buf)


class BinaryReader:
    """Decodes a snapshot payload, tracking absolute file offsets.

    Every decode error raises :class:`~repro.errors.DatasetError`
    naming the snapshot path and the file offset at which the payload
    ran short — the reader never returns partial records.
    """

    def __init__(
        self, data: bytes, *, path: str | Path, base_offset: int = HEADER_SIZE
    ) -> None:
        self._data = data
        self._pos = 0
        self._path = str(path)
        self._base = base_offset

    @property
    def offset(self) -> int:
        """The absolute file offset of the next byte to decode."""
        return self._base + self._pos

    def error(self, what: str) -> DatasetError:
        """A located decode error: ``what``, at this path and offset."""
        return DatasetError(f"{self._path}: {what} at offset {self.offset}")

    def _take(self, n: int) -> bytes:
        end = self._pos + n
        if end > len(self._data):
            raise DatasetError(
                f"{self._path}: truncated snapshot payload at offset "
                f"{self.offset} (needed {n} more byte(s))"
            )
        raw = self._data[self._pos : end]
        self._pos = end
        return raw

    def u8(self) -> int:
        """Decode an unsigned byte."""
        return _U8.unpack(self._take(1))[0]

    def u32(self) -> int:
        """Decode an unsigned 32-bit integer."""
        return _U32.unpack(self._take(4))[0]

    def u64(self) -> int:
        """Decode an unsigned 64-bit integer."""
        return _U64.unpack(self._take(8))[0]

    def i64(self) -> int:
        """Decode a signed 64-bit integer."""
        return _I64.unpack(self._take(8))[0]

    def f64(self) -> float:
        """Decode a 64-bit float."""
        return _F64.unpack(self._take(8))[0]

    def str_(self) -> str:
        """Decode a length-prefixed UTF-8 string."""
        n = self.u32()
        return self._take(n).decode("utf-8")

    def coords(self) -> list[float]:
        """Decode a length-prefixed point list as its flat
        ``x0 y0 x1 y1 ...`` floats (for a reader that may never need
        the points as objects)."""
        n = self.u32()
        return np.frombuffer(self._take(16 * n), dtype="<f8").tolist()

    def points(self) -> list[Point]:
        """Decode a length-prefixed point list."""
        flat = self.coords()
        return [Point(flat[i], flat[i + 1]) for i in range(0, len(flat), 2)]

    def f64_array(self) -> "np.ndarray":
        """Decode a length-prefixed bulk float64 array."""
        n = self.u64()
        return np.frombuffer(self._take(8 * n), dtype="<f8").copy()

    def u32_array(self) -> "np.ndarray":
        """Decode a length-prefixed bulk uint32 array."""
        n = self.u64()
        return np.frombuffer(self._take(4 * n), dtype="<u4").copy()

    def expect_end(self) -> None:
        """Raise unless the payload was consumed exactly."""
        if self._pos != len(self._data):
            raise self.error(
                f"{len(self._data) - self._pos} trailing byte(s)"
            )


def write_snapshot(path: str | Path, payload: bytes) -> None:
    """Frame ``payload`` with the checksummed header and write it.

    Durable atomic replace (see
    :func:`repro.persist.framing.atomic_write_bytes`): unique temp
    sibling, fsync, rename, directory fsync — a crash or power loss at
    any point leaves either the old snapshot or the new one intact
    under the target name, never a torn file.
    """
    framing.write_framed(path, MAGIC, FORMAT_VERSION, payload)


def read_snapshot(path: str | Path) -> bytes:
    """Read and verify a snapshot file; returns the payload bytes.

    Verification order: magic, header checksum, format version, payload
    length, payload checksum.  Each failure raises
    :class:`~repro.errors.DatasetError` naming ``path`` and the byte
    offset of the inconsistency; nothing is decoded past a failure.
    Only :data:`FORMAT_VERSION` is read: an older file is refused by
    version, not decoded by guesswork.
    """
    version, payload = framing.read_framed(
        path,
        magic=MAGIC,
        max_version=FORMAT_VERSION,
        kind="snapshot",
        what="repro snapshot",
    )
    if version != FORMAT_VERSION:
        raise DatasetError(
            f"{path}: snapshot format version {version} at offset 8 is "
            f"older than the supported version {FORMAT_VERSION} (the only "
            f"one this build reads): rebuild the snapshot, or re-save "
            f"with the release that wrote it and upgrade from there"
        )
    return payload
