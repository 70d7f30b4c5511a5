"""Shared file framing for every ``repro.persist``-family format.

Snapshots (:mod:`repro.persist.codec`), workload traces
(:mod:`repro.workloads.trace`) and the mutation journal
(:mod:`repro.persist.journal`) all open with the same 28-byte header::

    offset 0   magic            8 bytes
    offset 8   format version   u32
    offset 12  payload length   u64
    offset 20  payload crc32    u32
    offset 24  header crc32     u32      (over bytes [0, 24))
    offset 28  payload          ``payload length`` bytes

This module is the single implementation of that header — packing,
the five-step verification (length, magic, header checksum, version,
payload), and the durable atomic write underneath every save.  Each
format parameterises it with its own magic, version and error-message
nouns, so the formats cannot silently drift apart.

Stream formats (the journal) reuse the header with a zero-length
payload: the bytes after offset 28 are self-checksummed records, not
a single framed payload.

Durability contract of :func:`atomic_write_bytes`: the blob is written
to a uniquely-named temporary sibling (``tempfile.mkstemp`` in the
target's directory, so concurrent writers to the same target never
collide), fsynced, atomically renamed over the target, and the parent
directory is fsynced so the rename itself survives power loss.  After
it returns, a ``kill -9`` or power cut leaves either the complete old
file or the complete new file — never a torn or missing one.
"""

from __future__ import annotations

import os
import struct
import tempfile
import zlib
from pathlib import Path

from repro.errors import DatasetError

_HEAD = struct.Struct("<8sIQI")
_HEAD_CRC = struct.Struct("<I")

#: Total header size; the payload (or record stream) starts here.
HEADER_SIZE = _HEAD.size + _HEAD_CRC.size

#: Magic length — format magics must be exactly this many bytes.
MAGIC_SIZE = 8


def pack_header(magic: bytes, version: int, payload: bytes) -> bytes:
    """The 28-byte checksummed header for ``payload``."""
    head = _HEAD.pack(magic, version, len(payload), zlib.crc32(payload))
    return head + _HEAD_CRC.pack(zlib.crc32(head))


def frame(magic: bytes, version: int, payload: bytes) -> bytes:
    """``payload`` framed under ``magic``/``version`` — the file bytes."""
    return pack_header(magic, version, payload) + payload


def verify_header(
    blob: bytes,
    *,
    magic: bytes,
    max_version: int,
    path: str | Path,
    kind: str,
    what: str,
) -> tuple[int, int, int]:
    """Verify the leading header of ``blob``; returns ``(version,
    payload_length, payload_crc)``.

    ``kind`` is the short noun used in located error messages
    (``"snapshot"``, ``"trace"``...); ``what`` the long one used for
    bad magic (``"repro snapshot"``).  Check order: header length,
    magic, header checksum, version-too-new.  Each failure raises
    :class:`~repro.errors.DatasetError` naming ``path`` and the byte
    offset of the inconsistency.
    """
    name = str(path)
    if len(blob) < HEADER_SIZE:
        raise DatasetError(
            f"{name}: truncated {kind} header at offset {len(blob)} "
            f"(need {HEADER_SIZE} bytes)"
        )
    found_magic, version, payload_len, payload_crc = _HEAD.unpack_from(blob, 0)
    (head_crc,) = _HEAD_CRC.unpack_from(blob, _HEAD.size)
    if found_magic != magic:
        raise DatasetError(f"{name}: not a {what} (bad magic at offset 0)")
    if head_crc != zlib.crc32(blob[: _HEAD.size]):
        raise DatasetError(
            f"{name}: header checksum mismatch at offset {_HEAD.size}"
        )
    if version > max_version:
        raise DatasetError(
            f"{name}: {kind} format version {version} at offset 8 is "
            f"newer than the supported version {max_version}"
        )
    return version, payload_len, payload_crc


def unframe(
    blob: bytes,
    *,
    magic: bytes,
    max_version: int,
    path: str | Path,
    kind: str,
    what: str,
) -> tuple[int, bytes]:
    """Verify a fully-framed file's bytes; returns ``(version, payload)``.

    :func:`verify_header` followed by the payload checks (length, then
    CRC-32) — nothing is decoded past a failure.
    """
    name = str(path)
    version, payload_len, payload_crc = verify_header(
        blob,
        magic=magic,
        max_version=max_version,
        path=path,
        kind=kind,
        what=what,
    )
    payload = blob[HEADER_SIZE:]
    if len(payload) != payload_len:
        raise DatasetError(
            f"{name}: truncated {kind} payload at offset "
            f"{HEADER_SIZE + len(payload)} (expected {payload_len} "
            f"byte(s), found {len(payload)})"
        )
    if zlib.crc32(payload) != payload_crc:
        raise DatasetError(
            f"{name}: payload checksum mismatch at offset {HEADER_SIZE}"
        )
    return version, payload


def read_framed(
    path: str | Path,
    *,
    magic: bytes,
    max_version: int,
    kind: str,
    what: str,
) -> tuple[int, bytes]:
    """Read and :func:`unframe` a file; returns ``(version, payload)``."""
    name = str(path)
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise DatasetError(f"{name}: cannot read {kind} ({exc})") from None
    return unframe(
        blob,
        magic=magic,
        max_version=max_version,
        path=path,
        kind=kind,
        what=what,
    )


def fsync_directory(directory: str) -> None:
    """Fsync ``directory`` so a just-renamed entry survives power loss.

    Best-effort: platforms or filesystems that cannot open/fsync a
    directory are silently tolerated — the rename is still atomic,
    just not durably ordered there.
    """
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def _umask() -> int:
    """The process umask, read from ``/proc`` where it can be: setting
    it to read it back races every other thread that creates a file."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("Umask:"):
                    return int(line.split()[1], 8)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    mask = os.umask(0o022)
    os.umask(mask)
    return mask


def atomic_write_bytes(path: str | Path, blob: bytes) -> None:
    """Durably and atomically replace ``path`` with ``blob``.

    Write to a uniquely-named temporary sibling, fsync it, atomically
    rename it over the target, then fsync the parent directory.  The
    temporary name comes from :func:`tempfile.mkstemp` in the target's
    directory (prefix ``<name>.tmp.``), so concurrent saves of the
    same target never share a temp file; the ``finally`` cleanup only
    ever unlinks the temp file *this* call created.
    """
    target = str(path)
    directory = os.path.dirname(target) or "."
    fd, tmp = tempfile.mkstemp(
        dir=directory, prefix=os.path.basename(target) + ".tmp."
    )
    try:
        # mkstemp creates the file 0600; the target gets the mode a
        # plain ``open(target, "wb")`` would give it.
        os.fchmod(fd, 0o666 & ~_umask())
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, target)
    finally:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass  # the normal path: the rename consumed it
    fsync_directory(directory)


def write_framed(
    path: str | Path, magic: bytes, version: int, payload: bytes
) -> None:
    """Frame ``payload`` and :func:`atomic_write_bytes` it to ``path``."""
    atomic_write_bytes(path, frame(magic, version, payload))
