"""Corruption handling: every damaged snapshot fails loudly, located,
and without leaving partial state behind."""

from __future__ import annotations

import struct
import zlib

import pytest

from repro.core.engine import ObstacleDatabase
from repro.errors import DatasetError
from repro.geometry.point import Point
from repro.geometry.rect import Rect
from repro.persist.codec import FORMAT_VERSION, HEADER_SIZE, MAGIC


@pytest.fixture
def snapshot(tmp_path):
    """A small valid snapshot plus its path."""
    db = ObstacleDatabase([Rect(2.0, 2.0, 4.0, 8.0)], shards=4)
    db.add_entity_set("P", [Point(6.0, 5.0), Point(0.0, 5.0)])
    db.nearest("P", Point(1.0, 5.0), 1)
    path = tmp_path / "scene.snap"
    db.save(path)
    return path


def _expect_failure(path, *, match: str | None = None):
    with pytest.raises(DatasetError) as err:
        ObstacleDatabase.load(path)
    message = str(err.value)
    assert str(path) in message, f"path missing from error: {message}"
    assert "offset" in message, f"offset missing from error: {message}"
    if match is not None:
        assert match in message, f"{match!r} not in {message}"


class TestTruncation:
    def test_truncated_header(self, snapshot, tmp_path):
        data = snapshot.read_bytes()
        short = tmp_path / "short.snap"
        short.write_bytes(data[: HEADER_SIZE - 5])
        _expect_failure(short, match="truncated snapshot header")

    def test_truncated_payload(self, snapshot, tmp_path):
        data = snapshot.read_bytes()
        short = tmp_path / "short.snap"
        short.write_bytes(data[:-7])
        _expect_failure(short, match="truncated snapshot payload")

    def test_empty_file(self, snapshot, tmp_path):
        empty = tmp_path / "empty.snap"
        empty.write_bytes(b"")
        _expect_failure(empty, match="truncated snapshot header")


class TestChecksum:
    def test_flipped_payload_byte(self, snapshot, tmp_path):
        data = bytearray(snapshot.read_bytes())
        data[HEADER_SIZE + len(data) // 2] ^= 0xFF
        bad = tmp_path / "bad.snap"
        bad.write_bytes(bytes(data))
        _expect_failure(bad, match="payload checksum mismatch")

    def test_flipped_header_byte(self, snapshot, tmp_path):
        data = bytearray(snapshot.read_bytes())
        data[10] ^= 0xFF  # inside the version field
        bad = tmp_path / "bad.snap"
        bad.write_bytes(bytes(data))
        _expect_failure(bad, match="header checksum mismatch")

    def test_bad_magic(self, snapshot, tmp_path):
        data = bytearray(snapshot.read_bytes())
        data[0] ^= 0xFF
        bad = tmp_path / "bad.snap"
        bad.write_bytes(bytes(data))
        with pytest.raises(DatasetError, match="bad magic"):
            ObstacleDatabase.load(bad)


def _restamped(snapshot, tmp_path, version):
    """The snapshot's bytes under another format version, checksums
    made consistent again."""
    payload = snapshot.read_bytes()[HEADER_SIZE:]
    head = struct.pack(
        "<8sIQI", MAGIC, version, len(payload), zlib.crc32(payload)
    )
    out = tmp_path / f"v{version}.snap"
    out.write_bytes(head + struct.pack("<I", zlib.crc32(head)) + payload)
    return out


class TestVersioning:
    def test_future_format_version(self, snapshot, tmp_path):
        """A snapshot written by a future format version is refused by
        name, even though its checksums are internally consistent."""
        future = _restamped(snapshot, tmp_path, FORMAT_VERSION + 41)
        _expect_failure(future, match=f"version {FORMAT_VERSION + 41}")

    @pytest.mark.parametrize("version", range(1, FORMAT_VERSION))
    def test_older_format_versions_refused(self, snapshot, tmp_path, version):
        """One version is read.  An older file is refused by name —
        its version, the supported one, what to do — by ``load``,
        ``snapshot_info`` and ``repro-snapshot verify`` alike."""
        from repro.persist import snapshot_info
        from repro.persist.cli import main

        old = _restamped(snapshot, tmp_path, version)
        _expect_failure(old, match=f"version {version} at offset 8")
        _expect_failure(old, match=f"supported version {FORMAT_VERSION}")
        _expect_failure(old, match="re-save with the release that wrote it")
        with pytest.raises(DatasetError, match=f"version {version} "):
            snapshot_info(old)
        assert main(["verify", str(old)]) != 0

    def test_current_version_accepted(self, snapshot):
        assert ObstacleDatabase.load(snapshot) is not None


class TestNoPartialState:
    def test_failed_load_then_good_load(self, snapshot, tmp_path):
        """A failed load leaves nothing behind: the pristine file still
        loads, and produces a fully functional database."""
        data = bytearray(snapshot.read_bytes())
        data[-1] ^= 0x01
        bad = tmp_path / "bad.snap"
        bad.write_bytes(bytes(data))
        with pytest.raises(DatasetError):
            ObstacleDatabase.load(bad)
        db = ObstacleDatabase.load(snapshot)
        assert db.nearest("P", Point(1.0, 5.0), 1)
        for index in db._obstacle_indexes.values():
            for tree in index.trees():
                tree.check_invariants()

    def test_interrupted_save_never_clobbers(self, snapshot, tmp_path, monkeypatch):
        """save() writes through a temp file + atomic rename, so a
        crash mid-write leaves the previous snapshot intact."""
        import repro.persist.framing as framing

        before = snapshot.read_bytes()

        def explode(tmp, target):
            raise OSError("disk full")

        monkeypatch.setattr(framing.os, "replace", explode)
        db = ObstacleDatabase([Rect(1.0, 1.0, 2.0, 2.0)])
        with pytest.raises(OSError):
            db.save(snapshot)
        assert snapshot.read_bytes() == before
        assert not list(snapshot.parent.glob("*.tmp.*"))
