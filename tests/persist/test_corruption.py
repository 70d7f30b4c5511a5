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
from repro.persist.codec import (
    FORMAT_VERSION,
    HEADER_SIZE,
    MAGIC,
    BinaryWriter,
)


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


class TestInfoRefusesWhatLoadRefuses:
    """``snapshot_info`` and ``load_database`` read a payload through
    one parser, so a structurally damaged snapshot — both checksums
    valid — draws the same located error from both."""

    @pytest.fixture
    def payload(self, tmp_path):
        """A cache-less sharded snapshot's payload, split where its
        tail — graph cache (none), runtime stats, frozen CSR (none),
        journal stamp — begins."""
        db = ObstacleDatabase([Rect(2.0, 2.0, 4.0, 8.0)], shards=4)
        path = tmp_path / "cold.snap"
        db.save(path, include_cache=False)
        data = path.read_bytes()[HEADER_SIZE:]
        # "backend" is the first (sorted) runtime stat; the stats count
        # and the cache count are the two u32 in front of its name.
        tail = data.rindex(struct.pack("<I", 7) + b"backend") - 8
        assert data[tail : tail + 4] == struct.pack("<I", 0)
        return data, tail

    @staticmethod
    def _cache_entry(stamp_kind=0, free=(), edges=()):
        """One cache-entry record: a single free node, no obstacles."""
        w = BinaryWriter()
        for value in (1.0, 5.0, 3.0):  # centre x, y, covered
            w.f64(value)
        w.u8(stamp_kind)
        w.i64(0)  # integer stamp
        w.u32(0)  # obstacle ids
        w.points([Point(1.0, 5.0)])
        w.u32(len(free))
        for i in free:
            w.u32(i)
        w.u32(len(edges))
        for i, j in edges:
            w.u32(i)
            w.u32(j)
        return w.getvalue()

    @staticmethod
    def _tail(entries=(), frozen_for=()):
        """Graph cache, empty runtime stats, frozen CSR, journal stamp."""
        w = BinaryWriter()
        w.u32(len(entries))
        body = w.getvalue() + b"".join(entries)
        w = BinaryWriter()
        w.u32(0)  # runtime stats
        w.u32(len(frozen_for))
        for index in frozen_for:
            w.u32(index)
            w.points([])
            w.u32_array([0])
            w.u32_array([])
            w.f64_array([])
        w.u64(0)  # journal sequence
        return body + w.getvalue()

    def _refused(self, tmp_path, payload, match):
        from repro.persist import snapshot_info
        from repro.persist.codec import write_snapshot

        bad = tmp_path / "bad.snap"
        write_snapshot(bad, payload)
        with pytest.raises(DatasetError) as by_load:
            ObstacleDatabase.load(bad)
        with pytest.raises(DatasetError) as by_info:
            snapshot_info(bad)
        message = str(by_load.value)
        assert message == str(by_info.value)
        assert message.startswith(f"{bad}: ") and "at offset" in message
        assert match in message, message

    def test_crafted_tail_is_itself_valid(self, tmp_path, payload):
        from repro.persist import snapshot_info
        from repro.persist.codec import write_snapshot

        data, tail = payload
        good = tmp_path / "good.snap"
        entry = self._cache_entry(free=[0], edges=[(0, 0)])
        write_snapshot(good, data[:tail] + self._tail([entry], frozen_for=[0]))
        info = snapshot_info(good)
        assert (info["cached_graphs"], info["frozen_fields"]) == (1, 1)
        assert len(ObstacleDatabase.load(good).context.cache) == 1

    def test_trailing_bytes(self, tmp_path, payload):
        data, __ = payload
        self._refused(tmp_path, data + b"\0\0", "2 trailing byte(s)")

    def test_frozen_record_names_no_cache_entry(self, tmp_path, payload):
        data, tail = payload
        entry = self._cache_entry()
        self._refused(
            tmp_path,
            data[:tail] + self._tail([entry], frozen_for=[1]),
            "frozen-CSR record references cache entry 1 of 1",
        )

    @pytest.mark.parametrize(
        "indexes", [{"free": [1]}, {"edges": [(0, 7)]}], ids=["free", "edge"]
    )
    def test_graph_index_past_its_node_list(self, tmp_path, payload, indexes):
        data, tail = payload
        self._refused(
            tmp_path,
            data[:tail] + self._tail([self._cache_entry(**indexes)]),
            "out of range (1 node(s))",
        )

    def test_unknown_stamp_kind(self, tmp_path, payload):
        data, tail = payload
        self._refused(
            tmp_path,
            data[:tail] + self._tail([self._cache_entry(stamp_kind=9)]),
            "unknown version-stamp kind 9",
        )

    def test_unknown_set_kind(self, tmp_path, payload):
        data, __ = payload
        # the set's name, then its kind byte
        kind_at = data.index(struct.pack("<I", 9) + b"obstacles") + 13
        damaged = bytearray(data)
        damaged[kind_at] = 7
        self._refused(tmp_path, bytes(damaged), "unknown obstacle-set kind 7")
