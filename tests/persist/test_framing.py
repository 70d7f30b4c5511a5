"""The shared framing layer: durable atomic writes and the one header
implementation behind snapshots, traces, and the journal."""

from __future__ import annotations

import os
import threading

import pytest

from repro.errors import DatasetError
from repro.persist import framing

MAGIC = b"RPROTEST"


class TestHeaderSharing:
    def test_one_header_size_everywhere(self):
        from repro.persist import codec
        from repro.workloads import trace

        assert codec.HEADER_SIZE == framing.HEADER_SIZE
        assert trace.TRACE_HEADER_SIZE == framing.HEADER_SIZE
        from repro.persist.journal import JOURNAL_HEADER_SIZE

        assert JOURNAL_HEADER_SIZE == framing.HEADER_SIZE

    def test_frame_round_trip(self, tmp_path):
        payload = bytes(range(256)) * 3
        framing.write_framed(tmp_path / "f.bin", MAGIC, 7, payload)
        version, back = framing.read_framed(
            tmp_path / "f.bin",
            magic=MAGIC,
            max_version=9,
            kind="test",
            what="framing test file",
        )
        assert (version, back) == (7, payload)

    def test_version_too_new_refused(self, tmp_path):
        framing.write_framed(tmp_path / "f.bin", MAGIC, 3, b"x")
        with pytest.raises(DatasetError, match="newer than the supported"):
            framing.read_framed(
                tmp_path / "f.bin",
                magic=MAGIC,
                max_version=2,
                kind="test",
                what="framing test file",
            )


class TestDurableAtomicWrite:
    def test_fsyncs_file_and_directory(self, tmp_path, monkeypatch):
        """The write is durable, not just atomic: the temp file is
        fsynced before the rename and the parent directory after."""
        real_fsync = os.fsync
        synced: list[int] = []

        def counting_fsync(fd):
            synced.append(fd)
            real_fsync(fd)

        monkeypatch.setattr(framing.os, "fsync", counting_fsync)
        framing.atomic_write_bytes(tmp_path / "out.bin", b"payload")
        assert len(synced) >= 2  # temp file, then the directory

    def test_foreign_temp_file_survives(self, tmp_path):
        """Cleanup unlinks only the temp file this call created — a
        concurrent writer's temp sibling is not collateral."""
        target = tmp_path / "out.bin"
        foreign = tmp_path / "out.bin.tmp.999999"
        foreign.write_bytes(b"someone else's in-flight save")
        framing.atomic_write_bytes(target, b"mine")
        assert target.read_bytes() == b"mine"
        assert foreign.read_bytes() == b"someone else's in-flight save"

    def test_concurrent_saves_same_target(self, tmp_path):
        """Racing saves of one target never collide on a temp name:
        the survivor is one complete payload and no temp is left."""
        target = tmp_path / "out.bin"
        payloads = [bytes([i]) * 4096 for i in range(8)]
        threads = [
            threading.Thread(
                target=framing.atomic_write_bytes, args=(target, blob)
            )
            for blob in payloads
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert target.read_bytes() in payloads
        leftovers = [p for p in tmp_path.iterdir() if p != target]
        assert leftovers == []

    @pytest.mark.parametrize("umask", [0o022, 0o077, 0o002])
    def test_a_saved_snapshot_takes_the_umasks_mode(self, tmp_path, umask):
        """A snapshot is created as ``open(path, "wb")`` creates a file:
        mode ``0o666`` less the umask, not ``mkstemp``'s 0600."""
        from repro import ObstacleDatabase, Rect

        db = ObstacleDatabase([Rect(4, -10, 6, 10)], max_entries=8, min_entries=3)
        target = tmp_path / "db.snap"
        previous = os.umask(umask)
        try:
            db.save(target)
        finally:
            os.umask(previous)
        assert target.stat().st_mode & 0o777 == 0o666 & ~umask

    def test_interrupted_write_leaves_old_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.bin"
        framing.atomic_write_bytes(target, b"old")

        def boom(src, dst):
            raise OSError("simulated crash at rename")

        monkeypatch.setattr(framing.os, "replace", boom)
        with pytest.raises(OSError, match="simulated crash"):
            framing.atomic_write_bytes(target, b"new")
        monkeypatch.undo()
        assert target.read_bytes() == b"old"
        leftovers = [p for p in tmp_path.iterdir() if p != target]
        assert leftovers == []  # the failed call removed its own temp
