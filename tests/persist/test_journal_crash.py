"""Kill -9 crash-recovery: a producer process is killed mid-journal
and this process recovers the longest durable prefix.

The producer (:mod:`tests.persist.journal_producer`) anchors a base
snapshot and then applies an endless deterministic mutation stream to
a durable database — one journal record per mutation, sequence
numbers starting at 1.  The parent SIGKILLs it at an arbitrary
moment, so the kill can land mid-append (torn tail), between append
and apply, or inside a compaction.  Recovery must equal an in-process
twin that applied exactly the mutations whose records became durable:
the highest surviving sequence number — whether it survived in the
journal or folded into the base — *is* the mutation count.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.core.engine import ObstacleDatabase
from repro.geometry.point import Point
from repro.persist.journal import JOURNAL_HEADER_SIZE, MutationJournal
from repro.persist.store import snapshot_info

from tests.persist import journal_producer

REPO_ROOT = os.path.dirname(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
)

#: Kill once the journal holds at least this many record bytes, so the
#: recovered prefix is never trivially empty.
MIN_RECORD_BYTES = 600

#: Compact aggressively in the child so the kill window includes the
#: fold-then-truncate sequence, not just plain appends.
CHILD_COMPACT_BYTES = "2000"


def _spawn_producer(base, journal) -> subprocess.Popen:
    env = dict(os.environ)
    env["PYTHONPATH"] = (
        os.path.join(REPO_ROOT, "src") + os.pathsep + env.get("PYTHONPATH", "")
    )
    return subprocess.Popen(
        [
            sys.executable,
            "-m",
            "tests.persist.journal_producer",
            str(base),
            str(journal),
            CHILD_COMPACT_BYTES,
        ],
        cwd=REPO_ROOT,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
    )


def test_sigkill_mid_journal_recovers_durable_prefix(tmp_path):
    base = tmp_path / "base.snap"
    journal = tmp_path / "db.journal"
    proc = _spawn_producer(base, journal)
    try:
        deadline = time.monotonic() + 120.0
        while time.monotonic() < deadline:
            if proc.poll() is not None:
                stderr = proc.stderr.read().decode(errors="replace")
                pytest.fail(f"producer exited early ({proc.returncode}): {stderr}")
            if base.exists() and journal.exists():
                try:
                    size = os.path.getsize(journal)
                except OSError:
                    size = 0
                if size >= JOURNAL_HEADER_SIZE + MIN_RECORD_BYTES:
                    break
            time.sleep(0.01)
        else:
            pytest.fail("producer never reached the kill threshold")
        proc.send_signal(signal.SIGKILL)
        proc.wait(timeout=60)
    finally:
        if proc.poll() is None:  # pragma: no cover - cleanup on failure
            proc.kill()
            proc.wait(timeout=60)
        proc.stderr.close()

    # How many mutations became durable?  The base's folded-sequence
    # stamp covers compacted records; surviving journal records carry
    # their own sequences.  Probe with a recovery scan on a copy so
    # the real load below still sees the torn tail.
    probe_copy = tmp_path / "probe.journal"
    probe_copy.write_bytes(journal.read_bytes())
    probe, entries = MutationJournal.recover(probe_copy)
    probe.close()
    base_seq = snapshot_info(base)["journal_seq"]
    durable = max([base_seq] + [seq for seq, __ in entries])
    assert durable > 0

    recovered = ObstacleDatabase.load(base, durable=journal)
    twin = journal_producer.build_db()
    journal_producer.replay_prefix(twin, durable)

    assert journal_producer.expected_answers(
        recovered
    ) == journal_producer.expected_answers(twin)
    assert len(
        recovered.entity_tree(journal_producer.SET_NAME)
    ) == len(twin.entity_tree(journal_producer.SET_NAME))
    assert recovered._next_oid == twin._next_oid
    # And the recovered database keeps journaling: one more mutation
    # must survive another recovery round-trip.
    recovered.insert_entity(journal_producer.SET_NAME, Point(150.0, 150.0))
    recovered.journal.close()
    again = ObstacleDatabase.load(base, durable=journal)
    assert len(again.entity_tree(journal_producer.SET_NAME)) == len(
        twin.entity_tree(journal_producer.SET_NAME)
    ) + 1
