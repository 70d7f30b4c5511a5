"""The write-ahead mutation journal: append, crash recovery at every
byte, compaction, and the durability guards."""

from __future__ import annotations

import os
import random

import pytest

from repro.core.engine import ObstacleDatabase
from repro.errors import DatasetError
from repro.geometry.point import Point
from repro.geometry.polygon import Polygon
from repro.geometry.rect import Rect
from repro.model import Obstacle
from repro.persist.journal import (
    JOURNAL_HEADER_SIZE,
    RECORD_HEADER_SIZE,
    MutationJournal,
    MutationRecord,
    apply_record,
    decode_record,
    encode_record,
    entity_record,
    obstacle_record,
)

from tests.conftest import random_disjoint_rects, random_free_points
from tests.persist.helpers import cache_signature

SEED = 20040607
SET_NAME = "P"


def build_durable(journal_path, *, shards=None) -> ObstacleDatabase:
    """A small deterministic durable database with entities."""
    rng = random.Random(SEED)
    obstacles = random_disjoint_rects(rng, 12)
    entities = random_free_points(random.Random(SEED + 1), 16, obstacles)
    db = ObstacleDatabase(
        [o.polygon for o in obstacles],
        shards=shards,
        max_entries=16,
        min_entries=4,
        durable=journal_path,
    )
    db.add_entity_set(SET_NAME, entities)
    return db


def probe_points() -> list[Point]:
    rng = random.Random(SEED + 2)
    obstacles = random_disjoint_rects(random.Random(SEED), 12)
    return random_free_points(rng, 5, obstacles)


def run_probes(db: ObstacleDatabase) -> list[object]:
    answers: list[object] = []
    for q in probe_points():
        answers.append(db.nearest(SET_NAME, q, 3))
        answers.append(db.range(SET_NAME, q, 18.0))
    return answers


def apply_mutations(db: ObstacleDatabase) -> None:
    """A fixed mixed mutation stream: all four record kinds."""
    a = db.insert_obstacle(Rect(61.0, 61.0, 63.0, 63.0))
    db.insert_obstacle(Rect(66.0, 61.0, 68.0, 64.0))
    db.insert_entity(SET_NAME, Point(64.5, 60.0))
    db.delete_obstacle(a)
    db.insert_entity(SET_NAME, Point(60.0, 66.5))
    db.delete_entity(SET_NAME, Point(64.5, 60.0))


class TestRecordCodec:
    def test_round_trip_all_kinds(self):
        obstacle = Obstacle(7, Polygon.from_rect(Rect(1.0, 1.0, 3.0, 4.0)))
        records = [
            obstacle_record("insert", "obstacles", obstacle),
            obstacle_record("delete", "obstacles", obstacle),
            entity_record("insert", "P", Point(2.5, -7.25)),
            entity_record("delete", "west side", Point(-1.0, 0.0)),
        ]
        for record in records:
            assert decode_record(encode_record(record)) == record

    def test_unknown_kind_refused(self):
        bogus = MutationRecord(scope="obstacle", op="upsert", set_name="x")
        with pytest.raises(DatasetError, match="unknown kind"):
            encode_record(bogus)

    def test_unknown_code_located(self):
        payload = bytearray(
            encode_record(entity_record("insert", "P", Point(0.0, 0.0)))
        )
        payload[0] = 42
        with pytest.raises(
            DatasetError, match="unknown mutation record kind 42"
        ):
            decode_record(bytes(payload), path="x.journal")


@pytest.fixture
def journal_scene(tmp_path):
    """A durable database with an anchored base and a multi-record
    journal; yields ``(base, journal_path, boundaries, records)`` where
    ``boundaries`` are the absolute end offsets of each record."""
    journal_path = tmp_path / "db.journal"
    base = tmp_path / "base.snap"
    db = build_durable(journal_path)
    db.save(base)
    boundaries: list[int] = []
    before = db.journal.record_count

    a = db.insert_obstacle(Rect(61.0, 61.0, 63.0, 63.0))
    boundaries.append(db.journal.size)
    db.insert_obstacle(Rect(66.0, 61.0, 68.0, 64.0))
    boundaries.append(db.journal.size)
    db.insert_entity(SET_NAME, Point(64.5, 60.0))
    boundaries.append(db.journal.size)
    db.delete_obstacle(a)
    boundaries.append(db.journal.size)
    db.insert_entity(SET_NAME, Point(60.0, 66.5))
    boundaries.append(db.journal.size)
    db.delete_entity(SET_NAME, Point(64.5, 60.0))
    boundaries.append(db.journal.size)
    assert before == 0 and db.journal.record_count == 6
    db.journal.close()
    probe, records = MutationJournal.recover(journal_path)
    probe.close()
    assert len(records) == 6
    return base, journal_path, boundaries, records


class TestCrashInjection:
    def test_truncate_every_byte_offset(self, journal_scene, tmp_path):
        """Recovery after truncation at *every* byte offset restores
        exactly the longest durable record prefix — never an error,
        never a partial record."""
        __, journal_path, boundaries, records = journal_scene
        blob = journal_path.read_bytes()
        copy = tmp_path / "copy.journal"
        for offset in range(len(blob) + 1):
            copy.write_bytes(blob[:offset])
            journal, recovered = MutationJournal.recover(copy)
            journal.close()
            if offset < JOURNAL_HEADER_SIZE:
                # Torn creation: nothing was durable yet; the file is
                # reinitialised empty.
                expected_count = 0
                expected_size = JOURNAL_HEADER_SIZE
            else:
                expected_count = sum(1 for end in boundaries if end <= offset)
                expected_size = (
                    boundaries[expected_count - 1]
                    if expected_count
                    else JOURNAL_HEADER_SIZE
                )
            assert recovered == records[:expected_count], f"offset {offset}"
            assert os.path.getsize(copy) == expected_size, f"offset {offset}"

    def test_flip_one_bit_per_record(self, journal_scene, tmp_path):
        """A single flipped bit inside any record (header or payload)
        is corruption, not a crash: recovery raises a located
        DatasetError instead of applying anything."""
        __, journal_path, boundaries, __records = journal_scene
        blob = bytearray(journal_path.read_bytes())
        starts = [JOURNAL_HEADER_SIZE] + boundaries[:-1]
        copy = tmp_path / "flip.journal"
        for start, end in zip(starts, boundaries):
            for position in (
                start,  # sequence field -> header checksum
                start + RECORD_HEADER_SIZE - 2,  # record crc itself
                (start + RECORD_HEADER_SIZE + end) // 2,  # payload middle
                end - 1,  # last payload byte
            ):
                damaged = bytearray(blob)
                damaged[position] ^= 0x10
                copy.write_bytes(bytes(damaged))
                with pytest.raises(DatasetError) as err:
                    MutationJournal.recover(copy)
                message = str(err.value)
                assert str(copy) in message, message
                assert "offset" in message, message
                assert "checksum mismatch" in message, message

    def test_flipped_file_header_located(self, journal_scene, tmp_path):
        __, journal_path, __, __records = journal_scene
        blob = bytearray(journal_path.read_bytes())
        blob[9] ^= 0x01  # inside the version field
        copy = tmp_path / "head.journal"
        copy.write_bytes(bytes(blob))
        with pytest.raises(DatasetError, match="header checksum mismatch"):
            MutationJournal.recover(copy)

    def test_corruption_never_partially_applies(self, journal_scene, tmp_path):
        """load() on a corrupt journal raises before any record is
        applied — the base snapshot alone still restores cleanly."""
        base, journal_path, boundaries, __records = journal_scene
        blob = bytearray(journal_path.read_bytes())
        # Damage the *last* record: every earlier record is intact and
        # decodable, yet none of them may have been applied.
        blob[boundaries[-1] - 2] ^= 0x40
        bad = tmp_path / "bad.journal"
        bad.write_bytes(bytes(blob))
        with pytest.raises(DatasetError, match="checksum mismatch"):
            ObstacleDatabase.load(base, durable=bad)
        clean = ObstacleDatabase.load(base)
        assert len(clean.entity_tree(SET_NAME)) == 16


class TestRecovery:
    def test_recovered_database_is_bit_identical(self, tmp_path):
        journal_path = tmp_path / "db.journal"
        base = tmp_path / "base.snap"
        db = build_durable(journal_path)
        run_probes(db)  # warm the cache so the base carries graphs
        db.save(base)
        apply_mutations(db)
        live_signature = cache_signature(db)
        live_answers = run_probes(db)
        db.journal.close()

        recovered = ObstacleDatabase.load(base, durable=journal_path)
        assert cache_signature(recovered) == live_signature
        assert run_probes(recovered) == live_answers
        assert recovered._next_oid == db._next_oid
        assert len(recovered.entity_tree(SET_NAME)) == len(
            db.entity_tree(SET_NAME)
        )

    def test_torn_tail_truncated_then_replayed(self, tmp_path):
        journal_path = tmp_path / "db.journal"
        base = tmp_path / "base.snap"
        db = build_durable(journal_path)
        db.save(base)
        db.insert_obstacle(Rect(61.0, 61.0, 63.0, 63.0))
        intact = db.journal.size
        db.insert_entity(SET_NAME, Point(64.5, 60.0))
        db.journal.close()
        with open(journal_path, "r+b") as fh:
            fh.truncate(intact + 7)  # tear the second record mid-payload
        recovered = ObstacleDatabase.load(base, durable=journal_path)
        assert recovered.journal.record_count == 1
        assert os.path.getsize(journal_path) == intact
        assert len(recovered.entity_tree(SET_NAME)) == 16  # insert lost

    @pytest.mark.parametrize("shards", [None, 4])
    def test_apply_record_announces_once_and_appends_nothing(self, tmp_path, shards):
        """Replay goes through the database's apply step, not its
        journaling front door: with a journal attached nothing is
        appended, and the feed carries the record exactly once."""
        db = build_durable(tmp_path / "db.journal", shards=shards)
        heard = []
        db._feed.subscribe(lambda record, __: heard.append(record))
        obstacle = Obstacle(40, Polygon.from_rect(Rect(61.0, 61.0, 63.0, 63.0)))
        records = [
            obstacle_record("insert", "obstacles", obstacle),
            entity_record("insert", SET_NAME, Point(64.5, 60.0)),
            entity_record("delete", SET_NAME, Point(64.5, 60.0)),
            obstacle_record("delete", "obstacles", obstacle),
        ]
        for done, record in enumerate(records, 1):
            apply_record(db, record)
            assert heard == records[:done]
        assert db.journal.record_count == 0
        assert db.journal.size == JOURNAL_HEADER_SIZE
        assert db.obstacle_index.find(40) is None and db._next_oid == 41
        # A replayed delete that finds nothing is not announced.
        apply_record(db, records[-1])
        assert heard == records
        db.journal.close()

    def test_journal_keeps_recording_after_recovery(self, tmp_path):
        journal_path = tmp_path / "db.journal"
        base = tmp_path / "base.snap"
        db = build_durable(journal_path)
        db.save(base)
        db.insert_obstacle(Rect(61.0, 61.0, 63.0, 63.0))
        db.journal.close()
        recovered = ObstacleDatabase.load(base, durable=journal_path)
        assert recovered.journal.record_count == 1
        recovered.insert_entity(SET_NAME, Point(60.0, 66.5))
        recovered.journal.close()
        __, records = MutationJournal.recover(journal_path)
        assert len(records) == 2
        assert records[1][1].scope == "entity"
        assert records[1][0] > records[0][0]  # sequences stay monotonic


class TestCompaction:
    def test_explicit_compact_folds_and_truncates(self, tmp_path):
        journal_path = tmp_path / "db.journal"
        base = tmp_path / "base.snap"
        db = build_durable(journal_path)
        db.save(base)
        apply_mutations(db)
        answers = run_probes(db)
        assert db.journal.record_count == 6
        db.compact()
        assert db.journal.record_count == 0
        assert os.path.getsize(journal_path) == JOURNAL_HEADER_SIZE
        stats = db.runtime_stats()
        assert stats["compactions"] == 1
        assert stats["compaction_bytes"] > 0
        db.journal.close()
        recovered = ObstacleDatabase.load(base, durable=journal_path)
        assert run_probes(recovered) == answers

    def test_compact_requires_anchor(self, tmp_path):
        db = build_durable(tmp_path / "db.journal")
        with pytest.raises(DatasetError, match="call save"):
            db.compact()
        plain = ObstacleDatabase([Rect(1.0, 1.0, 2.0, 2.0)])
        with pytest.raises(DatasetError, match="durable"):
            plain.compact()

    def test_auto_compaction_trigger(self, tmp_path, monkeypatch):
        monkeypatch.setattr("repro.persist.journal.COMPACT_BYTES", 1)
        monkeypatch.setattr("repro.persist.journal.COMPACT_RATIO", 0.0)
        journal_path = tmp_path / "db.journal"
        base = tmp_path / "base.snap"
        db = build_durable(journal_path)
        db.save(base)
        db.insert_obstacle(Rect(61.0, 61.0, 63.0, 63.0))
        db.insert_entity(SET_NAME, Point(64.5, 60.0))
        stats = db.runtime_stats()
        assert stats["compactions"] == 2  # every mutation crosses 1 byte
        assert db.journal.record_count == 0
        db.journal.close()
        recovered = ObstacleDatabase.load(base, durable=journal_path)
        assert len(recovered.entity_tree(SET_NAME)) == 17

    def test_crash_between_base_rewrite_and_truncation(self, tmp_path):
        """The torn-compaction window: the new base is durable but the
        journal truncation never happened.  The base's folded-sequence
        stamp marks every surviving record as already applied, so
        recovery skips them all and completes the truncation — no
        double-apply."""
        journal_path = tmp_path / "db.journal"
        base = tmp_path / "base.snap"
        db = build_durable(journal_path)
        db.save(base)
        apply_mutations(db)
        answers = run_probes(db)
        stale = journal_path.read_bytes()  # the pre-compaction journal
        db.compact()
        db.journal.close()
        # Simulate kill -9 after save(base) but before journal.reset():
        # the folded records reappear in the journal file.
        journal_path.write_bytes(stale)
        recovered = ObstacleDatabase.load(base, durable=journal_path)
        assert recovered.journal.record_count == 0  # truncation completed
        assert os.path.getsize(journal_path) == JOURNAL_HEADER_SIZE
        assert len(recovered.entity_tree(SET_NAME)) == 17  # not 18
        assert run_probes(recovered) == answers
        # New mutations must out-sequence the stamp, so a second
        # recovery replays exactly the new record and nothing else.
        recovered.insert_entity(SET_NAME, Point(59.0, 59.0))
        recovered.journal.close()
        again = ObstacleDatabase.load(base, durable=journal_path)
        assert len(again.entity_tree(SET_NAME)) == 18

    def test_shape_change_reanchors(self, tmp_path):
        journal_path = tmp_path / "db.journal"
        base = tmp_path / "base.snap"
        db = build_durable(journal_path)
        # Unanchored, nothing was recoverable yet: the change truncates.
        db.insert_obstacle(Rect(65.0, 65.0, 66.0, 66.0))
        db.add_entity_set("R", [Point(71.0, 71.0)])
        assert db.journal.record_count == 0
        assert db.runtime_stats()["compactions"] == 0
        db.save(base)
        db.insert_obstacle(Rect(61.0, 61.0, 63.0, 63.0))
        db.add_entity_set("Q", [Point(70.0, 70.0)])
        # The structural change folded journal + new set into the base.
        assert db.journal.record_count == 0
        assert db.runtime_stats()["compactions"] == 1
        db.journal.close()
        recovered = ObstacleDatabase.load(base, durable=journal_path)
        assert len(recovered.entity_tree("Q")) == 1


class TestDurabilityGuards:
    def test_fresh_open_refuses_nonempty_journal(self, tmp_path):
        journal_path = tmp_path / "db.journal"
        db = build_durable(journal_path)
        db.save(tmp_path / "base.snap")
        db.insert_obstacle(Rect(61.0, 61.0, 63.0, 63.0))
        db.journal.close()
        with pytest.raises(DatasetError, match="already holds 1 record"):
            build_durable(journal_path)

    def test_fresh_open_reuses_empty_journal(self, tmp_path):
        journal_path = tmp_path / "db.journal"
        journal = MutationJournal.create(journal_path)
        journal.close()
        db = build_durable(journal_path)
        assert db.journal.record_count == 0
        db.journal.close()

    def test_durable_directory_is_a_located_error(self, tmp_path):
        """``durable=`` names one journal file; a directory is refused
        by name, by the constructor and by ``load`` alike, instead of
        failing inside ``open``."""
        with pytest.raises(DatasetError, match=str(tmp_path)):
            ObstacleDatabase([Rect(1.0, 1.0, 2.0, 2.0)], durable=tmp_path)
        base = tmp_path / "base.snap"
        ObstacleDatabase([Rect(1.0, 1.0, 2.0, 2.0)]).save(base)
        with pytest.raises(DatasetError, match=str(tmp_path)):
            ObstacleDatabase.load(base, durable=tmp_path)
        assert list(tmp_path.iterdir()) == [base]  # nothing allocated

    def test_journal_owns_its_anchor(self, tmp_path):
        """Unanchored, a journal is never due; anchored, it measures
        itself against the base file's current size."""
        journal = MutationJournal.create(tmp_path / "db.journal")
        journal.append(entity_record("insert", SET_NAME, Point(1.0, 2.0)))
        assert journal.base_path is None and not journal.due()
        base = tmp_path / "base.snap"
        base.write_bytes(b"x" * 100)
        journal.base_path = str(base)
        assert not journal.due()
        journal._size = JOURNAL_HEADER_SIZE + 65536
        assert journal.due()
        base.write_bytes(b"x" * 40000)  # 2.0 x the base now exceeds it
        assert not journal.due()
        base.unlink()  # a missing base counts as empty
        assert journal.due()
        journal.close()

    def test_default_compaction_trigger(self):
        """Unpatched, the trigger is max(65536, 2.0 x base size)."""

        def holding(record_bytes):
            size = JOURNAL_HEADER_SIZE + record_bytes
            return MutationJournal("unopened", None, size=size, records=1)

        assert not holding(65535).outgrew(0)
        assert holding(65536).outgrew(0) and holding(65536).outgrew(32768)
        assert not holding(65536).outgrew(32769)

    def test_not_durable_by_default(self):
        db = ObstacleDatabase([Rect(1.0, 1.0, 2.0, 2.0)])
        assert db.journal is None
