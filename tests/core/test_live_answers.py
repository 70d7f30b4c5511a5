"""A live database answers after every mutation as a fresh query does.

Each test asks ``db.nearest`` / ``db.range`` on one database before and
after obstacle and entity writes: a wall inside the result disk adds a
detour, one outside changes nothing, deleting it restores the straight
line, obstacle and entity sets added later take part at once, and
sharded storage answers as monolithic storage does.
"""

import random

import pytest

from repro import ObstacleDatabase, Point, Rect
from tests.conftest import random_disjoint_rects, random_free_points

BACKENDS = ["naive", "numpy-kernel"]


def _line_db(**kwargs):
    """No obstacles initially; entities on the x-axis at known spots."""
    db = ObstacleDatabase([], **kwargs)
    db.add_entity_set(
        "pois", [Point(1, 0), Point(2, 0), Point(50, 0), Point(80, 0)]
    )
    return db


class TestObstacleMutations:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_a_nearby_wall_adds_a_detour(self, backend):
        db = _line_db(backend=backend)
        assert db.nearest("pois", Point(0, 0), 2) == [
            (Point(1, 0), 1.0),
            (Point(2, 0), 2.0),
        ]
        # A wall between the client and (2, 0), inside the result disk:
        # the nearest set is unchanged but (2, 0) now needs a detour.
        db.insert_obstacle(Rect(1.4, -0.5, 1.6, 0.5))
        answer = dict(db.nearest("pois", Point(0, 0), 2))
        assert answer[Point(1, 0)] == 1.0
        detour = Point(0, 0).distance(Point(1.4, 0.5)) + 0.2
        detour += Point(1.6, 0.5).distance(Point(2, 0))
        assert answer[Point(2, 0)] == pytest.approx(detour)

    def test_a_far_obstacle_changes_no_answer(self):
        db = _line_db()
        nearest = db.nearest("pois", Point(0, 0), 2)
        ranged = db.range("pois", Point(0, 0), 3.0)
        db.insert_obstacle(Rect(30, 30, 32, 32))
        assert db.nearest("pois", Point(0, 0), 2) == nearest
        assert db.range("pois", Point(0, 0), 3.0) == ranged

    def test_deleting_the_wall_restores_the_straight_line(self):
        db = _line_db()
        record = db.insert_obstacle(Rect(1.4, -0.5, 1.6, 0.5))
        assert dict(db.nearest("pois", Point(0, 0), 2))[Point(2, 0)] > 2.0
        assert db.delete_obstacle(record)
        assert db.nearest("pois", Point(0, 0), 2) == [
            (Point(1, 0), 1.0),
            (Point(2, 0), 2.0),
        ]

    def test_range_follows_walls_inside_e_only(self):
        db = _line_db()
        db.insert_obstacle(Rect(10, -1, 11, 1))  # outside e = 3
        assert db.range("pois", Point(0, 0), 3.0) == [
            (Point(1, 0), 1.0),
            (Point(2, 0), 2.0),
        ]
        db.insert_obstacle(Rect(1.4, -0.5, 1.6, 0.5))  # inside
        answer = dict(db.range("pois", Point(0, 0), 3.0))
        assert answer[Point(1, 0)] == 1.0
        assert 2.0 < answer[Point(2, 0)] <= 3.0

    def test_an_underfilled_nearest_answers_every_entity(self):
        db = ObstacleDatabase([])
        db.add_entity_set("pois", [Point(1, 0)])
        assert db.nearest("pois", Point(0, 0), 5) == [(Point(1, 0), 1.0)]
        db.insert_obstacle(Rect(90, 90, 91, 91))
        assert db.nearest("pois", Point(0, 0), 5) == [(Point(1, 0), 1.0)]
        db.insert_entity("pois", Point(500, 0))
        assert db.nearest("pois", Point(0, 0), 5) == [
            (Point(1, 0), 1.0),
            (Point(500, 0), 500.0),
        ]

    def test_sharded_mutations_answer_as_monolithic(self):
        rng = random.Random(431)
        obstacles = random_disjoint_rects(rng, 10)
        points = random_free_points(rng, 10, obstacles)
        dbs = []
        for shards in (4, None):
            db = ObstacleDatabase(
                [o.polygon for o in obstacles],
                max_entries=8,
                min_entries=3,
                shards=shards,
            )
            db.add_entity_set("pois", points[2:])
            db.nearest("pois", points[0], 3)  # warm the cache first
            q = points[0]
            db.insert_obstacle(Rect(q.x + 0.5, q.y + 0.5, q.x + 1.5, q.y + 1.5))
            dbs.append(db)
        sharded, mono = dbs
        for q in points[:2]:
            assert sharded.nearest("pois", q, 3) == mono.nearest("pois", q, 3)
            assert sharded.range("pois", q, 30.0) == mono.range("pois", q, 30.0)

    @pytest.mark.parametrize("shards", [None, 4])
    def test_an_obstacle_set_added_later_takes_part(self, shards):
        db = ObstacleDatabase([], shards=shards)
        db.add_entity_set("pois", [Point(10, 0), Point(0, 30)])
        assert db.nearest("pois", Point(0, 0), 1) == [(Point(10, 0), 10.0)]
        db.add_obstacle_set("walls", [])
        db.insert_obstacle(Rect(4, -50, 6, 50), set_name="walls")
        assert db.nearest("pois", Point(0, 0), 1) == [(Point(0, 30), 30.0)]

    @pytest.mark.parametrize("shards", [None, 4])
    def test_a_non_empty_obstacle_set_added_takes_part(self, shards):
        db = ObstacleDatabase([], shards=shards)
        db.add_entity_set("pois", [Point(0, 0), Point(10, 0)])
        assert db.nearest("pois", Point(4, 0), 1) == [(Point(0, 0), 4.0)]
        db.add_obstacle_set("walls", [Rect(1, -10, 2, 10)])
        assert db.nearest("pois", Point(4, 0), 1) == [(Point(10, 0), 6.0)]


class TestEntityMutations:
    def test_an_entity_set_added_leaves_other_answers(self):
        db = _line_db()
        nearest = db.nearest("pois", Point(0, 0), 2)
        db.add_entity_set("stops", [Point(0, 1)])
        assert db.nearest("pois", Point(0, 0), 2) == nearest
        assert db.nearest("stops", Point(0, 0), 1) == [(Point(0, 1), 1.0)]

    def test_delete_and_insert_in_the_result_disk(self):
        db = _line_db()
        assert db.delete_entity("pois", Point(1, 0))
        assert db.nearest("pois", Point(0, 0), 2) == [
            (Point(2, 0), 2.0),
            (Point(50, 0), 50.0),
        ]
        assert db.range("pois", Point(0, 0), 3.0) == [(Point(2, 0), 2.0)]
        db.insert_entity("pois", Point(0, 1.5))
        assert db.nearest("pois", Point(0, 0), 2) == [
            (Point(0, 1.5), 1.5),
            (Point(2, 0), 2.0),
        ]
        assert db.range("pois", Point(0, 0), 3.0) == [
            (Point(0, 1.5), 1.5),
            (Point(2, 0), 2.0),
        ]

    def test_entities_outside_the_disk_or_the_set_change_nothing(self):
        db = _line_db()
        db.add_entity_set("stops", [Point(0, 1)])
        nearest = db.nearest("pois", Point(0, 0), 2)
        ranged = db.range("pois", Point(0, 0), 3.0)
        db.insert_entity("pois", Point(40, 0))  # outside both disks
        assert db.delete_entity("pois", Point(80, 0))
        db.insert_entity("stops", Point(0, 0.5))  # inside, another set
        assert not db.delete_entity("pois", Point(1.5, 0))  # found nothing
        assert db.nearest("pois", Point(0, 0), 2) == nearest
        assert db.range("pois", Point(0, 0), 3.0) == ranged
        db.insert_entity("pois", Point(2.5, 0))  # inside e = 3 only
        assert db.nearest("pois", Point(0, 0), 2) == nearest
        assert db.range("pois", Point(0, 0), 3.0) == ranged + [(Point(2.5, 0), 2.5)]

    def test_a_write_at_the_entity_tree_is_answered(self):
        db = _line_db()
        assert db.nearest("pois", Point(0, 0), 1) == [(Point(1, 0), 1.0)]
        # Entity answers read the tree itself: a write made there, behind
        # the database's back, is seen by the next query.
        db.entity_tree("pois").insert(Point(0.5, 0), Rect.from_point(Point(0.5, 0)))
        assert db.nearest("pois", Point(0, 0), 1) == [(Point(0.5, 0), 0.5)]
