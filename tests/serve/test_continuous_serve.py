"""Continuous subscriptions: deltas on movement and on every mutation."""

import random

import pytest

from repro import ContinuousQueryHub, ObstacleDatabase, Point, Rect
from repro.errors import DatasetError, QueryError
from tests.conftest import random_disjoint_rects, random_free_points


def _line_db(**kwargs):
    """No obstacles initially; entities on the x-axis at known spots."""
    db = ObstacleDatabase([], **kwargs)
    db.add_entity_set(
        "pois", [Point(1, 0), Point(2, 0), Point(50, 0), Point(80, 0)]
    )
    return db


class TestSubscriptionLifecycle:
    def test_initial_result_is_published_as_added(self):
        db = _line_db()
        hub = ContinuousQueryHub(db)
        sub = hub.nearest("pois", Point(0, 0), 2)
        delta = hub.poll(sub)
        assert [p for p, __ in delta.added] == [Point(1, 0), Point(2, 0)]
        assert not delta.removed and not delta.changed
        assert not hub.poll(sub)  # quiescent: empty delta

    def test_current_matches_fresh_query(self):
        rng = random.Random(430)
        obstacles = random_disjoint_rects(rng, 8)
        points = random_free_points(rng, 12, obstacles)
        db = ObstacleDatabase(
            [o.polygon for o in obstacles], max_entries=8, min_entries=3
        )
        db.add_entity_set("pois", points[4:])
        hub = ContinuousQueryHub(db)
        sub = hub.nearest("pois", points[0], 3)
        assert sub.current == db.nearest("pois", points[0], 3)
        rsub = hub.range("pois", points[1], 30.0)
        assert rsub.current == db.range("pois", points[1], 30.0)

    def test_unsubscribe_is_idempotent_and_final(self):
        db = _line_db()
        hub = ContinuousQueryHub(db)
        sub = hub.nearest("pois", Point(0, 0), 1)
        assert len(hub) == 1
        hub.unsubscribe(sub)
        hub.unsubscribe(sub)
        assert len(hub) == 0
        with pytest.raises(QueryError, match="not active"):
            hub.poll(sub)

    def test_validation(self):
        db = _line_db()
        hub = ContinuousQueryHub(db)
        with pytest.raises(QueryError):
            hub.nearest("pois", Point(0, 0), 0)
        with pytest.raises(QueryError):
            hub.range("pois", Point(0, 0), -1.0)


class TestMovement:
    def test_move_publishes_delta(self):
        db = _line_db()
        hub = ContinuousQueryHub(db)
        sub = hub.nearest("pois", Point(0, 0), 1)
        hub.poll(sub)
        delta = hub.move(sub, Point(49, 0))
        assert [p for p, __ in delta.added] == [Point(50, 0)]
        assert [p for p, __ in delta.removed] == [Point(1, 0)]
        assert not hub.poll(sub)

    def test_small_move_changes_distances_only(self):
        db = _line_db()
        hub = ContinuousQueryHub(db)
        sub = hub.nearest("pois", Point(0, 0), 2)
        hub.poll(sub)
        delta = hub.move(sub, Point(0.5, 0))
        assert not delta.added and not delta.removed
        assert {p for p, __ in delta.changed} == {Point(1, 0), Point(2, 0)}


class TestObstacleMutations:
    def test_nearby_insert_reevaluates_and_deltas(self):
        db = _line_db()
        hub = ContinuousQueryHub(db)
        sub = hub.nearest("pois", Point(0, 0), 2)
        hub.poll(sub)
        before = sub.reevaluations
        # A wall between the client and (2, 0): inside the result disk
        # (kth distance 2), so the subscription must refresh; the NN
        # set is unchanged but (2, 0) now needs a detour.
        db.insert_obstacle(Rect(1.4, -0.5, 1.6, 0.5))
        assert sub.reevaluations == before + 1
        delta = hub.poll(sub)
        changed = dict(delta.changed)
        assert Point(2, 0) in changed
        assert changed[Point(2, 0)] > 2.0
        assert sub.current == db.nearest("pois", Point(0, 0), 2)

    def test_far_insert_is_filtered_out(self):
        db = _line_db()
        hub = ContinuousQueryHub(db)
        sub = hub.nearest("pois", Point(0, 0), 2)  # result disk radius 2
        hub.poll(sub)
        before = sub.reevaluations
        db.insert_obstacle(Rect(30, 30, 32, 32))
        assert sub.reevaluations == before  # untouched
        assert not hub.poll(sub)

    def test_delete_reevaluates_repair_first(self):
        db = _line_db()
        record = db.insert_obstacle(Rect(1.4, -0.5, 1.6, 0.5))
        hub = ContinuousQueryHub(db)
        sub = hub.nearest("pois", Point(0, 0), 2)
        hub.poll(sub)
        blocked = dict(sub.current)[Point(2, 0)]
        assert blocked > 2.0
        db.delete_obstacle(record)
        delta = hub.poll(sub)
        assert dict(delta.changed)[Point(2, 0)] == pytest.approx(2.0)
        assert sub.current == db.nearest("pois", Point(0, 0), 2)

    def test_range_subscription_uses_e_as_radius(self):
        db = _line_db()
        hub = ContinuousQueryHub(db)
        sub = hub.range("pois", Point(0, 0), 3.0)
        hub.poll(sub)
        before = sub.reevaluations
        db.insert_obstacle(Rect(10, -1, 11, 1))  # outside e=3
        assert sub.reevaluations == before
        db.insert_obstacle(Rect(1.4, -0.5, 1.6, 0.5))  # inside
        assert sub.reevaluations == before + 1
        assert sub.current == db.range("pois", Point(0, 0), 3.0)

    def test_underfilled_nearest_always_refreshes(self):
        db = ObstacleDatabase([])
        db.add_entity_set("pois", [Point(1, 0)])
        hub = ContinuousQueryHub(db)
        sub = hub.nearest("pois", Point(0, 0), 5)  # only 1 entity: unbounded
        before = sub.reevaluations
        db.insert_obstacle(Rect(90, 90, 91, 91))
        assert sub.reevaluations == before + 1

    def test_sharded_source_mutations_drive_subscriptions(self):
        rng = random.Random(431)
        obstacles = random_disjoint_rects(rng, 10)
        points = random_free_points(rng, 10, obstacles)
        db = ObstacleDatabase(
            [o.polygon for o in obstacles],
            max_entries=8,
            min_entries=3,
            shards=4,
        )
        db.add_entity_set("pois", points[2:])
        hub = ContinuousQueryHub(db)
        sub = hub.nearest("pois", points[0], 3)
        hub.poll(sub)
        q = points[0]
        db.insert_obstacle(Rect(q.x + 0.5, q.y + 0.5, q.x + 1.5, q.y + 1.5))
        assert sub.current == db.nearest("pois", points[0], 3)

    @pytest.mark.parametrize("shards", [None, 4])
    def test_obstacle_set_added_after_the_hub_is_heard(self, shards):
        db = ObstacleDatabase([], shards=shards)
        db.add_entity_set("pois", [Point(10, 0), Point(0, 30)])
        hub = ContinuousQueryHub(db)
        sub = hub.nearest("pois", Point(0, 0), 1)
        hub.poll(sub)
        db.add_obstacle_set("walls", [])
        db.insert_obstacle(Rect(4, -50, 6, 50), set_name="walls")
        assert sub.current == db.nearest("pois", Point(0, 0), 1)
        delta = hub.poll(sub)
        assert delta.added == ((Point(0, 30), 30.0),)
        assert delta.removed == ((Point(10, 0), 10.0),)

    @pytest.mark.parametrize("shards", [None, 4])
    def test_a_non_empty_obstacle_set_added_is_heard(self, shards):
        """Adding a dataset is announced on the feed: a new set's walls
        reach every subscription at once, not at its next refresh."""
        db = ObstacleDatabase([], shards=shards)
        db.add_entity_set("pois", [Point(0, 0), Point(10, 0)])
        hub = ContinuousQueryHub(db)
        sub = hub.nearest("pois", Point(4, 0), 1)
        assert hub.poll(sub).added == ((Point(0, 0), 4.0),)
        db.add_obstacle_set("walls", [Rect(1, -10, 2, 10)])
        assert sub.current == db.nearest("pois", Point(4, 0), 1)
        delta = hub.poll(sub)
        assert delta.removed == ((Point(0, 0), 4.0),)
        assert delta.added == ((Point(10, 0), 6.0),)

    def test_an_entity_set_added_costs_no_subscription_work(self):
        """A new entity set is announced too, but no standing
        subscription names it: none is re-evaluated."""
        db = _line_db()
        hub = ContinuousQueryHub(db)
        sub = hub.nearest("pois", Point(0, 0), 2)
        rsub = hub.range("pois", Point(0, 0), 3.0)
        before = sub.reevaluations, rsub.reevaluations
        db.add_entity_set("stops", [Point(0, 1)])
        assert (sub.reevaluations, rsub.reevaluations) == before
        # A subscription on a set that does not exist is never registered.
        with pytest.raises(DatasetError, match="nope"):
            hub.nearest("nope", Point(0, 0), 1)
        assert len(hub) == 2


class TestEntityMutations:
    def test_delete_and_insert_in_the_result_disk_refresh(self):
        db = _line_db()
        hub = ContinuousQueryHub(db)
        sub = hub.nearest("pois", Point(0, 0), 2)
        rsub = hub.range("pois", Point(0, 0), 3.0)
        hub.poll(sub)
        hub.poll(rsub)
        assert db.delete_entity("pois", Point(1, 0))
        assert sub.current == db.nearest("pois", Point(0, 0), 2)
        assert rsub.current == db.range("pois", Point(0, 0), 3.0)
        delta = hub.poll(sub)
        assert delta.removed == ((Point(1, 0), 1.0),)
        assert delta.added == ((Point(50, 0), 50.0),)
        assert hub.poll(rsub).removed == ((Point(1, 0), 1.0),)
        db.insert_entity("pois", Point(0, 1.5))
        assert sub.current == db.nearest("pois", Point(0, 0), 2)
        assert rsub.current == db.range("pois", Point(0, 0), 3.0)
        delta = hub.poll(sub)
        assert delta.added == ((Point(0, 1.5), 1.5),)
        assert delta.removed == ((Point(50, 0), 50.0),)
        assert hub.poll(rsub).added == ((Point(0, 1.5), 1.5),)

    def test_entities_outside_the_disk_or_the_set_do_no_work(self):
        db = _line_db()
        db.add_entity_set("stops", [Point(0, 1)])
        hub = ContinuousQueryHub(db)
        sub = hub.nearest("pois", Point(0, 0), 2)  # result disk radius 2
        rsub = hub.range("pois", Point(0, 0), 3.0)
        before = sub.reevaluations, rsub.reevaluations
        db.insert_entity("pois", Point(40, 0))  # outside both disks
        assert db.delete_entity("pois", Point(80, 0))
        db.insert_entity("stops", Point(0, 0.5))  # inside, another set
        assert not db.delete_entity("pois", Point(1.5, 0))  # found nothing
        assert (sub.reevaluations, rsub.reevaluations) == before
        db.insert_entity("pois", Point(2.5, 0))  # inside e = 3 only
        assert (sub.reevaluations, rsub.reevaluations) == (before[0], before[1] + 1)
        assert rsub.current == db.range("pois", Point(0, 0), 3.0)

    def test_underfilled_nearest_hears_every_entity(self):
        db = ObstacleDatabase([])
        db.add_entity_set("pois", [Point(1, 0)])
        hub = ContinuousQueryHub(db)
        sub = hub.nearest("pois", Point(0, 0), 2)  # 1 of 2: unbounded disk
        db.insert_entity("pois", Point(500, 0))
        assert sub.current == db.nearest("pois", Point(0, 0), 2)
        assert len(sub.current) == 2

    def test_dropped_hub_stops_listening(self):
        """The feed holds its listeners weakly: a hub nobody keeps is
        collected and pruned, not re-evaluated for ever."""
        import gc

        db = _line_db()
        hub = ContinuousQueryHub(db)
        sub = hub.nearest("pois", Point(0, 0), 1)
        del hub
        gc.collect()
        before = sub.reevaluations
        db.insert_entity("pois", Point(0.5, 0))
        assert sub.reevaluations == before
        assert db._feed._subs == []

    def test_entity_refresh_hook(self):
        db = _line_db()
        hub = ContinuousQueryHub(db)
        sub = hub.nearest("pois", Point(0, 0), 1)
        hub.poll(sub)
        # A write made at the tree, behind the database's back, is not
        # announced: the subscription waits for refresh (or a move).
        db.entity_tree("pois").insert(Point(0.5, 0), Rect.from_point(Point(0.5, 0)))
        assert not hub.poll(sub)
        hub.refresh(sub)
        delta = hub.poll(sub)
        assert [p for p, __ in delta.added] == [Point(0.5, 0)]
        assert [p for p, __ in delta.removed] == [Point(1, 0)]
