"""Straight legs first: ``d_O(p, q)`` is ``p.distance(q)`` iff ``p`` and
``q`` see each other (the equality case of the paper's ``d_O >= d_E``).

Every query path applies that rule before it reads a graph, so a pair
that sees each other reads the same float whichever end the graph is
built around and whichever query asks.
"""

from math import inf

import pytest

from repro import ObstacleDatabase, Point, Polygon, Rect

BACKENDS = ["naive", "numpy-kernel"]

#: ROADMAP item 1, defect (i): ``p`` sees ``q`` past the squares
#: ``[0, 1]^2`` and ``[4, 8] x [0, 1]``, and the straight leg rounds to
#: ``4.737865244818516``.  Through the corner ``(4, 0)``, which the
#: segment does not support, the rounded legs sum to ``...515``: a
#: field rooted at ``q`` probed ``p`` over that corner and undercut
#: the straight leg by an ulp, so ``d_O`` depended on argument order.
P = Point(0.0, -5.960464477539063e-08)
Q = Point(4.737865244818515, 0.0)
WALLS = [Rect(0, 0, 1, 1), Rect(4, 0, 8, 1)]
STRAIGHT = P.distance(Q)

ASKS = {
    "distance p q": lambda db: db.obstructed_distance(P, Q),
    "distance q p": lambda db: db.obstructed_distance(Q, P),
    "range from q": lambda db: db.range("P", Q, 5.0)[0][1],
    "range from p": lambda db: db.range("Q", P, 5.0)[0][1],
    "nearest from q": lambda db: db.nearest("P", Q, 1)[0][1],
    "nearest from p": lambda db: db.nearest("Q", P, 1)[0][1],
    "join Q P": lambda db: db.distance_join("Q", "P", 5.0)[0][2],
    "join P Q": lambda db: db.distance_join("P", "Q", 5.0)[0][2],
    "closest pairs P Q": lambda db: db.closest_pairs("P", "Q", 1)[0][2],
    "closest pairs Q P": lambda db: db.closest_pairs("Q", "P", 1)[0][2],
    "batch distance": lambda db: db.batch_distance([(P, Q), (Q, P)]),
    "batch range": lambda db: db.batch_range("P", [Q], 5.0)[0][0][1],
    "batch nearest": lambda db: db.batch_nearest("P", [Q], 1)[0][0][1],
    "shortest path p q": lambda db: db.shortest_path(P, Q),
    "shortest path q p": lambda db: db.shortest_path(Q, P),
}

WANT = {
    "batch distance": [STRAIGHT, STRAIGHT],
    "shortest path p q": (STRAIGHT, [P, Q]),
    "shortest path q p": (STRAIGHT, [Q, P]),
}


def _database(backend):
    db = ObstacleDatabase(WALLS, max_entries=8, min_entries=3, backend=backend)
    db.add_entity_set("P", [P])
    db.add_entity_set("Q", [Q])
    return db


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_pair_in_sight_reads_its_straight_leg_on_every_path(backend):
    """Each query on a cold database, then all of them in turn on one
    warm database: every distance is the straight leg, and the route is
    the segment itself."""
    assert repr(STRAIGHT) == "4.737865244818516"
    warm = _database(backend)
    for name, ask in ASKS.items():
        want = WANT.get(name, STRAIGHT)
        assert ask(_database(backend)) == want, name
        assert ask(warm) == want, name


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_pending_entry_saved_and_loaded_answers_identically(backend, tmp_path):
    """A pair in sight leaves its cache entry registered, nodes pending;
    a save writes it as registered and the load keeps it pending, and
    the loaded database answers every pair — in sight or behind the
    walls — as the live one and a cold ``naive`` one do."""
    db = _database(backend)
    assert db.obstructed_distance(P, Q) == STRAIGHT
    (entry,) = db.context.cache.entries()
    assert entry.graph.pending and entry.graph.edge_count == 0
    path = tmp_path / "pending.snap"
    db.save(path, include_cache=True)
    loaded = ObstacleDatabase.load(path, backend=backend)
    (restored,) = loaded.context.cache.entries()
    assert restored.graph.pending and restored.graph.edge_count == 0
    cold = _database("naive")
    above, below = Point(6.0, 2.0), Point(6.0, -1.0)
    # The rectangle [4, 8] x [0, 1] hides Q and ``below`` from ``above``.
    pairs = [(P, Q), (Q, P), (above, Q), (below, Q), (below, above)]
    assert cold.obstructed_distance(above, Q) > above.distance(Q)
    for a, b in pairs:
        want = cold.obstructed_distance(a, b)
        assert loaded.obstructed_distance(a, b) == want, (a, b)
        assert db.obstructed_distance(a, b) == want, (a, b)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("x", [5e-324, 1e-300])
def test_a_point_inside_an_obstacle_at_an_underflowing_length_is_unreachable(
    backend, x
):
    """Defect (k): ``q`` lies strictly inside the unit square, so close
    to ``p`` on its edge that ``dx * dx`` underflows and ``|pq|`` is 0.
    The retrieval around the goal still runs, finds the square, and no
    path reaches ``q``: ``inf`` in either argument order."""
    p, q = Point(0.0, 0.9), Point(x, 0.9)
    assert p != q and p.distance(q) == 0.0
    assert Polygon.from_rect(Rect(0, 0, 1, 1)).contains(q)
    for a, b in ((p, q), (q, p)):
        db = ObstacleDatabase([Rect(0, 0, 1, 1)], backend=backend)
        assert db.obstructed_distance(a, b) == inf, (a, b)
