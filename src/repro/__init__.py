"""repro — Spatial Queries in the Presence of Obstacles.

A complete reproduction of Zhang, Papadias, Mouratidis & Zhu,
*Spatial Queries in the Presence of Obstacles*, EDBT 2004: obstructed
range search, nearest neighbours, e-distance joins and closest pairs
over R*-tree-indexed entities and polygonal obstacles, built on local
visibility graphs constructed on-line.

Quickstart::

    from repro import ObstacleDatabase, Point, Rect

    db = ObstacleDatabase([Rect(2, 2, 4, 8)])        # obstacles
    db.add_entity_set("cafes", [Point(5, 5), Point(0, 5)])
    db.nearest("cafes", Point(1, 5), k=1)            # obstructed 1-NN

Architecture: each query of the paper is one function in
:mod:`repro.core` — a Euclidean R*-tree query (:mod:`repro.euclidean`)
yields candidates, and a per-database
:class:`~repro.runtime.context.QueryContext` (:mod:`repro.runtime`)
refines them under the obstructed metric.  The context owns a
persistent, versioned LRU cache of local visibility graphs, repaired
in place on dynamic obstacle updates
(:meth:`~repro.core.engine.ObstacleDatabase.insert_obstacle`); batch
entry points (:meth:`~repro.core.engine.ObstacleDatabase.batch_nearest`,
:meth:`~repro.core.engine.ObstacleDatabase.batch_range`) amortize one
context across whole workloads.  The serving tier
(:mod:`repro.serve`) layers a persistent snapshot-warm-started worker
pool, an asyncio microbatching front-end, and continuous query
subscriptions for moving clients on top of the same runtime.
"""

from repro.errors import (
    DatasetError,
    GeometryError,
    QueryError,
    ReproError,
    SpatialIndexError,
    UnreachableError,
)
from repro.geometry import Circle, Point, Polygon, Rect
from repro.model import Obstacle
from repro.index import RStarTree, str_pack, hilbert_index
from repro.visibility import (
    VisibilityBackend,
    VisibilityGraph,
    available_backends,
    resolve_backend,
)
from repro.visibility.tangent import prune_to_tangent
from repro.core.continuous import NNInterval, PathNearestNeighbor, path_nearest
from repro.render import save_svg, scene_to_svg
from repro.runtime import (
    QueryContext,
    RuntimeStats,
    VisibilityGraphCache,
)
from repro.persist import load_database, save_database, snapshot_info
from repro.core import (
    CompositeObstacleIndex,
    ObstacleDatabase,
    ObstacleIndex,
    iter_obstacle_closest_pairs,
    iter_obstacle_nearest,
    obstacle_closest_pairs,
    obstacle_distance_join,
    obstacle_nearest,
    obstacle_range,
    obstacle_semijoin,
)
from repro.serve import (
    ContinuousQueryHub,
    LatencyHistogram,
    PersistentWorkerPool,
    QueryServer,
    ResultDelta,
    ServeStats,
    Subscription,
)

__version__ = "1.2.0"

__all__ = [
    "__version__",
    # errors
    "ReproError",
    "GeometryError",
    "SpatialIndexError",
    "DatasetError",
    "QueryError",
    "UnreachableError",
    # geometry & model
    "Point",
    "Rect",
    "Polygon",
    "Circle",
    "Obstacle",
    # index
    "RStarTree",
    "str_pack",
    "hilbert_index",
    # visibility
    "VisibilityBackend",
    "VisibilityGraph",
    "available_backends",
    "resolve_backend",
    "prune_to_tangent",
    # extensions
    "NNInterval",
    "PathNearestNeighbor",
    "path_nearest",
    "scene_to_svg",
    "save_svg",
    # persistence
    "save_database",
    "load_database",
    "snapshot_info",
    # query runtime
    "QueryContext",
    "RuntimeStats",
    "VisibilityGraphCache",
    # core queries
    "ObstacleDatabase",
    "ObstacleIndex",
    "CompositeObstacleIndex",
    "obstacle_range",
    "obstacle_nearest",
    "iter_obstacle_nearest",
    "obstacle_distance_join",
    "obstacle_closest_pairs",
    "iter_obstacle_closest_pairs",
    "obstacle_semijoin",
    # serving tier
    "PersistentWorkerPool",
    "QueryServer",
    "ContinuousQueryHub",
    "Subscription",
    "ResultDelta",
    "ServeStats",
    "LatencyHistogram",
]
