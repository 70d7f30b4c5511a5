"""`QueryContext` — the shared execution state of the query runtime.

Every obstructed query in the paper runs the same machinery: retrieve
relevant obstacles from the R*-tree, grow a local visibility graph,
run shortest-path computations over it (Fig. 8).  The seed code
re-instantiated that machinery per query (and per
``obstructed_distance`` call); a :class:`QueryContext` owns it once —
the obstacle source, the versioned LRU graph cache, and the stats
hooks — so consecutive queries amortize each other's work:

* graphs are keyed by expansion centre and reused across query types
  (a ``distance`` call primes the graph a later ``nearest`` uses);
  with a positive ``snap`` quantum the key is spatial, so
  near-duplicate centres (moving queries, dense batches) share one
  graph through the coverage guard of :meth:`entry_for`;
* each graph tracks its obstacle *coverage radius* and its *clear
  radius*, below which no obstacle lies that the graph lacks, so Fig.
  8's iterative range enlargement skips retrievals that cannot surface
  anything new: a radius already covered or inside the clear radius;
* straight legs first: a cached graph is *registered* (its nodes
  pending), a pair that sees each other past its obstacles is answered
  by its straight leg, and the graph is connected only when some query
  needs a bend;
* a distance join's seeds are handed over together
  (:meth:`QueryContext.refine_many`): the cache sees the per-seed
  calls, and one backend call connects the graphs of the seeds with a
  hidden candidate;
* dynamic obstacle updates are routed repair-first: the context
  subscribes to the source's mutation feed and patches affected cached
  graphs in place (``add_obstacle`` on insert, ``remove_obstacle``'s
  local repair on delete), falling back to version-based lazy
  invalidation (and a rebuild at next lookup) only when repair is not
  possible.
"""

from __future__ import annotations

from math import hypot, inf
from typing import Iterable, Sequence

from repro.core.distance import ObstacleSource, SourceDistanceField
from repro.euclidean.range import clear_of
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.model import Obstacle
from repro.obs.trace import TRACER
from repro.runtime.cache import CachedGraph, VisibilityGraphCache
from repro.runtime.policy import CachePolicy, resolve_cache_policy
from repro.runtime.stats import RuntimeStats
from repro.visibility.csr import frozen
from repro.visibility.graph import VisibilityGraph
from repro.visibility.kernel.backend import resolve_backend

# benchmarks/e2e/e2e_trace.py wraps this name (a `visibility.dijkstra` wrap point).
shortest_path_dist = None


#: Above this node count an in-place delete-repair costs more than the
#: from-scratch rebuild it replaces, so the affected entry is discarded
#: instead (rebuild-fallback at its next lookup — if there is one).
#: Measured on street-grid scenes with the repair's exact tests
#: batched over arrays, repair as a share of rebuild, mean over eight
#: victims spread from the scene's centre to its rim: 0.39x at 129
#: nodes (12 vs 31 ms), 0.46x at 257 (59 vs 129 ms), 0.57x at 513
#: (406 vs 712 ms), 0.92x at 1,025 (3.23 vs 3.50 s) — the most central
#: victim alone costs 0.8x / 1.0x / 1.3x / 2.0x, a rim one 0.01-0.05x.
#: (With the scalar repair the shares were 0.74 / 0.82 / 0.92 / 0.87x
#: and the constant 256.)
DELETE_REPAIR_NODE_LIMIT = 1024


class QueryContext:
    """Shared obstacle source + graph cache + stats for many queries.

    Parameters
    ----------
    source:
        The obstacle source (an
        :class:`~repro.core.source.ObstacleIndex`, a composite, or any
        :class:`~repro.core.distance.ObstacleSource`).  If it answers
        ``version_for(center, radius)``, a cached graph is invalidated
        once the tuple for its coverage disk moves (see
        :meth:`version_for`); if it additionally exposes ``subscribe``,
        mutations are repaired in place instead (repair-first,
        rebuild-fallback).
    cache_size:
        LRU capacity of the visibility-graph cache.
    snap:
        Spatial-key quantum of the cache (0 = exact centre keys; a
        positive value lets near-duplicate centres share graphs, see
        :class:`~repro.runtime.cache.VisibilityGraphCache`).
    stats:
        Optional shared counters (one per database, by default).
    backend:
        The name of the visibility backend every graph built by this
        context uses: ``"numpy-kernel"`` (``None``), or ``"naive"``,
        the scalar oracle.  The resolved backend (:attr:`backend`)
        shares this context's stats, so ``sweeps_run`` /
        ``sweep_events`` / ``sweep_seconds`` account all anchor work.
    policy:
        The cache policy (a name — ``"static"``, ``"adaptive"`` — or a
        :class:`~repro.runtime.policy.CachePolicy` instance).  ``None``
        is static.  The adaptive policy observes every lookup centre
        and retunes the cache's snap quantum / capacity online;
        answers are bit-identical under any policy (reuse stays behind
        the coverage guard — the policy only moves keys and capacity).
    """

    def __init__(
        self,
        source: ObstacleSource,
        *,
        cache_size: int = 64,
        snap: float = 0.0,
        stats: RuntimeStats | None = None,
        backend: "str | None" = None,
        policy: "str | CachePolicy | None" = None,
    ) -> None:
        self.source = source
        self.stats = stats if stats is not None else RuntimeStats()
        self.backend = resolve_backend(backend, stats=self.stats)
        self.stats.backend = self.backend.name
        self.cache = VisibilityGraphCache(
            cache_size, snap=snap, stats=self.stats
        )
        self.policy = resolve_cache_policy(policy)
        self.policy.attach(self.cache, self.stats)
        #: Entry ids (by identity) whose stamps were fresh at the last
        #: ``pre-`` mutation notification — the only entries the
        #: matching post-notification may repair-and-re-stamp.
        self._repairable: frozenset[int] = frozenset()
        subscribe = getattr(source, "subscribe", None)
        if subscribe is not None:
            subscribe(self._on_obstacle_mutation)

    # ------------------------------------------------------------- versioning
    def version_for(self, center: Point, radius: float) -> tuple[int, ...]:
        """The source's stamp of ``disk(center, radius)`` (``()`` for a
        static source without ``version_for``).  A cached graph is
        fresh iff its ``version`` equals this for its own centre and
        coverage radius."""
        version_for = getattr(self.source, "version_for", None)
        return () if version_for is None else version_for(center, radius)

    @property
    def version(self) -> tuple[int, ...]:
        """The stamp of the whole plane: moves on any mutation."""
        return self.version_for(Point(0.0, 0.0), inf)

    def invalidate(self) -> None:
        """Drop every cached graph (e.g. after swapping the source)."""
        self.cache.clear()

    # --------------------------------------------------------- repair plumbing
    def _on_obstacle_mutation(self, kind: str, obstacle: Obstacle) -> None:
        """Repair-first maintenance of the cached graphs around one
        source mutation (the source's feed calls this synchronously,
        once just before the mutation is applied — ``pre-insert`` /
        ``pre-delete`` — and once just after).  Both passes visit every
        cached entry.

        The ``pre-`` pass records which entries are fresh against the
        *pre-mutation* stamps: only those are patched in place and
        re-stamped by the post pass.  An entry already stale at that
        point missed a mutation applied behind the feed's back (e.g. a
        direct tree edit); applying just this mutation and
        taking a fresh stamp would silently absorb the missed one, so
        such entries are discarded instead (rebuild at next lookup).
        """
        if kind in ("pre-insert", "pre-delete"):
            self._repairable = frozenset(
                id(entry)
                for entry in self.cache.entries()
                if entry.fresh(self.version_for)
            )
            return
        repairable = self._repairable
        self._repairable = frozenset()
        for entry in self.cache.entries():
            if id(entry) in repairable:
                self._repair_entry(entry, kind, obstacle)
            else:
                self.cache.discard(entry)

    def _repair_entry(
        self, entry: CachedGraph, kind: str, obstacle: Obstacle
    ) -> None:
        """Patch one cached graph in place for a single mutation, then
        refresh its version stamp; on failure discard the entry so the
        next lookup rebuilds (rebuild-fallback).

        The caller guarantees the entry was fresh immediately before
        this mutation (the ``pre-`` notification pass), so the patched
        graph plus the fresh stamp describe exactly the current
        obstacle set."""
        graph = entry.graph
        try:
            with TRACER.span("graph.repair", kind=kind):
                if kind == "delete":
                    if (
                        graph.has_obstacle(obstacle.oid)
                        and graph.node_count > DELETE_REPAIR_NODE_LIMIT
                    ):
                        # The local repair would cost more than a
                        # fresh build of a graph this size: fall back
                        # to rebuild.
                        self.cache.discard(entry)
                        return
                    if graph.remove_obstacle(obstacle.oid):
                        self.stats.graph_cache_repairs += 1
                        TRACER.count("graph_cache.repair")
                else:
                    disk = Circle(entry.center, entry.covered)
                    # Same filter/refinement as obstacles_in_range:
                    # only an obstacle intersecting the coverage disk
                    # enters the graph, keeping repair identical to a
                    # from-scratch rebuild over the same disk; one
                    # outside it bounds the clear radius instead.
                    if not disk.intersects_polygon(obstacle.polygon):
                        d = obstacle.polygon.distance_to_point(entry.center)
                        entry.clear_d = min(entry.clear_d, d)
                    elif graph.add_obstacle(obstacle):
                        self.stats.graph_cache_repairs += 1
                        TRACER.count("graph_cache.repair")
        except Exception:
            self.cache.discard(entry)
            return
        entry.version = self.version_for(entry.center, entry.covered)

    # ------------------------------------------------------------ graph reuse
    def entry_for(self, center: Point, radius: float = 0.0) -> CachedGraph:
        """The cached graph serving ``center``, covering ``radius``.

        On a miss the graph is registered over the obstacles
        intersecting the disk ``(center, radius)``, its nodes pending.
        A hit may return an entry whose own centre differs from
        ``center`` (spatial keys): it is valid only once its coverage
        disk contains ``disk(center, radius)``, so an under-covered
        entry is topped up around its *own* centre by the widened
        radius (extend-and-promote) before being served.  An off-centre
        ``center`` does not become a node: queries only read the graph.
        """
        self.policy.observe(center)
        entry = self.cache.get(center, self.version_for)
        if entry is None:
            with TRACER.span("graph.build", radius=radius) as span:
                # Stamp before retrieving: the stamp must never
                # post-date the obstacle set the graph is built from.
                stamp = self.version_for(center, radius)
                obstacles = (
                    self.source.obstacles_in_range(center, radius)
                    if radius > 0
                    else []
                )
                span.set_attr("obstacles", len(obstacles))
                graph = VisibilityGraph.registered(
                    [center], obstacles, method=self.backend
                )
            self.stats.graph_builds += 1
            entry = CachedGraph(graph, center, radius, stamp, *clear_of(obstacles))
            self.cache.put(entry)
            return entry
        required = self.required_radius(entry, center, radius)
        if required > entry.covered:
            if entry.center != center:
                self.stats.graph_cache_promotions += 1
            # A hit is never stale: the cache drops stale entries.
            self._expand(entry, required)
        return entry

    @staticmethod
    def required_radius(
        entry: CachedGraph, center: Point, radius: float
    ) -> float:
        """The coverage radius around the *entry's* centre that
        guarantees ``disk(center, radius)`` is covered (the spatial
        reuse guard: centre offset widens the requirement)."""
        if center == entry.center:
            return radius
        return entry.center.distance(center) + radius

    def cover(self, entry: CachedGraph, center: Point, radius: float) -> bool:
        """:meth:`ensure_coverage` for a disk around an arbitrary
        ``center`` (possibly off the entry's own centre)."""
        return self.ensure_coverage(
            entry, self.required_radius(entry, center, radius)
        )

    def ensure_coverage(self, entry: CachedGraph, radius: float) -> bool:
        """Guarantee all obstacles within ``radius`` of the entry's centre
        are in its graph, *against the current obstacle version*.

        Returns ``True`` when the graph's obstacle set actually changed
        — exactly the "new obstacles appeared" signal Fig. 8's fixpoint
        iteration terminates on.  When the requested radius is already
        covered (and the version unchanged), no retrieval is performed
        at all.

        Holders of a live entry (a distance field mid-iteration) may
        outlive a dynamic obstacle update; mutations routed through the
        source's feed repair the entry in place, but mutations applied
        behind the runtime's back (direct tree edits) only move the
        version, so staleness is re-checked here: on version drift the
        graph is rebuilt in place over the current obstacle set
        (covering at least its previous radius), keeping every held
        reference valid and fresh.
        """
        if not entry.fresh(self.version_for):
            # In-place refresh of a held entry: booked as a rebuild,
            # not as a cache invalidation (the entry is never dropped)
            # nor a fresh build.
            radius = max(radius, entry.covered)
            stamp = self.version_for(entry.center, radius)
            obstacles = (
                self.source.obstacles_in_range(entry.center, radius)
                if radius > 0
                else []
            )
            with TRACER.span(
                "graph.rebuild", radius=radius, obstacles=len(obstacles)
            ):
                entry.graph.rebuild(obstacles)
            self.stats.graph_rebuilds += 1
            entry.version = stamp
            entry.covered = radius
            entry.clear_sq, entry.clear_d = clear_of(obstacles)
            return True
        if radius <= entry.covered:
            return False
        return self._expand(entry, radius)

    def _expand(self, entry: CachedGraph, radius: float) -> bool:
        """Fig. 8's enlargement of a fresh entry to ``radius`` (beyond
        its coverage): one retrieval, one growth step of the graph (its
        new nodes pending), and the stamp of the grown disk, taken
        before the retrieval.  Inside the clear radius — the filter's
        and the refinement's own floats — the retrieval would return
        the graph's obstacles, so none is made."""
        self.stats.coverage_expansions += 1
        stamp = self.version_for(entry.center, radius)
        if radius * radius < entry.clear_sq and radius < entry.clear_d:
            self.stats.clear_radius_skips += 1
            TRACER.count("graph_cache.clear_skip")
            added = 0
        else:
            with TRACER.span("graph.expand", radius=radius):
                found = self.source.obstacles_in_range(entry.center, radius)
                added = entry.graph.add_obstacles(found)
            entry.clear_sq, entry.clear_d = clear_of(found)
        self.stats.obstacles_added += added
        entry.version = stamp
        entry.covered = radius
        return added > 0

    # ----------------------------------------------------------- evaluations
    def distance(self, p: Point, q: Point, *, bound: float = inf) -> float:
        """Obstructed distance ``d_O(p, q)`` (paper Fig. 8): the
        distance field rooted at ``p`` over the graph cached for ``q``
        (the expansion centre), read at ``q``.

        The entry covers ``disk(q, |pq|)``, so it holds every obstacle
        the segment ``pq`` can meet: a pair that sees each other is
        answered by its straight leg, with no field built and no edge
        read.  Any other
        ``q`` is a goal of ``p``'s memoized field like an ONN
        candidate, its last leg found memo, probe, anchors
        (:meth:`~repro.visibility.csr.CSRGraph.last_leg`), and the
        field's Fig. 8 loop grows the entry through :meth:`cover`.
        ``bound`` enables threshold pruning: the loop stops once the
        distance over the graph as it is exceeds it, and that exact
        value is returned.
        """
        self.stats.distance_calls += 1
        TRACER.count("context.distance_call")
        if p == q:
            return 0.0
        # A pair so close that dx * dx underflows has |pq| == 0, which
        # would skip the retrieval; hypot does not underflow.
        entry = self.entry_for(q, p.distance(q) or hypot(q.x - p.x, q.y - p.y))
        if entry.graph.sees(p, q):
            self.stats.straight_legs += 1
            return p.distance(q)
        field = SourceDistanceField(
            entry.graph,
            p,
            grow=lambda r: self.cover(entry, q, r),
            stats=self.stats,
        )
        return field._fixpoint(q, bound, False, exact=True)

    def field_for(self, q: Point, radius: float = 0.0) -> SourceDistanceField:
        """A distance field from ``q`` over the cached graph for ``q``.

        The field's Fig. 8 enlargement is routed through
        :meth:`cover`, so repeated fields over the same centre (or a
        near-duplicate one, with spatial keys) skip redundant obstacle
        retrievals — and, the graph being only read, share its freeze
        and the memoized field rooted at ``q``.  A field whose
        candidates all see ``q`` never freezes the graph.
        """
        with TRACER.span("field.build", radius=radius):
            entry = self.entry_for(q, radius)
        return self._field(entry, q)

    def _field(self, entry: CachedGraph, q: Point) -> SourceDistanceField:
        self.stats.field_builds += 1
        return SourceDistanceField(
            entry.graph,
            q,
            grow=lambda r: self.cover(entry, q, r),
            stats=self.stats,
        )

    def refine_many(
        self,
        centers: Sequence[Point],
        radius: float,
        candidates: "Sequence[Iterable[Point]]",
    ) -> list[list[tuple[Point, float]]]:
        """Per centre, the ``(p, d)`` pairs of its distinct candidates
        ``p`` within ``radius`` of it, in candidate order — ``d`` being
        what ``field_for(centre, radius).batch_eval(candidates,
        bound=radius)`` returns (a centre without candidates: ``[]``,
        and no graph).  This is Fig. 5's elimination for OR (one
        centre) and for every seed of a distance join (Fig. 10), with
        the visibility tests of a run of centres made together.

        A candidate its centre sees is at its straight leg; any other's
        distance is the last-leg minimisation over its visible anchors
        (a shortest path leaves the candidate straight toward some graph
        node).  Unlike Fig. 5's own formulation (one bounded expansion
        with every candidate inserted as a transient entity), candidates
        never enter the cached graph.

        Centre by centre the cache sees exactly :meth:`entry_for`'s
        lookups, retrievals and admissions, in order.  Then every
        straight leg of the run within ``radius`` is decided; one
        backend call connects the graphs whose centre has a hidden
        candidate, one fetches, per freeze, the anchors of every hidden
        candidate (and off-centre root) not memoized yet, and each
        centre's field evaluates from the verdicts and the memo — with
        ``bound = radius`` its Fig. 8 loop never retrieves.  Runs are
        cut at the cache's capacity; a run of one centre is that
        expression itself, its field probing each hidden candidate's
        last leg instead (:meth:`~repro.visibility.csr.CSRGraph.
        last_leg`).  The anchor memo also serves later distances (OCP)
        over the same graphs.  A failed connect leaves its graphs
        pending, for the next freeze to retry.
        """
        candidates = [list(dict.fromkeys(points)) for points in candidates]
        out: list[list[tuple[Point, float]]] = [[] for __ in centers]
        asked = [i for i, points in enumerate(candidates) if points]
        capacity = self.cache.capacity
        for lo in range(0, len(asked), capacity):
            run = [(centers[i], candidates[i]) for i in asked[lo : lo + capacity]]
            if len(run) > 1:
                fields, sights = self._decide_run(run, radius)
            else:
                fields, sights = [self.field_for(run[0][0], radius)], [None]
            for i, field, sight in zip(asked[lo:], fields, sights):
                found = field.batch_eval(candidates[i], bound=radius, sight=sight)
                out[i] = [
                    (p, d) for p, d in zip(candidates[i], found) if d <= radius
                ]
        return out

    def _decide_run(
        self, run: "list[tuple[Point, list[Point]]]", radius: float
    ) -> "tuple[list[SourceDistanceField], list[list[bool]]]":
        """Per ``(centre, candidates)`` of ``run``, :meth:`field_for`'s
        field and the straight-leg verdicts of its candidates, with the
        backend calls of :meth:`refine_many`."""
        # A run anchors its hidden candidates in one batched backend call
        # instead of leaving each to its field's last-leg probe
        # (``CSRGraph.last_leg``), as a run of one centre does.  Measured
        # with the run's candidates probed instead, on the end-to-end
        # ``paper-join`` workload (seed 0, 10 s, 4 alternating pairs):
        # op p50 5.32 -> 7.12 ms (+34 %, worse in 4 of 4 pairs) and
        # 157.8 -> 140.5 ops/s; ``paper-cold`` and ``hotspot-warm`` were
        # within noise.
        entries = [self.entry_for(center, radius) for center, __ in run]
        # Per graph, the points whose anchors its fields will ask for.
        hidden: dict[int, tuple[VisibilityGraph, dict]] = {}
        sights = []
        for (center, points), entry in zip(run, entries):
            graph = entry.graph
            seen = {
                p: graph.sees(center, p)
                for p in points
                if p != center and center.distance(p) <= radius
            }
            sights.append([seen.get(p, False) for p in points])
            ask = [p for p, visible in seen.items() if not visible]
            if ask:
                hidden.setdefault(id(graph), (graph, {}))[1].update(
                    dict.fromkeys((center, *ask))
                )
        graphs = [graph for graph, __ in hidden.values()]
        if graphs:
            with TRACER.span("graph.connect", graphs=len(graphs)):
                VisibilityGraph.connect(graphs)
        freezes = [frozen(graph, stats=self.stats) for graph in graphs]
        scenes = [
            (csr.unanchored(ask, graph), graph)
            for csr, (graph, ask) in zip(freezes, hidden.values())
        ]
        if any(sources for sources, __ in scenes):
            with TRACER.span("sweep.scenes", scenes=len(scenes)):
                seen = self.backend.visible_ids(scenes)
            for csr, (sources, __), visible in zip(freezes, scenes, seen):
                csr.memoize_anchors(sources, visible)
        fields = [self._field(e, c) for (c, __), e in zip(run, entries)]
        return fields, sights

