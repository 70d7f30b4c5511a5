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
* each graph tracks its obstacle *coverage radius*, so Fig. 8's
  iterative range enlargement skips retrievals that cannot surface
  anything new;
* a distance join's seeds are handed over together
  (:meth:`QueryContext.refine_many`): their graphs are registered one
  by one — the cache sees the per-seed calls — and swept in one
  backend call;
* dynamic obstacle updates are routed repair-first: the context
  subscribes to the source's mutation feed and patches affected cached
  graphs in place (``add_obstacle`` on insert, ``remove_obstacle``'s
  local re-sweep on delete), falling back to version-based lazy
  invalidation (and a rebuild at next lookup) only when repair is not
  possible.
"""

from __future__ import annotations

from math import inf
from typing import Iterable, Sequence

from repro.core.distance import ObstacleSource, SourceDistanceField
from repro.geometry.circle import Circle
from repro.geometry.point import Point
from repro.model import Obstacle
from repro.obs.trace import NULL_SPAN, TRACER
from repro.runtime.cache import CachedGraph, VisibilityGraphCache
from repro.runtime.policy import CachePolicy, resolve_cache_policy
from repro.runtime.stats import RuntimeStats
from repro.visibility.csr import frozen
from repro.visibility.graph import VisibilityGraph
from repro.visibility.kernel.backend import VisibilityBackend, resolve_backend

# benchmarks/e2e/e2e_trace.py wraps this name (a `visibility.dijkstra` wrap point).
shortest_path_dist = None


#: Above this node count an in-place delete-repair costs more than the
#: from-scratch rebuild it replaces, so the affected entry is discarded
#: instead (rebuild-fallback at its next lookup — if there is one).
#: Measured on street-grid scenes with the re-sweep's exact tests
#: batched over arrays, repair as a share of rebuild, mean over eight
#: victims spread from the scene's centre to its rim: 0.39x at 129
#: nodes (12 vs 31 ms), 0.46x at 257 (59 vs 129 ms), 0.57x at 513
#: (406 vs 712 ms), 0.92x at 1,025 (3.23 vs 3.50 s) — the most central
#: victim alone costs 0.8x / 1.0x / 1.3x / 2.0x, a rim one 0.01-0.05x.
#: (With the scalar re-sweep the shares were 0.74 / 0.82 / 0.92 / 0.87x
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
        The visibility backend every graph built by this context uses
        (a name — ``"python-sweep"``, ``"numpy-kernel"``, ``"naive"``
        — or an instance).  ``None`` is the numpy kernel.  The
        resolved backend shares this context's stats, so
        ``sweeps_run`` / ``sweep_events`` / ``sweep_seconds`` account
        all sweep work.
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
        backend: "str | VisibilityBackend | None" = None,
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
        direct tree or shard edit); applying just this mutation and
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
                        # The local re-sweep would cost more than a
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
                    # from-scratch rebuild over the same disk.
                    if disk.intersects_polygon(obstacle.polygon) and (
                        graph.add_obstacle(obstacle)
                    ):
                        self.stats.graph_cache_repairs += 1
                        TRACER.count("graph_cache.repair")
        except Exception:
            self.cache.discard(entry)
            return
        entry.version = self.version_for(entry.center, entry.covered)

    # ------------------------------------------------------------ graph reuse
    def entry_for(self, center: Point, radius: float = 0.0) -> CachedGraph:
        """The cached graph serving ``center``, covering ``radius``.

        On a miss the graph is built from the obstacles intersecting
        the disk ``(center, radius)``.  A hit may return an entry whose
        own centre differs from ``center`` (spatial keys): reuse is
        then guarded by coverage — the entry is valid only once its
        coverage disk contains ``disk(center, radius)``, so an
        under-covered entry is topped up around its *own* centre by the
        widened radius (extend-and-promote) before being served.  An
        off-centre ``center`` does not become a node: queries only read
        the graph (:meth:`distance`, :meth:`field_for`).
        """
        return self._entry(center, radius, connect=True)

    def _entry(self, center: Point, radius: float, *, connect: bool) -> CachedGraph:
        """:meth:`entry_for`.  With ``connect`` off, what it builds or
        tops up is registered only — no sweep, no span: the caller
        sweeps the graphs of many entries in one
        :meth:`VisibilityGraph.connect` — every other step being the
        same calls with the same arguments in the same order."""
        self.policy.observe(center)
        entry = self.cache.get(center, self.version_for)
        if entry is None:
            make = VisibilityGraph.build if connect else VisibilityGraph.registered
            span = TRACER.span("graph.build", radius=radius) if connect else NULL_SPAN
            with span:
                # Stamp before retrieving: the stamp must never
                # post-date the obstacle set the graph is built from.
                stamp = self.version_for(center, radius)
                obstacles = (
                    self.source.obstacles_in_range(center, radius)
                    if radius > 0
                    else []
                )
                span.set_attr("obstacles", len(obstacles))
                graph = make([center], obstacles, method=self.backend)
            self.stats.graph_builds += 1
            entry = CachedGraph(graph, center, radius, stamp)
            self.cache.put(entry)
            return entry
        required = self.required_radius(entry, center, radius)
        if required > entry.covered:
            if entry.center != center:
                self.stats.graph_cache_promotions += 1
            # A hit is never stale: the cache drops stale entries.
            self._expand(entry, required, connect=connect)
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
            return True
        if radius <= entry.covered:
            return False
        return self._expand(entry, radius, connect=True)

    def _expand(self, entry: CachedGraph, radius: float, *, connect: bool) -> bool:
        """Fig. 8's enlargement of a fresh entry to ``radius`` (beyond
        its coverage): one retrieval, one growth step of the graph —
        registered only with ``connect`` off (see :meth:`_entry`) — and
        the stamp of the grown disk, taken before the retrieval."""
        self.stats.coverage_expansions += 1
        graph = entry.graph
        grow = graph.add_obstacles if connect else graph.register_obstacles
        stamp = self.version_for(entry.center, radius)
        with TRACER.span("graph.expand", radius=radius) if connect else NULL_SPAN:
            added = grow(self.source.obstacles_in_range(entry.center, radius))
        self.stats.obstacles_added += added
        entry.version = stamp
        entry.covered = radius
        return added > 0

    # ----------------------------------------------------------- evaluations
    def distance(self, p: Point, q: Point, *, bound: float = inf) -> float:
        """Obstructed distance ``d_O(p, q)`` (paper Fig. 8).

        The graph is cached per ``q`` (the expansion centre) and is
        only read: a shortest path turns only at obstacle vertices, so
        it leaves each endpoint straight toward a node the endpoint
        sees, and neither endpoint has to be a node
        (:meth:`_frozen_distance`).  ``bound`` enables threshold
        pruning: iteration stops once the provisional lower bound
        exceeds it.
        """
        self.stats.distance_calls += 1
        TRACER.count("context.distance_call")
        if p == q:
            return 0.0
        entry = self.entry_for(q, p.distance(q))
        graph = entry.graph
        d = self._frozen_distance(graph, p, q)
        while d <= bound:
            if not self.cover(entry, q, d):
                break
            d = self._frozen_distance(graph, p, q)
        return d

    def _frozen_distance(
        self, graph: VisibilityGraph, p: Point, q: Point
    ) -> float:
        """``d(p, q)`` over ``graph``'s current freeze, read off at
        ``q`` by the rule a distance field reads its full search with.

        A source seen before on this freeze (its field or its anchors
        memoized) with a goal that is neither a node nor memoized reads
        the source's full field — one search, memoized like an ONN
        centre's — and finds the goal's last leg by the rule every field
        uses (:meth:`~repro.visibility.csr.CSRGraph.last_leg`: probed
        in lower-bound order with the exact oracle, swept only on a
        give-up).  Otherwise one backend call sweeps ``p`` (if unseen)
        with ``q`` ahead, and one search seeded with the nodes ``p``
        sees at their straight legs stops once the nodes ``q`` sees are
        settled.  Both give the same float: the full field settles
        every value the targeted search does, and a goal anchor it
        leaves unsettled lies beyond the answer."""
        csr = frozen(graph, stats=self.stats)
        if (p in csr.fields or p in csr.anchors) and not (
            q in csr.index or q in csr.anchors
        ):
            field = csr.field(p, graph)
            direct = csr.direct_leg(p, q, graph)
            return min(direct, csr.last_leg(field, q, graph, stats=self.stats))
        seeds, seed_legs = csr.anchors_for(p, graph, ahead=(q,))
        goals, goal_legs = csr.anchors_for(q, graph)
        direct = csr.direct_leg(p, q, graph)
        if not len(seeds) or not len(goals):
            return direct
        with TRACER.span(
            "distance.search",
            seeds=len(seeds),
            goals=len(goals),
            nodes=csr.node_count,
        ) as span:
            dist, settled = csr.dijkstra(
                list(zip(seeds.tolist(), seed_legs.tolist())),
                targets=goals.tolist(),
                legs=goal_legs.tolist(),
            )
            span.set_attr("settled", int(settled.sum()))
        return min(direct, csr.last_leg(dist, q, graph))

    def field_for(self, q: Point, radius: float = 0.0) -> SourceDistanceField:
        """A distance field from ``q`` over the cached graph for ``q``.

        The field's Fig. 8 enlargement is routed through
        :meth:`cover`, so repeated fields over the same centre (or a
        near-duplicate one, with spatial keys) skip redundant obstacle
        retrievals — and, the graph being only read, share its freeze
        and the memoized field rooted at ``q``.
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
        the sweeps of a run of centres made together.

        Each candidate's distance is the last-leg minimisation over its
        visible anchors — exact because a shortest path never turns at
        a free point, so it leaves the candidate straight toward some
        graph node.  Unlike Fig. 5's own formulation (one bounded
        expansion with every candidate inserted as a transient entity),
        candidates never enter the cached graph, so the field's search
        is reusable across calls at the same centre.

        Centre by centre the cache sees exactly :meth:`entry_for`'s
        lookups, retrievals and admissions, in order; only the sweeps
        wait.  Then one backend call connects every graph the run built
        or topped up (a graph reached twice accumulates its pending
        nodes and is swept once), a second one fetches, per freeze, the
        last-leg anchors of every candidate (and off-centre root) not
        memoized yet, and each centre's field evaluates from the memo —
        with ``bound = radius`` its Fig. 8 loop never retrieves
        (``d <= radius <= covered``).  Runs are cut at the cache's
        capacity, so no more graphs wait than the cache holds; a run of
        one centre has nothing to wait for and is that expression
        itself — its field probes each candidate's last leg instead
        (memo, probe, sweep:
        :meth:`~repro.visibility.csr.CSRGraph.last_leg`), and a lower
        bound past ``radius`` is a false hit decided without a
        visibility test.  The run's second call stays: its memo also
        serves the later distances (OCP) over the same cached graphs.
        If anything fails before the connect, every entry left with
        unswept nodes leaves the cache.
        """
        candidates = [list(dict.fromkeys(points)) for points in candidates]
        out: list[list[tuple[Point, float]]] = [[] for __ in centers]
        asked = [i for i, points in enumerate(candidates) if points]
        capacity = self.cache.capacity
        for lo in range(0, len(asked), capacity):
            run = [(centers[i], candidates[i]) for i in asked[lo : lo + capacity]]
            fields = (
                self._fields_connected_together(run, radius)
                if len(run) > 1
                else [self.field_for(run[0][0], radius)]
            )
            for i, field in zip(asked[lo:], fields):
                found = field.batch_eval(candidates[i], bound=radius)
                out[i] = [
                    (p, d) for p, d in zip(candidates[i], found) if d <= radius
                ]
        return out

    def _fields_connected_together(
        self, run: "list[tuple[Point, list[Point]]]", radius: float
    ) -> list[SourceDistanceField]:
        """:meth:`field_for` per ``(centre, candidates)`` of ``run``,
        the graphs swept in one backend call and the candidates' anchors
        fetched in a second (see :meth:`refine_many`)."""
        entries: list[CachedGraph] = []
        try:
            for center, __ in run:
                entries.append(self._entry(center, radius, connect=False))
            graphs = list({id(entry.graph): entry.graph for entry in entries}.values())
            with _scenes_span([(graph.pending, graph) for graph in graphs]):
                VisibilityGraph.connect(graphs)
        finally:
            for entry in entries:
                if entry.graph.pending:
                    self.cache.discard(entry)
        # Per freeze, the points whose anchors its fields will ask for.
        asked: dict[int, tuple] = {}
        fields = []
        for (center, points), entry in zip(run, entries):
            fields.append(self._field(entry, center))
            csr = frozen(entry.graph, stats=self.stats)
            ask = asked.setdefault(id(csr), (csr, entry.graph, {}))[2]
            ask.update(dict.fromkeys((center, *points)))
        fetch = [
            (csr, graph, csr.unanchored(ask, graph))
            for csr, graph, ask in asked.values()
        ]
        scenes = [(sources, graph) for __, graph, sources in fetch]
        with _scenes_span(scenes):
            seen = self.backend.visible_ids(scenes)
        for (csr, __, sources), visible in zip(fetch, seen):
            csr.memoize_anchors(sources, visible)
        return fields


def _scenes_span(scenes: "Sequence[tuple[Sequence[Point], VisibilityGraph]]"):
    """The span around one backend call over ``scenes``."""
    return TRACER.span(
        "sweep.scenes",
        scenes=len(scenes),
        sources=sum(len(sources) for sources, __ in scenes),
    )
