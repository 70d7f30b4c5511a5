"""The reference distance field: Fig. 8 from ``q`` over a private
dict-adjacency graph with ``q`` inserted.  The oracle the one engine,
:class:`repro.core.distance.SourceDistanceField`, equals bit for bit."""

from math import inf

from repro.visibility import VisibilityGraph, dijkstra


class ReferenceField:
    def __init__(self, q, index, backend=None):
        self.q, self.index = q, index
        self.graph = VisibilityGraph.build([q], [], method=backend)
        self._field, self._revision = {}, -1

    def distance_to(self, p, bound=inf):
        while True:
            d = self._provisional(p)
            if d > bound:
                return d
            found = self.index.obstacles_in_range(self.q, d)
            if not [o for o in found if self.graph.add_obstacle(o)]:
                return d

    def _provisional(self, p):
        graph = self.graph
        if p == self.q:
            return 0.0
        if self._revision != graph.obstacle_revision:
            self._field = dijkstra(graph, self.q)
            self._revision = graph.obstacle_revision
        if graph.has_node(p):
            return self._field.get(p, inf)
        (seen,) = graph.visible_from_many((p,))
        return min(
            (self._field[v] + v.distance(p) for v in seen if v in self._field),
            default=inf,
        )
