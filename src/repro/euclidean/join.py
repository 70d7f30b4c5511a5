"""R-tree distance join [BKS93] — the candidate generator of ODJ.

Both trees are traversed synchronously: a pair of nodes is expanded
only when the MINDIST of their MBRs is within the join distance, which
prunes the vast majority of the cross product.  A pair of nodes is
evaluated as one MINDIST matrix over their packed MBRs; leaf/leaf
pairs report their matches in plane-sweep order along x (the
optimisation recommended in the original paper, which fixes the
order of the result).
"""

from __future__ import annotations

from typing import Any, Callable

import numpy as np

from repro.errors import QueryError
from repro.index import mbrs
from repro.index.node import Node
from repro.index.rstar import RStarTree


def distance_join(
    tree_s: RStarTree,
    tree_t: RStarTree,
    e: float,
    on_pair: Callable[[Any, Any, float], None] | None = None,
) -> list[tuple[Any, Any, float]]:
    """All pairs ``(s, t)`` with Euclidean MBR distance <= ``e``.

    For point payloads (zero-extent MBRs) the MBR distance *is* the
    point distance, so the result is exact.  ``on_pair`` may be given to
    consume pairs without materialising the result list (the list is
    still returned, empty, in that case).
    """
    if e < 0:
        raise QueryError(f"negative join distance: {e}")
    result: list[tuple[Any, Any, float]] = []
    sink = on_pair if on_pair is not None else (
        lambda s, t, d: result.append((s, t, d))
    )
    if len(tree_s) == 0 or len(tree_t) == 0:
        return result
    stack = [(tree_s.root_id, tree_t.root_id)]
    while stack:
        sid, tid = stack.pop()
        node_s = tree_s.read_node(sid)
        node_t = tree_t.read_node(tid)
        if node_s.is_leaf and node_t.is_leaf:
            _join_leaves(node_s, node_t, e, sink)
        elif node_s.is_leaf:
            near = mbrs.mindist_rect(node_t.rects(), node_s.mbr()) <= e
            et = node_t.entries
            stack.extend((sid, et[j].child) for j in np.flatnonzero(near).tolist())
        elif node_t.is_leaf:
            near = mbrs.mindist_rect(node_s.rects(), node_t.mbr()) <= e
            es = node_s.entries
            stack.extend((es[i].child, tid) for i in np.flatnonzero(near).tolist())
        else:
            # Descend both trees; prune child pairs by the MINDIST
            # matrix (nonzero is row-major: the nested-loop order).
            near = mbrs.mindist(node_s.rects()[:, None, :], *node_t.rects().T) <= e
            ii, jj = np.nonzero(near)
            es, et = node_s.entries, node_t.entries
            stack.extend(
                (es[i].child, et[j].child) for i, j in zip(ii.tolist(), jj.tolist())
            )
    return result


def _join_leaves(
    node_s: Node,
    node_t: Node,
    e: float,
    sink: Callable[[Any, Any, float], None],
) -> None:
    """Plane sweep over two leaves as one matrix: pairs are reported in
    ascending ``minx`` of the S entry, then of the T entry (stable)."""
    rects_s, rects_t = node_s.rects(), node_t.rects()
    # Only entries within e of the other leaf's MBR can have a partner.
    keep_s = np.flatnonzero(mbrs.mindist_rect(rects_s, node_t.mbr()) <= e)
    keep_t = np.flatnonzero(mbrs.mindist_rect(rects_t, node_s.mbr()) <= e)
    if not (len(keep_s) and len(keep_t)):
        return
    keep_s = keep_s[rects_s[keep_s, 0].argsort(kind="stable")]
    keep_t = keep_t[rects_t[keep_t, 0].argsort(kind="stable")]
    left = rects_s[keep_s][:, None, :]
    minx, miny, maxx, maxy = rects_t[keep_t].T
    dist = mbrs.mindist(left, minx, miny, maxx, maxy)
    # The sweep window (minx - e, maxx + e) is rounded differently from
    # the distance itself, so it stays part of the predicate.
    within = (
        (dist <= e)
        & (minx <= left[..., 2] + e)
        & (maxx >= left[..., 0] - e)
    )
    ii, jj = np.nonzero(within)
    es, et = node_s.entries, node_t.entries
    for i, j, d in zip(
        keep_s[ii].tolist(), keep_t[jj].tolist(), dist[ii, jj].tolist()
    ):
        sink(es[i].data, et[j].data, d)


def intersection_join(
    tree_s: RStarTree, tree_t: RStarTree
) -> list[tuple[Any, Any]]:
    """All pairs with intersecting MBRs — the ``e = 0`` special case
    the paper notes in Sec. 2.1."""
    return [(s, t) for s, t, __ in distance_join(tree_s, tree_t, 0.0)]
