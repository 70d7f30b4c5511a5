"""R-tree distance join [BKS93] — the candidate generator of ODJ.

Both trees are traversed synchronously: a pair of nodes is expanded
only when the MINDIST of their MBRs is within the join distance, which
prunes the vast majority of the cross product.  A pair of nodes is
evaluated as one MINDIST matrix over their packed MBRs.  The leaf
pairs the traversal reaches are decided together, in one array pass
over all their entries, and report their matches in the order of a
plane sweep along x per pair (the optimisation recommended in the
original paper, which fixes the order of the result).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.errors import QueryError
from repro.index import mbrs
from repro.index.node import Node
from repro.index.rstar import RStarTree

#: (S entry, T entry) cells whose MINDIST one block of the leaf pass
#: evaluates.  Bounds its temporaries — a dozen int64 and float64
#: arrays of one row per cell — to a few MB however many leaf pairs
#: the traversal reaches.
_PASS_CELLS = 1 << 15


def distance_join(
    tree_s: RStarTree, tree_t: RStarTree, e: float
) -> list[tuple[Any, Any, float]]:
    """All pairs ``(s, t, distance)`` with Euclidean MBR distance
    (MINDIST) <= ``e``.

    For point payloads (zero-extent MBRs) the MBR distance *is* the
    point distance, so the result is exact.
    """
    if e < 0:
        raise QueryError(f"negative join distance: {e}")
    if len(tree_s) == 0 or len(tree_t) == 0:
        return []
    leaves: list[tuple[Node, Node]] = []
    stack = [(tree_s.root_id, tree_t.root_id)]
    while stack:
        sid, tid = stack.pop()
        node_s = tree_s.read_node(sid)
        node_t = tree_t.read_node(tid)
        if node_s.is_leaf and node_t.is_leaf:
            leaves.append((node_s, node_t))
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
    return _join_leaf_pairs(leaves, e) if leaves else []


def _join_leaf_pairs(
    leaves: list[tuple[Node, Node]], e: float
) -> list[tuple[Any, Any, float]]:
    """The matches of every leaf pair: pairs in traversal order, each
    pair's as its plane sweep along x reports them — ascending ``minx``
    of the S entry, then of the T entry, ties by position."""
    count_s = np.array([len(s.entries) for s, __ in leaves])
    count_t = np.array([len(t.entries) for __, t in leaves])
    rects_s = np.concatenate([s.rects() for s, __ in leaves])
    rects_t = np.concatenate([t.rects() for __, t in leaves])
    pair_s = np.arange(len(leaves)).repeat(count_s)
    start_s = count_s.cumsum() - count_s
    start_t = count_t.cumsum() - count_t
    # Only S entries within e of their T leaf's MBR can have a partner
    # (float MINDIST never shrinks as a box grows).
    box = np.minimum.reduceat(rects_t, start_t)
    box[:, 2:] = np.maximum.reduceat(rects_t[:, 2:], start_t)
    rows = np.flatnonzero(
        mbrs.mindist(rects_s, *box.T.repeat(count_s, axis=1)) <= e
    )
    if not rows.size:
        return []
    pair = pair_s[rows]
    width = count_t[pair]
    # Columns, so that every gathered coordinate is one contiguous row.
    cols_s, cols_t = rects_s.T, np.ascontiguousarray(rects_t.T)
    found = []
    for lo, hi in mbrs.blocks(width, _PASS_CELLS):
        s = rows[lo:hi].repeat(width[lo:hi])
        t = mbrs.ranges(start_t[pair[lo:hi]], width[lo:hi])
        left = cols_s[:, rows[lo:hi]].repeat(width[lo:hi], axis=1)
        dist = mbrs.mindist(left.T, *cols_t.take(t, axis=1))
        hit = dist <= e
        found.append((s[hit], t[hit], dist[hit]))
    s, t, dist = (np.concatenate(column) for column in zip(*found))
    p = pair_s[s]
    sweep = np.lexsort((t, rects_t[t, 0], s, rects_s[s, 0], p))
    result: list[tuple[Any, Any, float]] = []
    for k, i, j, d in zip(
        p[sweep].tolist(),
        (s - start_s[p])[sweep].tolist(),
        (t - start_t[p])[sweep].tolist(),
        dist[sweep].tolist(),
    ):
        node_s, node_t = leaves[k]
        result.append((node_s.entries[i].data, node_t.entries[j].data, d))
    return result


def intersection_join(
    tree_s: RStarTree, tree_t: RStarTree
) -> list[tuple[Any, Any]]:
    """All pairs with intersecting MBRs — the ``e = 0`` special case
    the paper notes in Sec. 2.1."""
    return [(s, t) for s, t, __ in distance_join(tree_s, tree_t, 0.0)]
