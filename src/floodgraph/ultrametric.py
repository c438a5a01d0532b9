"""Flooding distance: min over chains of the maximum edge weight.

This "lowest pass" distance is an ultrametric: d(p,p) is bottom, it is
symmetric, and d(p,q) <= d(p,r) v d(r,q).  Closed balls of this distance
are the lakes a flooding can carve.  The distance lives here from one source
and between all pairs, together with minimum spanning trees (which preserve
it exactly).

`_best_first_flood` is the one min-max best-first kernel, an image foresting
transform with path cost f_max (Falcao, Stolfi & Lotufo, PAMI 2004).  From
one source at bottom it gives the flooding distance; from the ceiling, the
dominated flooding, which is the flooding distance from a reservoir joined
to each node p by a pipe at omega_p (see `augment_with_dummy`).  It runs
on `Funnel`, a hierarchical queue pushed by subscript, and drains it by
whole buckets, since no candidate falls below the level being extracted.

`single_linkage` is the one Kruskal pass of the package: it takes the
edges in increasing ``(weight, edge id)`` order and merges components with
the package's only union-find (`graphs.find_root`, which
`connected_components` also runs on).  Those keys are all distinct,
so the minimum spanning forest under them is unique, and the merging edges
are exactly that forest: `mst` returns them, and `build_lake_dendrogram`
replays them, level by level, as the single-linkage merge tree.
"""

from __future__ import annotations

import heapq
from collections import deque
from collections.abc import Iterable, Iterator, Sequence
from itertools import compress

from .graphs import Graph, NodeValues, find_root, index_graph, node_indices
from .weights import BOTTOM, TOP, Weight

__all__ = [
    "Funnel",
    "distance_matrix",
    "flooding_distance_all",
    "mst",
]


def distance_rows(graph: Graph) -> list[list[Weight]]:
    """All-pairs flooding distance by node index (Floyd-Warshall, min-max).

    The matrix stays symmetric: pivot ``r`` reads d(p, r) from its own row,
    which it cannot change, and updates each pair p < q once, in both rows.
    """
    weights = graph.require_edge_weights("distance_matrix")
    count = len(graph.nodes)
    rows = [[TOP] * count for _ in range(count)]
    for node in range(count):
        rows[node][node] = BOTTOM
    for u, v, w in zip(graph.edge_u, graph.edge_v, weights):
        if w < rows[u][v]:
            rows[u][v] = rows[v][u] = w
    for r, row_r in enumerate(rows):
        for p, through in enumerate(row_r):
            if p == r or through == TOP:
                continue
            row_p = rows[p]
            for q in range(p + 1, count):
                beyond = row_r[q]
                via = through if through >= beyond else beyond
                if via < row_p[q]:
                    row_p[q] = rows[q][p] = via
    return rows


def distance_matrix(graph: Graph) -> dict[str, NodeValues]:
    """All-pairs flooding distance by min-max relaxation (Floyd-Warshall),
    as a row per node in node order, each row a node function of ``graph``."""
    return {p: NodeValues(graph, row) for p, row in zip(graph.nodes, distance_rows(graph))}


class Funnel(dict):
    """Priority structure of FIFO buckets (a hierarchical queue).

    A dict from priority to a FIFO ``deque``, plus the ``heap`` of the
    priorities that have a bucket.  A push is the C-level subscript
    ``funnel[p].append(item)``; only a new priority calls ``__missing__``,
    which opens its bucket and enters ``p`` into the heap.  No bucket stays
    empty, so ``heap[0]`` is the least priority.  Entries sharing a priority
    leave in insertion order; callers discard stale entries on extraction.
    Every loop takes whole buckets.  Prim and core pop theirs inline: prim's
    priorities are edge weights under a running level, and core opens a
    core between buckets.  The others drain ``buckets()``.
    ``len()`` counts the priorities that have a bucket, not the items.
    """

    __slots__ = ("heap",)

    def __init__(self) -> None:
        self.heap: list = []

    def __missing__(self, priority) -> deque:
        bucket = self[priority] = deque()
        heapq.heappush(self.heap, priority)
        return bucket

    def buckets(self) -> Iterator[tuple]:
        """Yield each least priority with its bucket, detached, in order.

        A push at the priority being drained opens a fresh bucket that comes
        next, so with no push below it this is the order of per-item pops.
        """
        heap, detach = self.heap, super().pop
        while heap:
            priority = heapq.heappop(heap)
            yield priority, detach(priority)


def _best_first_flood(
    graph: Graph, weights: Sequence[Weight], level: list[Weight], seeds: Iterable[int]
) -> tuple[int, int, list[Weight]]:
    """Lower ``level`` in place to min over seeds s of level[s] v d(s, node).

    ``level`` holds each seed's start level and top elsewhere; stale entries
    are discarded.  Returns the extraction and relaxation counts and the
    levels of the useful extractions.
    """
    funnel = Funnel()
    for seed in seeds:
        funnel[level[seed]].append(seed)
    offsets, adj_node, adj_edge = graph.incidences()
    extractions = relaxations = 0
    useful: list[Weight] = []
    for lam, bucket in funnel.buckets():  # candidates are never below lam
        extractions += len(bucket)
        for node in bucket:
            if level[node] != lam:
                continue
            useful.append(lam)
            for slot in range(offsets[node], offsets[node + 1]):
                w = weights[adj_edge[slot]]
                candidate = w if w > lam else lam
                neighbor = adj_node[slot]
                if candidate < level[neighbor]:
                    level[neighbor] = candidate
                    funnel[candidate].append(neighbor)
                    relaxations += 1
    return extractions, relaxations, useful


def flooding_distance_all(graph: Graph, source: str) -> NodeValues:
    """Single-source flooding distance: the kernel seeded at the source."""
    weights = graph.require_edge_weights("flooding_distance_all")
    (start,) = node_indices(graph, (source,))
    dist: list[Weight] = [TOP] * len(graph.nodes)
    dist[start] = BOTTOM
    _best_first_flood(graph, weights, dist, (start,))
    return NodeValues(graph, dist)


def single_linkage(graph: Graph, weights: Sequence[Weight]) -> Iterator[tuple[int, int, int]]:
    """Kruskal over ``(weight, edge id)``: yield the merges in merge order.

    Each merge is ``(edge_id, root_u, root_v)``: the edge and the union-find
    roots of its two endpoints' components just before it joins them.
    ``root_u`` stays the root of the merged component.  The merging edges
    are the minimum spanning forest under the ``(weight, edge id)`` order.
    """
    edge_u, edge_v = graph.edge_u, graph.edge_v
    parent = list(range(len(graph.nodes)))
    for edge_id in sorted(range(len(edge_u)), key=list(weights).__getitem__):  # stable: ties by id
        u, v = edge_u[edge_id], edge_v[edge_id]
        root_u, root_v = parent[u], parent[v]  # find_root only below a root's child
        if parent[root_u] != root_u:
            root_u = find_root(parent, u)
        if parent[root_v] != root_v:
            root_v = find_root(parent, v)
        if root_u != root_v:
            parent[root_v] = root_u
            yield edge_id, root_u, root_v


def mst(graph: Graph) -> Graph:
    """Minimum spanning tree (forest on disconnected graphs) by Kruskal.

    Edges are taken in increasing ``(weight, edge id)`` order, so equal
    weights go in declaration order.  Those keys are all distinct, so the
    minimum spanning forest under them is unique: Kruskal, or Prim grown
    from any node, ends with the same edges.  The tree lists its edges by
    edge id and shares the nodes, their name index and the ground with ``graph``.
    """
    weights = graph.require_edge_weights("mst")
    kept = bytearray(len(weights))  # a flag by edge id, so the tree keeps the id order
    for edge_id, _, _ in single_linkage(graph, weights):
        kept[edge_id] = 1
    u, v, w = (compress(column, kept) for column in (graph.edge_u, graph.edge_v, weights))
    return index_graph(graph.nodes, u, v, graph.ground_values, w, graph._index)
