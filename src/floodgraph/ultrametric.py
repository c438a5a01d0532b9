"""Flooding distance: min over chains of the maximum edge weight.

This "lowest pass" distance is an ultrametric: d(p,p) is bottom, it is
symmetric, and d(p,q) <= d(p,r) v d(r,q).  Closed balls of this distance
are the lakes a flooding can carve, which is why diameters, balls, and the
lowest cocycle edge all live here, together with minimum spanning trees
(which preserve the distance exactly).

`_best_first_flood` is the one min-max best-first kernel, an image foresting
transform with path cost f_max (Falcao, Stolfi & Lotufo, PAMI 2004).  From
one source at bottom it gives the flooding distance; from the ceiling, the
dominated flooding, which is the flooding distance from a reservoir joined
to each node p by a pipe at omega_p (see `augment_with_dummy`).

`single_linkage` is the one Kruskal pass of the package: it takes the
edges in increasing ``(weight, edge id)`` order and merges components with
the package's only union-find (`find_root`).  Those keys are all distinct,
so the minimum spanning forest under them is unique, and the merging edges
are exactly that forest: `mst` returns them, and `build_lake_dendrogram`
replays them, level by level, as the single-linkage merge tree.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import PreconditionError
from .graphs import Edge, Graph, NodeFunction, cocycle, partial_graph, subgraph_spanning
from .weights import BOTTOM, TOP, Weight


@dataclass(frozen=True)
class DistanceMatrix:
    nodes: tuple[str, ...]
    table: Mapping[str, Mapping[str, Weight]]

    def distance(self, x: str, y: str) -> Weight:
        try:
            return self.table[x][y]
        except KeyError:
            raise PreconditionError(f"unknown node: {x!r} or {y!r}") from None


def distance_rows(graph: Graph) -> list[list[Weight]]:
    """All-pairs flooding distance by node index (Floyd-Warshall, min-max)."""
    weights = graph.require_edge_weights("distance_matrix")
    count = len(graph.nodes)
    rows = [[TOP] * count for _ in range(count)]
    for node in range(count):
        rows[node][node] = BOTTOM
    for u, v, w in zip(graph.edge_u, graph.edge_v, weights):
        if w < rows[u][v]:
            rows[u][v] = w
            rows[v][u] = w
    for r, row_r in enumerate(rows):
        for row_p in rows:
            through = row_p[r]
            if through == TOP:
                continue
            for q, beyond in enumerate(row_r):
                via = through if through >= beyond else beyond
                if via < row_p[q]:
                    row_p[q] = via
    return rows


def distance_matrix(graph: Graph) -> DistanceMatrix:
    """All-pairs flooding distance by min-max relaxation (Floyd-Warshall)."""
    names = graph.nodes
    table = {p: dict(zip(names, row)) for p, row in zip(names, distance_rows(graph))}
    return DistanceMatrix(names, table)


class Funnel:
    """Priority structure of FIFO buckets (a hierarchical queue).

    Extraction returns an entry of minimal priority; entries sharing a
    priority leave in insertion order.  A node may sit in several buckets
    at once; callers discard stale entries on extraction.
    """

    def __init__(self) -> None:
        self._buckets: dict = {}
        self._priorities: list = []
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def push(self, priority, item) -> None:
        bucket = self._buckets.get(priority)
        if bucket is None:
            bucket = self._buckets[priority] = deque()
            heapq.heappush(self._priorities, priority)
        bucket.append(item)
        self._size += 1

    def min_priority(self):
        if not self._size:
            raise PreconditionError("empty funnel")
        return self._priorities[0]

    def pop(self):
        if not self._size:
            raise PreconditionError("empty funnel")
        priority = self._priorities[0]
        bucket = self._buckets[priority]
        item = bucket.popleft()
        self._size -= 1
        if not bucket:
            del self._buckets[priority]
            heapq.heappop(self._priorities)
        return priority, item


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
        funnel.push(level[seed], seed)
    offsets, adj_node, adj_edge = graph.offsets, graph.adj_node, graph.adj_edge
    extractions = relaxations = 0
    useful: list[Weight] = []
    while funnel:
        lam, node = funnel.pop()
        extractions += 1
        if level[node] != lam:
            continue
        useful.append(lam)
        for slot in range(offsets[node], offsets[node + 1]):
            w = weights[adj_edge[slot]]
            candidate = w if w > lam else lam
            neighbor = adj_node[slot]
            if candidate < level[neighbor]:
                level[neighbor] = candidate
                funnel.push(candidate, neighbor)
                relaxations += 1
    return extractions, relaxations, useful


def flooding_distance_all(graph: Graph, source: str) -> NodeFunction:
    """Single-source flooding distance: the kernel seeded at the source."""
    weights = graph.require_edge_weights("flooding_distance_all")
    start = graph.node_index(source)
    dist: list[Weight] = [TOP] * len(graph.nodes)
    dist[start] = BOTTOM
    _best_first_flood(graph, weights, dist, (start,))
    return dict(zip(graph.nodes, dist))


def flooding_distance(graph: Graph, x: str, y: str) -> Weight:
    """Min over chains from x to y of the max edge weight; top if none."""
    graph.node_index(y)
    return flooding_distance_all(graph, x)[y]


def ball(graph: Graph, center: str, radius: Weight, kind: str = "closed") -> tuple[str, ...]:
    """Nodes within flooding distance radius of center, declaration order."""
    if kind not in ("closed", "open"):
        raise PreconditionError(f"ball kind must be 'closed' or 'open', got {kind!r}")
    dist = flooding_distance_all(graph, center)
    if kind == "closed":
        return tuple(node for node in graph.nodes if dist[node] <= radius)
    return tuple(node for node in graph.nodes if dist[node] < radius)


def diameter(graph: Graph, members: Iterable[str]) -> Weight:
    """Max pairwise flooding distance inside the induced subgraph.

    In an ultrametric d(p, q) <= d(s, p) v d(s, q), so one distance pass
    from the first member s finds the farthest pair.
    """
    inside = list(dict.fromkeys(members))
    if not inside:
        raise PreconditionError("diameter of an empty set")
    if len(inside) == 1:
        graph.node_index(inside[0])
        return BOTTOM
    sub = subgraph_spanning(graph, inside)
    dist = flooding_distance_all(sub, sub.nodes[0])
    for other in sub.nodes:
        if dist[other] == TOP:
            raise PreconditionError(
                f"diameter needs a connected set; {sub.nodes[0]!r} and {other!r} are separated"
            )
    return max(dist.values())


def lowest_cocycle_edge(graph: Graph, inside: Iterable[str]) -> tuple[Edge | None, Weight]:
    """Lowest edge leaving the set; (None, top) when nothing leaves.

    Ties go to the earliest declared edge.
    """
    weights = graph.require_edge_weights("lowest_cocycle_edge")
    member = set(inside)
    if not member:
        raise PreconditionError("lowest_cocycle_edge of an empty set")
    if len(member) >= len(graph.nodes):
        raise PreconditionError("lowest_cocycle_edge of the full node set")
    best_id = -1
    best: Weight = TOP
    for edge_id in cocycle(graph, member):
        if weights[edge_id] < best:
            best = weights[edge_id]
            best_id = edge_id
    if best_id < 0:
        return None, TOP
    return (graph.nodes[graph.edge_u[best_id]], graph.nodes[graph.edge_v[best_id]]), best


def find_root(parent: list[int], node: int) -> int:
    """Root of ``node``'s block in a union-find parent array; compresses the path."""
    root = node
    while parent[root] != root:
        root = parent[root]
    while parent[node] != root:
        parent[node], node = root, parent[node]
    return root


def single_linkage(graph: Graph, weights: Sequence[Weight]) -> Iterator[tuple[int, int, int]]:
    """Kruskal over ``(weight, edge id)``: yield the merges in merge order.

    Each merge is ``(edge_id, root_u, root_v)``: the edge and the union-find
    roots of its two endpoints' components just before it joins them.
    ``root_u`` stays the root of the merged component.  The merging edges
    are the minimum spanning forest under the ``(weight, edge id)`` order.
    """
    edge_u, edge_v = graph.edge_u, graph.edge_v
    parent = list(range(len(graph.nodes)))
    for edge_id in sorted(range(len(weights)), key=weights.__getitem__):  # stable: ties by id
        root_u = find_root(parent, edge_u[edge_id])
        root_v = find_root(parent, edge_v[edge_id])
        if root_u != root_v:
            parent[root_v] = root_u
            yield edge_id, root_u, root_v


def mst(graph: Graph, root: str | None = None) -> Graph:
    """Minimum spanning tree (forest on disconnected graphs) by Kruskal.

    Edges are taken in increasing ``(weight, edge id)`` order, so equal
    weights go in declaration order.  Those keys are all distinct, so the
    minimum spanning forest under them is unique: Kruskal, or Prim grown
    from any node, ends with the same edges.  ``root`` is therefore only
    checked to be a node; it does not change the tree.  Node set and
    weights are retained, and the tree lists its edges by edge id.
    """
    weights = graph.require_edge_weights("mst")
    if root is not None:
        graph.node_index(root)
    return partial_graph(graph, [edge_id for edge_id, _, _ in single_linkage(graph, weights)])
