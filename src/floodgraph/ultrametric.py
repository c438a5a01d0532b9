"""Flooding distance: min over chains of the maximum edge weight.

This "lowest pass" distance is an ultrametric: d(p,p) is bottom, it is
symmetric, and d(p,q) <= d(p,r) v d(r,q).  Closed balls of this distance
are the lakes a flooding can carve, which is why diameters, balls, and the
lowest cocycle edge all live here, together with minimum spanning trees
(which preserve the distance exactly).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Iterable, Mapping

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


def flooding_distance_all(graph: Graph, source: str) -> NodeFunction:
    """Single-source flooding distance via best-first growth."""
    weights = graph.require_edge_weights("flooding_distance_all")
    start = graph.node_index(source)
    offsets, adj_node, adj_edge = graph.offsets, graph.adj_node, graph.adj_edge
    dist: list[Weight] = [TOP] * len(graph.nodes)
    dist[start] = BOTTOM
    heap: list[tuple[Weight, int]] = [(BOTTOM, start)]
    while heap:
        d, node = heapq.heappop(heap)
        if d != dist[node]:  # stale: the node was reached lower since
            continue
        for slot in range(offsets[node], offsets[node + 1]):
            w = weights[adj_edge[slot]]
            candidate = w if w > d else d
            neighbor = adj_node[slot]
            if candidate < dist[neighbor]:
                dist[neighbor] = candidate
                heapq.heappush(heap, (candidate, neighbor))
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
    """Max pairwise flooding distance inside the induced subgraph."""
    inside = list(dict.fromkeys(members))
    if not inside:
        raise PreconditionError("diameter of an empty set")
    if len(inside) == 1:
        graph.node_index(inside[0])
        return BOTTOM
    sub = subgraph_spanning(graph, inside)
    widest: Weight = BOTTOM
    for source in sub.nodes[:-1]:
        dist = flooding_distance_all(sub, source)
        for other in sub.nodes:
            if dist[other] == TOP:
                raise PreconditionError(
                    f"diameter needs a connected set; {source!r} and {other!r} are separated"
                )
            if dist[other] > widest:
                widest = dist[other]
    return widest


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


def mst(graph: Graph, root: str | None = None) -> Graph:
    """Minimum spanning tree (forest on disconnected graphs) by Prim.

    Equal-weight frontier edges are taken in declaration order, so the
    result is deterministic.  Node set and weights are retained.
    """
    weights = graph.require_edge_weights("mst")
    count = len(graph.nodes)
    starts: Iterable[int] = range(count)
    if root is not None:
        starts = [graph.node_index(root), *starts]
    offsets, adj_node, adj_edge = graph.offsets, graph.adj_node, graph.adj_edge
    edge_u, edge_v = graph.edge_u, graph.edge_v
    chosen: list[int] = []
    visited = [False] * count
    heap: list[tuple[Weight, int]] = []

    def visit(node: int) -> None:
        # edges back into the tree would only be discarded when popped
        visited[node] = True
        for slot in range(offsets[node], offsets[node + 1]):
            if not visited[adj_node[slot]]:
                edge_id = adj_edge[slot]
                heapq.heappush(heap, (weights[edge_id], edge_id))

    for start in starts:
        if visited[start]:
            continue
        visit(start)
        while heap:
            _, edge_id = heapq.heappop(heap)
            u = edge_u[edge_id]
            fresh = edge_v[edge_id] if visited[u] else u
            if not visited[fresh]:
                chosen.append(edge_id)
                visit(fresh)
    return partial_graph(graph, chosen)
