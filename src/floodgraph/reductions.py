"""Weight adjunctions, flat-zone contraction, and localized flooding.

The two base operators form an adjunction: `edge_dilation` turns ground
values into edge weights (max of the two endpoints) and `node_erosion`
turns edge weights into node values (min of the incident edges).
Composing them yields an opening on edge weights and a closing on node
values; the closing of the ground is also the waterfall level, the
lowest flooding a node can keep once water may escape through any pipe.

Contraction merges every flat zone of the ground into a single node.
Flooding commutes with it, which `contract_close_flood` exploits to
flood a node-weighted graph on a smaller derived one.  `local_flood`
answers "how high does the water stand at this one node" by growing
balls around it instead of flooding everything.  `up_hill` pushes water
from a flooded region R uphill: a node q fills to min(d_R(q), omega_c v
d(c, q)) over the ceilings c, since a ceiling outside q's valley is no
closer to q than the spill d_R(q); two runs of the min-max kernel give it.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from .errors import PreconditionError
from .graphs import (
    Graph,
    NodeFunction,
    ceiling_by_index,
    dilation,
    group_by_label,
    index_graph,
    levels_by_index,
    values_by_index,
)
from .hydro import flat_zones, is_edge_flooding
from .ultrametric import _best_first_flood
from .weights import BOTTOM, TOP, Weight, join, meet

__all__ = [
    "ContractionMap",
    "contract_close_flood",
    "contract_flat_zones",
    "edge_dilation",
    "edge_opening",
    "expand",
    "local_flood",
    "mst_with_contraction",
    "node_closing",
    "node_erosion",
    "up_hill",
    "waterfall_flooding",
]

def edge_dilation(graph: Graph, values: Mapping[str, Weight] | None = None) -> tuple[Weight, ...]:
    """Per-edge max of the endpoint values (defaults to the ground)."""
    return dilation(graph, levels_by_index(graph, values, "edge_dilation", "node values"))


def node_erosion(graph: Graph, weights: tuple[Weight, ...] | None = None) -> NodeFunction:
    """Per-node min of the incident edge weights; isolated nodes get top."""
    if weights is None:
        weights = graph.require_edge_weights("node_erosion")
    elif len(weights) != len(graph.edge_u):
        raise PreconditionError(
            f"{len(graph.edge_u)} edges but {len(weights)} edge weights"
        )
    offsets, adj_edge = graph.offsets, graph.adj_edge
    return {
        node: min((weights[e] for e in adj_edge[offsets[i] : offsets[i + 1]]), default=TOP)
        for i, node in enumerate(graph.nodes)
    }


def edge_opening(graph: Graph, weights: tuple[Weight, ...] | None = None) -> tuple[Weight, ...]:
    """Opening on edge weights: erode to the nodes, dilate back."""
    eroded = node_erosion(graph, weights)
    return dilation(graph, [eroded[node] for node in graph.nodes])


def node_closing(graph: Graph, values: Mapping[str, Weight] | None = None) -> NodeFunction:
    """Closing on node values: dilate to the edges, erode back.  That is
    max(value, lowest neighbor value), or top for an isolated node."""
    levels = levels_by_index(graph, values, "edge_dilation", "node values")
    offsets, adj_node = graph.offsets, graph.adj_node
    return dict(zip(graph.nodes, (
        max(level, min(map(levels.__getitem__, adj_node[low:high]))) if low < high else TOP
        for level, low, high in zip(levels, offsets, offsets[1:])
    )))


def waterfall_flooding(graph: Graph) -> NodeFunction:
    """Highest flooding from which no node can still drain downhill.

    Equals the node erosion of the edge weights; every node sits exactly
    at its lowest escape pipe, so the result is always a valid flooding.
    """
    graph.require_edge_weights("waterfall_flooding")
    level = node_erosion(graph)
    report = is_edge_flooding(graph, level)
    assert report.valid, report.violations
    return level


@dataclass(frozen=True)
class ContractionMap:
    """Correspondence between a graph and its contraction.

    ``graph`` is the contracted graph and ``zone_of`` holds, for each node
    of the original graph (named in ``nodes``), the index of its super-node
    in ``graph``.  ``forward`` sends each original node name to its
    super-node and ``blocks`` lists the members of each super-node in
    declaration order; both are built on first access.
    """

    graph: Graph
    nodes: tuple[str, ...] = field(repr=False)
    zone_of: array = field(repr=False)

    @cached_property
    def forward(self) -> dict[str, str]:
        return dict(zip(self.nodes, map(self.graph.nodes.__getitem__, self.zone_of)))

    @cached_property
    def blocks(self) -> dict[str, tuple[str, ...]]:
        reps = self.graph.nodes
        return dict(zip(reps, group_by_label(self.nodes, self.zone_of, len(reps))))

    def expand(self, values: Mapping[str, Weight]) -> NodeFunction:
        """Pull values on the contracted graph back to the original nodes."""
        levels = values_by_index(self.graph, values, "contracted values")
        return dict(zip(self.nodes, map(levels.__getitem__, self.zone_of)))


expand = ContractionMap.expand  # the free-function form: expand(mapping, values)


def contract_flat_zones(
    graph: Graph,
    omega: Mapping[str, Weight] | None = None,
) -> tuple[Graph, ContractionMap, NodeFunction | None]:
    """Merge each flat zone of the ground into one super-node.

    The super-node id is the zone's first declared member.  Parallel
    edges between two zones collapse to one edge; if the graph carries
    edge weights the lowest one survives.  A ceiling contracts to the
    min over each zone, since a lake covering the zone is capped by the
    lowest ceiling above it.
    """
    ground = graph.require_ground_values("contract_flat_zones")
    ceiling = None if omega is None else ceiling_by_index(graph, omega, "ceiling")

    zone_of, firsts = flat_zones(graph, labels=True)
    reps = tuple(map(graph.nodes.__getitem__, firsts))
    contracted_omega: NodeFunction | None = None
    if ceiling is not None:
        low = list(map(ceiling.__getitem__, firsts))
        for zone, level in zip(zone_of, ceiling):
            if level < low[zone]:
                low[zone] = level
        contracted_omega = dict(zip(reps, low))

    edge_u, edge_v, weights = _zone_edges(graph, zone_of, len(firsts))
    contracted = index_graph(reps, edge_u, edge_v, map(ground.__getitem__, firsts), weights)
    return contracted, ContractionMap(contracted, graph.nodes, zone_of), contracted_omega


def _zone_edges(graph: Graph, zone_of: array, zones: int) -> tuple[array, array, list | None]:
    """The edges between distinct zones, each zone pair once in the order it
    is first met, with the lowest weight of its parallel edges (None when
    the graph has no edge weights)."""
    zone = zone_of.__getitem__
    keys = [  # the zone pair as one int, -1 inside a zone
        zu * zones + zv if zu < zv else zv * zones + zu if zv < zu else -1
        for zu, zv in zip(map(zone, graph.edge_u), map(zone, graph.edge_v))
    ]
    first_edge = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    first_edge.pop(-1, None)
    kept = sorted(first_edge.values())
    old_weights = graph.edge_weights
    weights = None
    if old_weights is not None:
        low: dict[int, Weight] = {}
        for key, weight in zip(keys, old_weights):
            if key not in low or weight < low[key]:
                low[key] = weight
        weights = [low[keys[e]] for e in kept]
    edge_u = array("i", map(zone, map(graph.edge_u.__getitem__, kept)))
    edge_v = array("i", map(zone, map(graph.edge_v.__getitem__, kept)))
    return edge_u, edge_v, weights


def mst_with_contraction(graph: Graph) -> tuple[Graph, ContractionMap]:
    """Spanning tree of the derived edge weights with flat zones merged.

    One pass grows the tree edge by edge, always taking the cheapest
    crossing edge; among equal weights, edges inside a flat zone win so
    the whole zone collapses into one super-node before any outgoing
    edge of the same weight is considered.  Returns the tree on the
    super-nodes plus the contraction that produced them.  The tree lists
    its edges in Prim's visit order, which is why this loop is its own.
    An edge is flat exactly when its endpoints share a flat zone, so the
    super-nodes are the zones of `contract_flat_zones`.
    """
    ground = graph.require_ground_values("mst_with_contraction")
    derived = dilation(graph, ground)
    zone_of, firsts = flat_zones(graph, labels=True)
    edge_u, edge_v = graph.edge_u, graph.edge_v
    offsets, adj_edge = graph.offsets, graph.adj_edge
    visited = [False] * len(ground)
    heap: list[tuple[Weight, bool, int]] = []
    tree_edge_ids: list[int] = []

    def visit(node: int) -> None:
        visited[node] = True
        for edge_id in adj_edge[offsets[node] : offsets[node + 1]]:
            crossing = zone_of[edge_u[edge_id]] != zone_of[edge_v[edge_id]]
            heapq.heappush(heap, (derived[edge_id], crossing, edge_id))

    for start in range(len(ground)):
        if visited[start]:
            continue
        visit(start)
        while heap:
            _, crossing, edge_id = heapq.heappop(heap)
            u, v = edge_u[edge_id], edge_v[edge_id]
            if visited[u] and visited[v]:
                continue
            visit(v if visited[u] else u)
            if crossing:
                tree_edge_ids.append(edge_id)

    tree = index_graph(
        map(graph.nodes.__getitem__, firsts),
        [zone_of[edge_u[e]] for e in tree_edge_ids],
        [zone_of[edge_v[e]] for e in tree_edge_ids],
        ground_values=map(ground.__getitem__, firsts),
        edge_weights=(derived[e] for e in tree_edge_ids),
    )
    return tree, ContractionMap(tree, graph.nodes, zone_of)


def contract_close_flood(graph: Graph, omega: Mapping[str, Weight]) -> NodeFunction:
    """Flood a node-weighted graph by contracting, closing, then flooding.

    Flat zones are merged first; the closing of the contracted ground
    gives the level at which each remaining node stops being a local
    pocket, and a single pass of the min-max kernel over the closed relief
    (seeded at the ceiling raised to the closing) plus a final cap at the
    ceiling reproduces the flooding of the original graph exactly.  The
    ceiling is checked by the contraction.
    """
    graph.require_ground_values("contract_close_flood")
    contracted, mapping, contracted_omega = contract_flat_zones(graph, omega)
    assert contracted_omega is not None
    ceiling = list(map(contracted_omega.__getitem__, contracted.nodes))
    closed = list(node_closing(contracted).values())
    chi = [max(level, low) for level, low in zip(ceiling, closed)]  # lowered in place
    fed = [node for node, level in enumerate(chi) if level < TOP]
    _best_first_flood(contracted, dilation(contracted, closed), chi, fed)
    # A minimum whose own ceiling sits below the closing never spills;
    # the final cap hands it back its ceiling.
    levels = list(map(meet, chi, ceiling))
    return dict(zip(graph.nodes, map(levels.__getitem__, mapping.zone_of)))


def local_flood(graph: Graph, omega: Mapping[str, Weight], node: str) -> Weight:
    """Flooding level at one node without flooding the whole graph.

    Grows the balls around ``node`` one radius at a time; the level is
    the best ceiling-versus-diameter trade-off over those balls, capped
    below by the ground.  Stops as soon as the lowest ceiling seen no
    longer beats the next radius; that early stop is why this keeps its own
    loop, where a run of the min-max kernel would visit the whole graph.
    """
    ground = graph.require_ground_values("local_flood")
    ceiling = ceiling_by_index(graph, omega, "ceiling")
    center = graph.node_index(node)
    offsets, adj_node, adj_edge = graph.offsets, graph.adj_node, graph.adj_edge

    inside = {center}
    lake_cap = ceiling[center]
    diam: Weight = BOTTOM
    best = lake_cap
    heap: list[tuple[Weight, int, int]] = []

    def push_edges(q: int) -> None:
        for slot in range(offsets[q], offsets[q + 1]):
            r = adj_node[slot]
            if r not in inside:
                heapq.heappush(heap, (join(ground[q], ground[r]), adj_edge[slot], r))

    push_edges(center)
    while lake_cap > diam:  # the heap's least entry is never stale here
        radius = heap[0][0] if heap else TOP
        if lake_cap <= radius:
            break
        while heap and (heap[0][0] <= radius or heap[0][2] in inside):
            _, _, fresh = heapq.heappop(heap)
            if fresh not in inside:
                inside.add(fresh)
                lake_cap = meet(lake_cap, ceiling[fresh])
                push_edges(fresh)
        diam = radius
        best = meet(best, join(lake_cap, diam))
    return join(ground[center], best)


def up_hill(
    graph: Graph,
    omega: Mapping[str, Weight],
    region: Mapping[str, Weight] | set[str] | list[str] | tuple[str, ...],
    cap: Weight = TOP,
) -> NodeFunction:
    """Flood the terrain uphill of an already flooded region.

    With passes weighted by the derived edge weights (the max of the two
    endpoint grounds), let d_R be the flooding distance from ``region``.
    Each node q outside it with d_R(q) <= cap and d_R(q) < top floods to
    min(d_R(q), min over ceilings c of omega_c v d(c, q)): q is reached
    through the lowest pass out of the area claimed so far, and a ceiling
    outside q's valley is no closer to q than d_R(q), so only ceilings in
    the valley can hold it lower.  Two runs of the min-max kernel give
    both terms: one seeded at the region, one also at every finite
    ceiling.  Returns the levels of the newly flooded nodes, in node order.
    """
    ground = graph.require_ground_values("up_hill")
    ceiling = ceiling_by_index(graph, omega, "ceiling")
    seeds = {graph.node_index(node) for node in region}
    if not seeds:
        raise PreconditionError("up_hill needs a non-empty start region")
    passes = dilation(graph, ground)
    spill: list[Weight] = [TOP] * len(ceiling)
    for seed in seeds:
        spill[seed] = ceiling[seed] = BOTTOM
    _best_first_flood(graph, passes, spill, seeds)
    fed = [node for node, level in enumerate(ceiling) if level < TOP]
    _best_first_flood(graph, passes, ceiling, fed)  # lowers the ceiling to the levels
    return {
        graph.nodes[node]: ceiling[node]
        for node, reach in enumerate(spill)
        if reach <= cap and reach < TOP and node not in seeds
    }
