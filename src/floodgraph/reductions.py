"""Weight adjunctions, flat-zone contraction, and localized flooding.

`node_erosion` turns edge weights into node values (min of the incident
edges); with the dilation of node values into edge weights (max of the two
endpoints, as in `derive_edge_graph`) it forms an adjunction, whose closing
of the ground is `node_closing`.  The erosion of the edge weights is also
the waterfall level, the lowest flooding a node can keep once water may
escape through any pipe.

Contraction merges every flat zone of the ground into a single node.
Flooding commutes with it, which `contract_close_flood` exploits to
flood a node-weighted graph on a smaller derived one.  `local_flood`
answers "how high does the water stand at this one node" by growing
balls around it instead of flooding everything.
"""

from __future__ import annotations

import heapq
from array import array
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

from .graphs import (
    Graph,
    NodeFunction,
    ceiling_by_index,
    dilation,
    group_by_label,
    index_graph,
    values_by_index,
)
from .hydro import flat_zones, is_edge_flooding
from .ultrametric import _best_first_flood
from .weights import BOTTOM, TOP, Weight, join, meet

__all__ = [
    "ContractionMap",
    "contract_close_flood",
    "contract_flat_zones",
    "expand",
    "local_flood",
    "node_closing",
    "node_erosion",
    "waterfall_flooding",
]


def node_erosion(graph: Graph) -> NodeFunction:
    """Per-node min of the incident edge weights; isolated nodes get top."""
    weights = graph.require_edge_weights("node_erosion")
    offsets, adj_edge = graph.offsets, graph.adj_edge
    return {
        node: min((weights[e] for e in adj_edge[offsets[i] : offsets[i + 1]]), default=TOP)
        for i, node in enumerate(graph.nodes)
    }


def node_closing(graph: Graph) -> NodeFunction:
    """Closing on the ground: dilate to the edges, erode back.  That is
    max(ground, lowest neighbor ground), or top for an isolated node."""
    levels = graph.require_ground_values("node_closing")
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
    in ``graph``.  ``blocks`` lists the members of each super-node in
    declaration order, built on first access.
    """

    graph: Graph
    nodes: tuple[str, ...] = field(repr=False)
    zone_of: array = field(repr=False)

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
