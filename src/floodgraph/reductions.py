"""Weight adjunctions, flat-zone contraction, and localized flooding.

`node_erosion` turns edge weights into node values (min of the incident
edges); with the dilation of node values into edge weights (max of the two
endpoints, as in `derive_edge_graph`) it forms an adjunction, whose closing
of the ground is `node_closing`.  The erosion of the edge weights is also
the waterfall level, the lowest flooding a node can keep once water may
escape through any pipe.

Contraction merges every flat zone of the ground into a single node.
Flooding commutes with it, which `contract_close_flood` exploits to
flood a node-weighted graph on the zones, by index.  It closes the zone
ground only at the zones a finite ceiling feeds, the kernel's seeds, and
weighs the zone edges by the dilation of the zone ground, which is the
dilation of the closing (dilate, erode, dilate is dilate).  `local_flood`
answers "how high does the water stand at this one node" by a best-first
search from it in order of flooding distance, which stops at the first
distance that reaches the best ceiling seen, instead of flooding everything.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, count, repeat
from operator import eq, lt, not_
from typing import Mapping

from .graphs import (
    Graph,
    NodeValues,
    ceiling_by_index,
    connected_components,
    dilation,
    group_by_label,
    index_graph,
    values_by_index,
)
from .hydro import is_edge_flooding
from .ultrametric import Funnel, _best_first_flood
from .weights import BOTTOM, TOP, Weight, join

__all__ = [
    "ContractionMap",
    "contract_close_flood",
    "contract_flat_zones",
    "local_flood",
    "node_closing",
    "node_erosion",
    "waterfall_flooding",
]


def node_erosion(graph: Graph) -> NodeValues:
    """Per-node min of the incident edge weights; isolated nodes get top."""
    weights = graph.require_edge_weights("node_erosion")
    offsets, adj_edge = graph.offsets, graph.adj_edge
    return NodeValues(graph, [
        min(map(weights.__getitem__, adj_edge[low:high]), default=TOP)
        for low, high in zip(offsets, offsets[1:])
    ])


def node_closing(graph: Graph) -> NodeValues:
    """Closing on the ground: dilate to the edges, erode back.  That is
    max(ground, lowest neighbor ground), or top for an isolated node."""
    levels = graph.require_ground_values("node_closing")
    offsets, adj_node = graph.offsets, graph.adj_node
    return NodeValues(graph, [
        max(level, min(map(levels.__getitem__, adj_node[low:high]))) if low < high else TOP
        for level, low, high in zip(levels, offsets, offsets[1:])
    ])


def waterfall_flooding(graph: Graph) -> NodeValues:
    """Highest flooding from which no node can still drain downhill.

    Equals the node erosion of the edge weights; every node sits exactly
    at its lowest escape pipe, so the result is always a valid flooding.
    """
    graph.require_edge_weights("waterfall_flooding")
    level = node_erosion(graph)
    report = is_edge_flooding(graph, level)
    assert report, report.violations
    return level


@dataclass(frozen=True)
class ContractionMap:
    """Correspondence between a graph and its contraction.

    ``graph`` is the contracted graph and ``zone_of`` holds, for each node
    of the ``original`` graph, the index of its super-node in ``graph``.
    ``blocks`` lists the members of each super-node in declaration order,
    built on first access.
    """

    graph: Graph
    original: Graph = field(repr=False)
    zone_of: array = field(repr=False)

    @cached_property
    def blocks(self) -> dict[str, tuple[str, ...]]:
        reps = self.graph.nodes
        return dict(zip(reps, group_by_label(self.original.nodes, self.zone_of, len(reps))))

    def expand(self, values: Mapping[str, Weight]) -> NodeValues:
        """Pull values on the contracted graph back to the original nodes."""
        levels = values_by_index(self.graph, values, "contracted values")
        return NodeValues(self.original, list(map(levels.__getitem__, self.zone_of)))


def contract_flat_zones(
    graph: Graph,
    omega: Mapping[str, Weight] | None = None,
) -> tuple[Graph, ContractionMap, NodeValues | None]:
    """Merge each flat zone of the ground into one super-node.

    The super-node id is the zone's first declared member.  Parallel
    edges between two zones collapse to one edge; if the graph carries
    edge weights the lowest one survives.  A ceiling contracts to the
    min over each zone, since a lake covering the zone is capped by the
    lowest ceiling above it (a ``NodeValues`` over the contracted graph).
    """
    zone_of, firsts, low, edge_u, edge_v, weights = _contract(graph, omega, "contract_flat_zones")
    reps = tuple(map(graph.nodes.__getitem__, firsts))
    ground = map(graph.ground_values.__getitem__, firsts)
    contracted = index_graph(reps, edge_u, edge_v, ground, weights)
    contracted_omega = None if low is None else NodeValues(contracted, low)
    return contracted, ContractionMap(contracted, graph, zone_of), contracted_omega


def _contract(
    graph: Graph, omega: Mapping[str, Weight] | None, operation: str
) -> tuple[array, array, list[Weight] | None, array, array, list | None]:
    """The contraction by index: ``(zone_of, firsts, low, edge_u, edge_v, weights)``,
    with each zone's first node, its lowest ceiling (``low`` is None without
    one) and the zone edges of `_zone_edges`."""
    ground = graph.require_ground_values(operation)
    cross = [ground[u] != ground[v] for u, v in zip(graph.edge_u, graph.edge_v)]
    zone_of, firsts = connected_components(graph, list(map(not_, cross)))
    low = None
    if omega is not None:  # each zone's lowest finite ceiling, top where it has none
        ceiling = ceiling_by_index(graph, omega, "ceiling")
        low = [TOP] * len(firsts)
        for zone, level in compress(zip(zone_of, ceiling), map(lt, ceiling, repeat(TOP))):
            if level < low[zone]:
                low[zone] = level
        del ceiling  # a list by node: not kept through the zone edges' peak
    return zone_of, firsts, low, *_zone_edges(graph, zone_of, len(firsts), cross)


def _zone_edges(
    graph: Graph, zone_of: array, zones: int, cross: list[bool]
) -> tuple[array, array, list | None]:
    """The edges between distinct zones, each zone pair once in the order it
    is first met and oriented as its first edge, with the lowest weight of
    its parallel edges (None when the graph has no edge weights).  Only the
    ``cross`` edges, whose ends lie in two zones, are read."""
    zone = zone_of.tolist().__getitem__  # a list's item call is the cheaper one
    sides = graph.edge_u, graph.edge_v
    keys = [  # the zone pair as one int, by cross edge
        zu * zones + zv if zu < zv else zv * zones + zu
        for zu, zv in zip(*(map(zone, compress(side, cross)) for side in sides))
    ]
    first = dict(zip(reversed(keys), range(len(keys) - 1, -1, -1)))
    kept = list(map(eq, map(first.__getitem__, keys), count()))  # a pair's first edge
    del first
    weights = None
    if graph.edge_weights is not None:
        low: dict[int, Weight] = {}
        for key, weight in zip(keys, compress(graph.edge_weights, cross)):
            if key not in low or weight < low[key]:
                low[key] = weight
        weights = list(map(low.__getitem__, compress(keys, kept)))
    edge_u, edge_v = (
        array("i", list(map(zone, compress(compress(side, cross), kept)))) for side in sides
    )
    return edge_u, edge_v, weights


def contract_close_flood(graph: Graph, omega: Mapping[str, Weight]) -> NodeValues:
    """Flood a node-weighted graph by contracting, closing, then flooding.

    Flat zones are merged first, and the min-max kernel floods the zone
    graph in one pass, seeded at each zone's ceiling raised to its closing
    (the erosion of the dilation of the zone ground).  Its edge weights are
    the dilation of the closed relief, which is the dilation of the zone
    ground itself, since dilating, eroding and dilating again is dilating.
    A zone with no finite ceiling is no seed, whatever its closing, so the
    closing is taken at the seeds alone.  A final cap at the ceiling then
    reproduces the flooding of the original graph exactly.
    """
    zone_of, firsts, ceiling, edge_u, edge_v, _ = _contract(graph, omega, "contract_close_flood")
    ground = list(map(graph.ground_values.__getitem__, firsts))
    contracted = index_graph(map(graph.nodes.__getitem__, firsts), edge_u, edge_v)
    offsets, adj_node = contracted.offsets, contracted.adj_node
    chi = [TOP] * len(firsts)  # lowered in place
    fed = [zone for zone, level in enumerate(ceiling) if level < TOP]
    for zone in fed:  # the closing: max(ground, lowest neighbor), top when alone
        around = adj_node[offsets[zone] : offsets[zone + 1]]
        closed = max(ground[zone], min(map(ground.__getitem__, around))) if around else TOP
        chi[zone] = max(ceiling[zone], closed)
    _best_first_flood(contracted, dilation(contracted, ground), chi, fed)
    # A minimum whose own ceiling sits below the closing never spills;
    # the final cap hands it back its ceiling.
    for zone in fed:
        if ceiling[zone] < chi[zone]:
            chi[zone] = ceiling[zone]
    return NodeValues(graph, list(map(chi.__getitem__, zone_of)))


def local_flood(graph: Graph, omega: Mapping[str, Weight], node: str) -> Weight:
    """Flooding level at one node without flooding the whole graph.

    tau_p = f_p v min over q of (omega_q v d(p, q)), d the flooding
    distance.  A best-first search from ``node`` extracts the nodes in
    order of d, each q lowering the answer to omega_q v d(p, q).  It stops
    as soon as the next distance is at or above the answer: every node left
    is at least that far, so none can lower it.  The search thus visits only
    the nodes no farther than the answer, and this early stop is why it keeps
    its own loop, where a run of the min-max kernel would visit the whole graph.
    """
    ground = graph.require_ground_values("local_flood")
    center = graph.node_index(node)
    ceiling = ceiling_by_index(graph, omega, "ceiling")
    offsets, adj_node = graph.offsets, graph.adj_node

    best = ceiling[center]
    level: list[Weight] = [TOP] * len(graph.nodes)
    level[center] = BOTTOM
    funnel = Funnel()
    funnel[BOTTOM].append(center)
    for lam, bucket in funnel.buckets():  # candidates are never below lam
        if lam >= best:
            break
        for q in bucket:
            if level[q] != lam:
                continue
            cap = ceiling[q]
            if cap < best:
                best = cap if cap > lam else lam
            low = ground[q] if ground[q] > lam else lam
            for slot in range(offsets[q], offsets[q + 1]):
                r = adj_node[slot]
                candidate = ground[r] if ground[r] > low else low
                if candidate < level[r]:
                    level[r] = candidate
                    funnel[candidate].append(r)
    return join(ground[center], best)
