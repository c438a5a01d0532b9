"""Weight adjunctions, flat-zone contraction, and localized flooding.

`waterfall_flooding` is the node erosion of the edge weights (min of the
incident edges): the waterfall level, the lowest flooding a node can keep
once water may escape through any pipe.  With the dilation of node values
into edge weights (max of the two endpoints, as in `derive_edge_graph`)
the erosion forms an adjunction.  Its closing of the ground, max(ground,
lowest neighbor ground), is the relief `contract_close_flood` floods.

Contraction merges every flat zone of the ground into a single node.
Flooding commutes with it, which `contract_close_flood` exploits to flood
a node-weighted graph on the zones, by index, with no zone graph.  It
closes the zone ground only at the zones a finite ceiling feeds, its seeds,
and raises a zone reached at lam to lam v its ground: the dilation of the
closing, which is the dilation of the zone ground (dilate, erode, dilate is
dilate).  `local_flood` answers "how high does the water stand at this one
node" by a best-first search from it in order of flooding distance, which
stops at the first distance that reaches the best ceiling seen, instead of
flooding everything.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass, field
from functools import cached_property
from itertools import compress, count, repeat
from operator import eq, lt, not_

from .graphs import (
    Graph,
    NodeValues,
    ceiling_by_index,
    connected_components,
    group_by_label,
    index_graph,
    node_indices,
    values_by_index,
)
from .hydro import is_edge_flooding
from .ultrametric import Funnel
from .weights import TOP, Weight

__all__ = [
    "ContractionMap",
    "contract_close_flood",
    "contract_flat_zones",
    "local_flood",
    "waterfall_flooding",
]


def waterfall_flooding(graph: Graph) -> NodeValues:
    """Highest flooding from which no node can still drain downhill.

    The node erosion of the edge weights: every node sits exactly at its
    lowest escape pipe (an isolated node at top), so the result is always
    a valid flooding.
    """
    weights = graph.require_edge_weights("waterfall_flooding")
    offsets, _, adj_edge = graph.incidences()
    level = NodeValues(graph, [
        min(map(weights.__getitem__, adj_edge[low:high]), default=TOP)
        for low, high in zip(offsets, offsets[1:])
    ])
    report = is_edge_flooding(graph, level)
    assert report, report.violations
    return level


@dataclass(frozen=True, eq=False)
class ContractionMap:
    """Correspondence between a graph and its contraction.

    ``graph`` is the contracted graph and ``zone_of`` holds, for each node
    of the ``original`` graph, the index of its super-node in ``graph``.
    ``blocks`` lists the members of each super-node in declaration order,
    built on first access.  Maps compare and hash by identity.
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
    cross, zone_of, firsts, low = _zones(graph, omega, "contract_flat_zones")
    *ends, weights = _zone_edges(graph, zone_of, len(firsts), cross)
    names, ground = graph.nodes, graph.ground_values  # a zone's are its first node's
    contracted = index_graph([names[i] for i in firsts], *ends, [ground[i] for i in firsts], weights)
    contracted_omega = None if low is None else NodeValues(contracted, low)
    return contracted, ContractionMap(contracted, graph, zone_of), contracted_omega


def _zones(
    graph: Graph, omega: Mapping[str, Weight] | None, operation: str
) -> tuple[list[bool], array, array, list[Weight] | None]:
    """The flat zones by index: ``(cross, zone_of, firsts, low)``: the edges whose ends
    lie in two zones, each node's zone, each zone's first node and lowest finite ceiling
    (top where it has none; ``low`` is None without a ceiling)."""
    ground = graph.require_ground_values(operation)
    cross = [ground[u] != ground[v] for u, v in zip(graph.edge_u, graph.edge_v)]
    zone_of, firsts = connected_components(graph, list(map(not_, cross)))
    low = None
    if omega is not None:
        ceiling = ceiling_by_index(graph, omega, "ceiling")
        low = [TOP] * len(firsts)
        for zone, level in compress(zip(zone_of, ceiling), map(lt, ceiling, repeat(TOP))):
            if level < low[zone]:
                low[zone] = level
    return cross, zone_of, firsts, low


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

    Each flat zone lists the zones across its cross edges, once per edge: a
    parallel edge costs one compare.  A min-max best-first loop over those
    lists starts at each fed zone's ceiling raised to its closing (the
    erosion of the dilation of the zone ground) and raises a zone reached at
    lam to lam v its ground, the dilation of the closed relief.  A zone with
    no finite ceiling is no seed, whatever its closing.  A final cap at the
    ceiling then reproduces the flooding of the original graph exactly.  The
    loop is its own: the kernel reads a graph's incidences; these are lists.
    """
    cross, zone_of, firsts, ceiling = _zones(graph, omega, "contract_close_flood")
    ground = list(map(graph.ground_values.__getitem__, firsts))
    around: list[list[int]] = [[] for _ in firsts]  # each zone's zones across its cross edges
    zone = zone_of.tolist().__getitem__  # the lists share its ints
    for zu, zv in zip(*(map(zone, compress(side, cross)) for side in (graph.edge_u, graph.edge_v))):
        around[zu].append(zv)
        around[zv].append(zu)
    del cross  # a list by edge: not kept through the flood
    chi = [TOP] * len(firsts)  # lowered in place
    fed = [zone for zone, level in enumerate(ceiling) if level < TOP]
    funnel = Funnel()
    for zone in fed:  # the closing: max(ground, lowest neighbor), top when alone
        near = around[zone]
        closed = max(ground[zone], min(map(ground.__getitem__, near))) if near else TOP
        chi[zone] = level = max(ceiling[zone], closed)
        funnel[level].append(zone)
    for lam, bucket in funnel.buckets():  # a zone's level is never below its ground
        for zone in bucket:
            if chi[zone] != lam:
                continue
            for other in around[zone]:
                candidate = ground[other] if ground[other] > lam else lam
                if candidate < chi[other]:
                    chi[other] = candidate
                    funnel[candidate].append(other)
    # A minimum whose own ceiling sits below the closing never spills;
    # the final cap hands it back its ceiling.
    for zone in fed:
        if ceiling[zone] < chi[zone]:
            chi[zone] = ceiling[zone]
    return NodeValues(graph, list(map(chi.__getitem__, zone_of)))


def local_flood(graph: Graph, omega: Mapping[str, Weight], node: str) -> Weight:
    """Flooding level at one node without flooding the whole graph.

    tau_p = f_p v min over q of (omega_q v d(p, q)), d the flooding distance.
    A best-first search started at f_p extracts each q once, at its level
    f_p v d(p, q): q offers a neighbor r the level f_r v lam_q, and levels
    leave in nondecreasing order, so no entry goes stale.  Each q lowers the
    answer from omega_p to omega_q v its level, never below f_p, so it needs
    no final join with f_p.  It stops at the first level at or above the
    answer: this early stop is why it keeps a loop of its own, not the kernel.
    """
    ground = graph.require_ground_values("local_flood")
    (center,) = node_indices(graph, (node,))
    offsets, adj_node, _ = graph.incidences()  # built before the ceiling list exists
    ceiling = ceiling_by_index(graph, omega, "ceiling")

    best = ceiling[center]
    level: list[Weight] = [TOP] * len(graph.nodes)
    level[center] = ground[center]
    funnel = Funnel()
    funnel[ground[center]].append(center)
    for lam, bucket in funnel.buckets():  # candidates are never below lam
        if lam >= best:
            break
        for q in bucket:
            cap = ceiling[q]
            if cap < best:
                best = cap if cap > lam else lam
            for slot in range(offsets[q], offsets[q + 1]):
                r = adj_node[slot]
                candidate = ground[r] if ground[r] > lam else lam
                if candidate < level[r]:
                    level[r] = candidate
                    funnel[candidate].append(r)
    return best
