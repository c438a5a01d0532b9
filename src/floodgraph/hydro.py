"""Hydrostatic validity, lakes, flat zones and regional minima.

A node-level assignment tau is a flooding when water is stable: on a
node-weighted graph tau >= ground and a strict drop across an edge only
happens where the higher side sits on dry ground; on an edge-weighted graph
tau_p <= tau_q v e_pq across every edge (criterion checked both ways).

`lakes` returns a `LakePartition`: the level, the members and the exhaust
edge ids of each lake, as three lists by lake.  No kind is stored: a lake
is full exactly when its exhaust list is not empty, else a regional minimum.
"""

from __future__ import annotations

from array import array
from collections.abc import Mapping
from dataclasses import dataclass

from .errors import PreconditionError
from .graphs import (
    Graph,
    NodeValues,
    connected_components,
    dilation,
    group_by_label,
    values_by_index,
)
from .weights import Weight, join

__all__ = [
    "LakePartition",
    "ValidationReport",
    "derive_edge_graph",
    "flat_zones",
    "is_edge_flooding",
    "is_node_flooding",
    "lakes",
    "regional_minima",
]


@dataclass(frozen=True)
class ValidationReport:
    """The violations found; the report is true when there are none."""

    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return not self.violations


def is_node_flooding(graph: Graph, tau: Mapping[str, Weight]) -> ValidationReport:
    """Check tau >= f and: tau_p > tau_q across an edge forces tau_p = f_p."""
    ground = graph.require_ground_values("is_node_flooding")
    levels = values_by_index(graph, tau, "tau")
    names = graph.nodes
    violations: list[str] = []
    for node, (level, floor) in enumerate(zip(levels, ground)):
        if level < floor:
            violations.append(f"node {names[node]}: tau={level} below ground {floor}")
    for u, v in zip(graph.edge_u, graph.edge_v):
        a, b = levels[u], levels[v]  # only the higher end can hang: one test per edge
        if a != b and (a != ground[u] if a > b else b != ground[v]):
            p, q = (u, v) if a > b else (v, u)
            violations.append(
                f"edge ({names[u]},{names[v]}): tau_{names[p]}={levels[p]} "
                f"hangs above tau_{names[q]}={levels[q]} "
                "without resting on ground"
            )
    return ValidationReport(tuple(violations))


def is_edge_flooding(graph: Graph, tau: Mapping[str, Weight]) -> ValidationReport:
    """Check tau_p <= tau_q v e_pq for every edge, in both directions."""
    weights = graph.require_edge_weights("is_edge_flooding")
    levels = values_by_index(graph, tau, "tau")
    names = graph.nodes
    violations: list[str] = []
    for u, v, e in zip(graph.edge_u, graph.edge_v, weights):
        a, b = levels[u], levels[v]  # only the higher end p can have tau_p > tau_q v e
        if a != b and (a > e or b > e):
            p, q = (u, v) if a > b else (v, u)
            violations.append(
                f"edge ({names[u]},{names[v]}): tau_{names[p]}={levels[p]} "
                f"exceeds tau_{names[q]} v e = {join(levels[q], e)}"
            )
    return ValidationReport(tuple(violations))


@dataclass(frozen=True)
class LakePartition:
    """The lakes of a flooding as ``levels``, ``members`` and ``exhaust`` edge ids by lake.

    A lake with an exhaust edge is full; one without is a regional minimum."""

    levels: list[Weight]
    members: list[tuple[str, ...]]
    exhaust: list[list[int]]


def lakes(graph: Graph, tau: Mapping[str, Weight]) -> LakePartition:
    """Partition nodes into lakes of a valid flooding and classify them.

    Lakes are components joined by edges with equal tau not above the water;
    a lake with an exhaust edge (edge at exactly the lake level leading to a
    strictly lower node) is full, otherwise it is a regional minimum.
    Node-weighted graphs are classified on their derived edge view.
    """
    view = graph if graph.edge_weights is not None else derive_edge_graph(graph)
    levels = values_by_index(view, tau, "tau")
    report = is_edge_flooding(view, NodeValues(view, levels))
    if not report:
        raise PreconditionError(f"tau is not a valid flooding: {report.violations[0]}")
    weights = view.edge_weights
    ends = view.edge_u, view.edge_v, weights
    # the flags, then the lists the members are grouped in, are freed before the
    # exhaust lists are made, so no two of them are alive at once
    inside = [levels[u] == levels[v] and e <= levels[u] for u, v, e in zip(*ends)]
    label, first = connected_components(view, inside)
    del inside
    members = group_by_label(view.nodes, label, len(first))
    # Edge ids come in order and the drop is strict, so each edge is the
    # exhaust of at most one lake and every list comes out sorted.
    exhaust: list[list[int]] = [[] for _ in first]
    for edge_id, (u, v, e) in enumerate(zip(*ends)):
        a, b = levels[u], levels[v]
        if a < b:
            if e == b:
                exhaust[label[v]].append(edge_id)
        elif b < a and e == a:
            exhaust[label[u]].append(edge_id)
    return LakePartition(list(map(levels.__getitem__, first)), members, exhaust)


def flat_zones(graph: Graph, values: Mapping[str, Weight]) -> tuple[array, array]:
    """Components under edges whose endpoints share the same level of ``values``.

    Returns what ``connected_components`` returns: each node's zone and each
    zone's first node.
    """
    levels = values_by_index(graph, values, "values")
    flat = [levels[u] == levels[v] for u, v in zip(graph.edge_u, graph.edge_v)]
    return connected_components(graph, flat)


def regional_minima(graph: Graph, values: Mapping[str, Weight]) -> list[tuple[str, ...]]:
    """Flat zones of ``values`` whose every outside neighbor is strictly higher."""
    levels = values_by_index(graph, values, "values")
    label, first = flat_zones(graph, NodeValues(graph, levels))  # values is read once
    minimum = [True] * len(first)
    # an equal neighbor would lie in the zone itself: rule out zones with a lower one
    for u, v in zip(graph.edge_u, graph.edge_v):
        if levels[u] < levels[v]:
            minimum[label[v]] = False
        elif levels[v] < levels[u]:
            minimum[label[u]] = False
    zones = group_by_label(graph.nodes, label, len(first))
    return [zone for zone, low in zip(zones, minimum) if low]


def derive_edge_graph(graph: Graph) -> Graph:
    """Give each edge the max of its endpoint grounds; keep the ground.

    The view shares all the topology of ``graph``, pending incidences too: it builds nothing.
    """
    ground = graph.require_ground_values("derive_edge_graph")
    return graph.with_edge_weights(dilation(graph, ground))
