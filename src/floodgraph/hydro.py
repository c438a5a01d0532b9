"""Hydrostatic validity, lakes, flat zones, and the flooding lattice.

A node-level assignment tau is a flooding when water is stable: on a
node-weighted graph tau >= ground and a strict drop across an edge only
happens where the higher side sits on dry ground; on an edge-weighted graph
tau_p <= tau_q v e_pq across every edge (criterion checked both ways).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping

from .errors import PreconditionError
from .graphs import (
    Graph,
    NodeFunction,
    connected_components,
    dilation,
    levels_by_index,
    values_by_index,
)
from .weights import Weight, format_weight, join


@dataclass(frozen=True)
class ValidationReport:
    valid: bool
    violations: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.valid


def is_node_flooding(graph: Graph, tau: Mapping[str, Weight]) -> ValidationReport:
    """Check tau >= f and: tau_p > tau_q across an edge forces tau_p = f_p."""
    ground = graph.require_ground_values("is_node_flooding")
    levels = values_by_index(graph, tau, "tau")
    names = graph.nodes
    violations: list[str] = []
    for node, (level, floor) in enumerate(zip(levels, ground)):
        if level < floor:
            violations.append(
                f"node {names[node]}: tau={format_weight(level)} below ground "
                f"{format_weight(floor)}"
            )
    for u, v in zip(graph.edge_u, graph.edge_v):
        for p, q in ((u, v), (v, u)):
            if levels[p] > levels[q] and levels[p] != ground[p]:
                violations.append(
                    f"edge ({names[u]},{names[v]}): tau_{names[p]}={format_weight(levels[p])} "
                    f"hangs above tau_{names[q]}={format_weight(levels[q])} "
                    "without resting on ground"
                )
    return ValidationReport(not violations, tuple(violations))


def is_edge_flooding(graph: Graph, tau: Mapping[str, Weight]) -> ValidationReport:
    """Check tau_p <= tau_q v e_pq for every edge, in both directions."""
    weights = graph.require_edge_weights("is_edge_flooding")
    levels = values_by_index(graph, tau, "tau")
    names = graph.nodes
    violations: list[str] = []
    for u, v, e in zip(graph.edge_u, graph.edge_v, weights):
        for p, q in ((u, v), (v, u)):
            if levels[p] > levels[q] and levels[p] > e:  # tau_p > tau_q v e
                violations.append(
                    f"edge ({names[u]},{names[v]}): tau_{names[p]}={format_weight(levels[p])} "
                    f"exceeds tau_{names[q]} v e = {format_weight(join(levels[q], e))}"
                )
    return ValidationReport(not violations, tuple(violations))


class LakeKind(enum.Enum):
    REGIONAL_MINIMUM = "regmin"
    FULL = "full"


@dataclass(frozen=True)
class Lake:
    nodes: tuple[str, ...]
    level: Weight
    kind: LakeKind
    exhaust_edges: tuple[int, ...] = ()


@dataclass(frozen=True)
class LakePartition:
    lakes: tuple[Lake, ...]

    def lake_of(self, node: str) -> Lake:
        for lake in self.lakes:
            if node in lake.nodes:
                return lake
        raise PreconditionError(f"node {node!r} not in any lake")


def lakes(graph: Graph, tau: Mapping[str, Weight]) -> LakePartition:
    """Partition nodes into lakes of a valid flooding and classify them.

    Lakes are components joined by edges with equal tau not above the water;
    a lake with an exhaust edge (edge at exactly the lake level leading to a
    strictly lower node) is full, otherwise it is a regional minimum.
    Node-weighted graphs are classified on their derived edge view.
    """
    view = graph if graph.has_edge_weights else derive_edge_graph(graph)
    report = is_edge_flooding(view, tau)
    if not report:
        raise PreconditionError(f"tau is not a valid flooding: {report.violations[0]}")
    weights = view.require_edge_weights("lakes")
    levels = [tau[node] for node in view.nodes]
    inside = [
        levels[u] == levels[v] and e <= levels[u]
        for u, v, e in zip(view.edge_u, view.edge_v, weights)
    ]
    offsets, adj_node, adj_edge = view.offsets, view.adj_node, view.adj_edge
    index = view.node_index
    result: list[Lake] = []
    for block in connected_components(view, inside.__getitem__):
        level = tau[block[0]]
        exhaust: set[int] = set()
        for node in map(index, block):
            for slot in range(offsets[node], offsets[node + 1]):
                edge_id = adj_edge[slot]
                if weights[edge_id] == level and levels[adj_node[slot]] < level:
                    exhaust.add(edge_id)
        kind = LakeKind.FULL if exhaust else LakeKind.REGIONAL_MINIMUM
        result.append(Lake(block, level, kind, tuple(sorted(exhaust))))
    return LakePartition(tuple(result))


def flat_zones(graph: Graph, values: Mapping[str, Weight] | None = None) -> list[tuple[str, ...]]:
    """Components under edges whose endpoints share the same level."""
    levels = levels_by_index(graph, values, "flat_zones")
    flat = [levels[u] == levels[v] for u, v in zip(graph.edge_u, graph.edge_v)]
    return connected_components(graph, flat.__getitem__)


def regional_minima(
    graph: Graph, values: Mapping[str, Weight] | None = None
) -> list[tuple[str, ...]]:
    """Flat zones whose every outside neighbor is strictly higher."""
    levels = levels_by_index(graph, values, "regional_minima")
    offsets, adj_node, index = graph.offsets, graph.adj_node, graph.node_index
    # an equal neighbor would lie in the zone itself: test for no lower one
    return [
        zone
        for zone in flat_zones(graph, values)
        if all(
            levels[adj_node[slot]] >= levels[node]
            for node in map(index, zone)
            for slot in range(offsets[node], offsets[node + 1])
        )
    ]


def _check_flooding(graph: Graph, tau: Mapping[str, Weight], what: str) -> None:
    report = (
        is_edge_flooding(graph, tau) if graph.has_edge_weights else is_node_flooding(graph, tau)
    )
    if not report:
        raise PreconditionError(f"{what} is not a valid flooding: {report.violations[0]}")


def flooding_sup(graph: Graph, tau: Mapping[str, Weight], nu: Mapping[str, Weight]) -> NodeFunction:
    """Pointwise max of two floodings; the result is again a flooding."""
    _check_flooding(graph, tau, "tau")
    _check_flooding(graph, nu, "nu")
    out = {node: max(tau[node], nu[node]) for node in graph.nodes}
    _check_flooding(graph, out, "sup result")
    return out


def flooding_inf(graph: Graph, tau: Mapping[str, Weight], nu: Mapping[str, Weight]) -> NodeFunction:
    """Pointwise min of two floodings; the result is again a flooding."""
    _check_flooding(graph, tau, "tau")
    _check_flooding(graph, nu, "nu")
    out = {node: min(tau[node], nu[node]) for node in graph.nodes}
    _check_flooding(graph, out, "inf result")
    return out


def derive_edge_graph(graph: Graph) -> Graph:
    """Give each edge the max of its endpoint grounds; keep the ground.

    The result shares the topology of ``graph`` (see ``with_edge_weights``).
    """
    ground = graph.require_ground_values("derive_edge_graph")
    return graph.with_edge_weights(dilation(graph, ground))
