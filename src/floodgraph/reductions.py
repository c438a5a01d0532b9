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
balls around it instead of flooding everything, and `up_hill` pushes
water from an already flooded region into the terrain above it.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Mapping, Sequence

from .errors import PreconditionError
from .graphs import (
    Graph,
    NodeFunction,
    check_ceiling,
    check_total,
    dilation,
    index_graph,
    levels_by_index,
    values_by_index,
)
from .hydro import flat_zones, is_edge_flooding
from .ultrametric import _best_first_flood, find_root
from .weights import BOTTOM, TOP, Weight, join, meet


def _erosion(graph: Graph, weights: Sequence[Weight]) -> list[Weight]:
    offsets, adj_edge = graph.offsets, graph.adj_edge
    return [
        min((weights[e] for e in adj_edge[offsets[node] : offsets[node + 1]]), default=TOP)
        for node in range(len(graph.nodes))
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
    return dict(zip(graph.nodes, _erosion(graph, weights)))


def edge_opening(graph: Graph, weights: tuple[Weight, ...] | None = None) -> tuple[Weight, ...]:
    """Opening on edge weights: erode to the nodes, dilate back."""
    eroded = node_erosion(graph, weights)
    return dilation(graph, [eroded[node] for node in graph.nodes])


def node_closing(graph: Graph, values: Mapping[str, Weight] | None = None) -> NodeFunction:
    """Closing on node values: dilate to the edges, erode back."""
    return node_erosion(graph, edge_dilation(graph, values))


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

    ``forward`` sends each original node to its super-node, ``blocks``
    lists the members of each super-node in declaration order, and
    ``graph`` is the contracted graph itself.
    """

    graph: Graph
    forward: dict[str, str]
    blocks: dict[str, tuple[str, ...]]

    def expand(self, values: Mapping[str, Weight]) -> NodeFunction:
        """Pull values on the contracted graph back to the original nodes."""
        check_total(self.graph, values, "contracted values")
        return {node: values[block] for node, block in self.forward.items()}


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
    if omega is not None:
        check_ceiling(graph, values_by_index(graph, omega, "ceiling"))

    zones = flat_zones(graph)
    index = graph.node_index
    zone_of = [0] * len(ground)
    for z, zone in enumerate(zones):
        for name in zone:
            zone_of[index(name)] = z
    reps = [zone[0] for zone in zones]
    blocks = dict(zip(reps, zones))
    forward = {name: reps[z] for name, z in zip(graph.nodes, zone_of)}
    contracted_omega: NodeFunction | None = None
    if omega is not None:
        contracted_omega = {rep: min(omega[name] for name in zone) for rep, zone in blocks.items()}

    old_weights = graph.edge_weights
    edge_u: list[int] = []
    edge_v: list[int] = []
    weights: list[Weight] = []
    seen: dict[tuple[int, int], int] = {}
    for edge_id, (u, v) in enumerate(zip(graph.edge_u, graph.edge_v)):
        zu, zv = zone_of[u], zone_of[v]
        if zu == zv:
            continue
        key = (zu, zv) if zu < zv else (zv, zu)
        slot = seen.get(key)
        if slot is None:
            seen[key] = len(edge_u)
            edge_u.append(zu)
            edge_v.append(zv)
            if old_weights is not None:
                weights.append(old_weights[edge_id])
        elif old_weights is not None:
            weights[slot] = meet(weights[slot], old_weights[edge_id])

    contracted = index_graph(
        reps,
        edge_u,
        edge_v,
        ground_values=(ground[index(rep)] for rep in reps),
        edge_weights=None if old_weights is None else weights,
    )
    mapping = ContractionMap(graph=contracted, forward=forward, blocks=blocks)
    return contracted, mapping, contracted_omega


def mst_with_contraction(graph: Graph) -> tuple[Graph, ContractionMap]:
    """Spanning tree of the derived edge weights with flat zones merged.

    One pass grows the tree edge by edge, always taking the cheapest
    crossing edge; among equal weights, edges inside a flat zone win so
    the whole zone collapses into one super-node before any outgoing
    edge of the same weight is considered.  Returns the tree on the
    super-nodes plus the contraction that produced them.  The tree lists
    its edges in Prim's visit order, which is why this loop is its own.
    """
    ground = graph.require_ground_values("mst_with_contraction")
    derived = dilation(graph, ground)
    edge_u, edge_v = graph.edge_u, graph.edge_v
    offsets, adj_edge = graph.offsets, graph.adj_edge
    count = len(ground)
    parent = list(range(count))
    visited = [False] * count
    heap: list[tuple[Weight, int, int]] = []
    tree_edge_ids: list[int] = []

    def visit(node: int) -> None:
        visited[node] = True
        for edge_id in adj_edge[offsets[node] : offsets[node + 1]]:
            flat = 0 if ground[edge_u[edge_id]] == ground[edge_v[edge_id]] else 1
            heapq.heappush(heap, (derived[edge_id], flat, edge_id))

    for start in range(count):
        if visited[start]:
            continue
        visit(start)
        while heap:
            _, flat, edge_id = heapq.heappop(heap)
            u, v = edge_u[edge_id], edge_v[edge_id]
            if visited[u] and visited[v]:
                continue
            visit(v if visited[u] else u)
            if flat == 0:
                low, high = sorted((find_root(parent, u), find_root(parent, v)))
                parent[high] = low  # the block keeps its first declared node
            else:
                tree_edge_ids.append(edge_id)

    names = graph.nodes
    roots = [find_root(parent, node) for node in range(count)]
    slot_of: dict[int, int] = {}  # block root -> tree node index
    members: list[list[str]] = []
    for name, root in zip(names, roots):
        if root not in slot_of:
            slot_of[root] = len(members)
            members.append([])
        members[slot_of[root]].append(name)
    reps = [names[root] for root in slot_of]
    tree = index_graph(
        reps,
        [slot_of[roots[edge_u[e]]] for e in tree_edge_ids],
        [slot_of[roots[edge_v[e]]] for e in tree_edge_ids],
        ground_values=(ground[root] for root in slot_of),
        edge_weights=(derived[e] for e in tree_edge_ids),
    )
    mapping = ContractionMap(
        graph=tree,
        forward={name: names[root] for name, root in zip(names, roots)},
        blocks={rep: tuple(block) for rep, block in zip(reps, members)},
    )
    return tree, mapping


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
    ceiling = [contracted_omega[node] for node in contracted.nodes]
    closed = _erosion(contracted, dilation(contracted, contracted.ground_values))
    chi = [max(level, low) for level, low in zip(ceiling, closed)]  # lowered in place
    fed = [node for node, level in enumerate(chi) if level < TOP]
    _best_first_flood(contracted, dilation(contracted, closed), chi, fed)
    # A minimum whose own ceiling sits below the closing never spills;
    # the final cap hands it back its ceiling.
    return mapping.expand(dict(zip(contracted.nodes, map(meet, chi, ceiling))))


def local_flood(graph: Graph, omega: Mapping[str, Weight], node: str) -> Weight:
    """Flooding level at one node without flooding the whole graph.

    Grows the balls around ``node`` one radius at a time; the level is
    the best ceiling-versus-diameter trade-off over those balls, capped
    below by the ground.  Stops as soon as the lowest ceiling seen no
    longer beats the next radius; that early stop is why this keeps its own
    loop, where a run of the min-max kernel would visit the whole graph.
    """
    ground = graph.require_ground_values("local_flood")
    ceiling = values_by_index(graph, omega, "ceiling")
    check_ceiling(graph, ceiling)
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
    while lake_cap > diam:
        while heap and heap[0][2] in inside:
            heapq.heappop(heap)
        radius = heap[0][0] if heap else TOP
        if lake_cap <= radius:
            break
        while heap:
            while heap and heap[0][2] in inside:
                heapq.heappop(heap)
            if not heap or heap[0][0] > radius:
                break
            _, _, fresh = heapq.heappop(heap)
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

    Water spills out of ``region`` through its lowest boundary edge, at
    most up to ``cap``.  Each newly reached valley either fills to the
    spill level, or, if it has a lower ceiling inside, fills to that
    ceiling first and then continues from there.  Returns the levels of
    the newly flooded nodes only.
    """
    ground = graph.require_ground_values("up_hill")
    ceiling = values_by_index(graph, omega, "ceiling")
    check_ceiling(graph, ceiling)
    seeds = [graph.node_index(node) for node in region]
    if not seeds:
        raise PreconditionError("up_hill needs a non-empty start region")
    offsets, adj_node = graph.offsets, graph.adj_node

    def neighbors(node: int) -> Iterable[int]:
        return adj_node[offsets[node] : offsets[node + 1]]

    def pass_height(x: int, q: int) -> Weight:
        return join(ground[x], ground[q])

    claimed = set(seeds)
    levels: dict[int, Weight] = {}

    def claim(q: int, level: Weight) -> None:
        claimed.add(q)
        levels[q] = level

    def basin(
        start: int, reached: set[int], allowed: Callable[[int], bool], height: Weight
    ) -> list[int]:
        """Ascending nodes reached from ``start`` over allowed, unreached nodes
        through passes no higher than ``height``; marks them reached."""
        found = [start]
        reached.add(start)
        queue = deque(found)
        while queue:
            y = queue.popleft()
            for r in neighbors(y):
                if allowed(r) and r not in reached and pass_height(y, r) <= height:
                    reached.add(r)
                    found.append(r)
                    queue.append(r)
        return sorted(found)

    frames: list[tuple[frozenset[int], Weight]] = [(frozenset(seeds), cap)]
    while frames:
        area, limit = frames.pop()
        spill: Weight = TOP
        for x in area:
            for q in neighbors(x):
                if q not in claimed:
                    spill = meet(spill, pass_height(x, q))
        if spill == TOP or spill > limit:
            continue

        reached: set[int] = set()
        valleys: list[list[int]] = []
        for x in sorted(area):
            for q in neighbors(x):
                if q not in claimed and q not in reached and pass_height(x, q) <= spill:
                    valleys.append(basin(q, reached, lambda r: r not in claimed, spill))

        # The same frame continues once every valley below is flooded.
        frames.append((frozenset(area | reached), limit))
        followups: list[tuple[frozenset[int], Weight]] = []
        for valley in valleys:
            lowest = min(valley, key=ceiling.__getitem__)
            low = ceiling[lowest]
            if low >= spill:
                for z in valley:
                    claim(z, spill)
                continue
            pool = basin(lowest, set(), set(valley).__contains__, low)
            for z in pool:
                claim(z, low)
            followups.append((frozenset(pool), spill))
        frames.extend(reversed(followups))

    return {graph.nodes[node]: levels[node] for node in sorted(levels)}
