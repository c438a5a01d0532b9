"""Undirected weighted graphs with a fixed declaration order.

Nodes are string ids.  A graph may carry a ground value per node (the relief
being flooded) and/or a weight per edge (pipe altitudes).  Declaration order
of nodes and edges is part of the data: every algorithm in this package
iterates and breaks ties in that order, which is what makes results
reproducible byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ConstructionError, PreconditionError
from .weights import Weight

NodeFunction = dict[str, Weight]
Edge = tuple[str, str]


@dataclass(frozen=True)
class Graph:
    nodes: tuple[str, ...]
    edges: tuple[Edge, ...]
    ground: NodeFunction | None = None
    edge_weights: tuple[Weight, ...] | None = None
    _index: dict[str, int] = field(default_factory=dict, repr=False)
    _adjacency: dict[str, tuple[tuple[str, int], ...]] = field(default_factory=dict, repr=False)

    def __post_init__(self) -> None:
        # populated by build_graph; guard against direct misuse
        if not self._index:
            raise ConstructionError("use build_graph() to create Graph instances")

    @property
    def has_ground(self) -> bool:
        return self.ground is not None

    @property
    def has_edge_weights(self) -> bool:
        return self.edge_weights is not None

    def node_index(self, node: str) -> int:
        try:
            return self._index[node]
        except KeyError:
            raise ConstructionError(f"unknown node: {node!r}") from None

    def __contains__(self, node: str) -> bool:
        return node in self._index

    def neighbors(self, node: str) -> tuple[tuple[str, int], ...]:
        """(neighbor, edge id) pairs in edge declaration order."""
        self.node_index(node)
        return self._adjacency.get(node, ())

    def require_ground(self, operation: str) -> NodeFunction:
        if self.ground is None:
            raise PreconditionError(f"{operation} needs a node-weighted graph (ground values)")
        return self.ground

    def require_edge_weights(self, operation: str) -> tuple[Weight, ...]:
        if self.edge_weights is None:
            raise PreconditionError(
                f"{operation} needs an edge-weighted graph; derive edge weights "
                "from the ground first (derive_edge_graph)"
            )
        return self.edge_weights


def build_graph(
    nodes: Sequence[str],
    edges: Sequence[Edge],
    ground: Mapping[str, Weight] | None = None,
    edge_weights: Sequence[Weight] | None = None,
) -> Graph:
    """Validate and assemble a graph, preserving declaration order."""
    index: dict[str, int] = {}
    for node in nodes:
        if node in index:
            raise ConstructionError(f"duplicate node id: {node!r}")
        index[node] = len(index)

    adjacency: dict[str, list[tuple[str, int]]] = {node: [] for node in index}
    edge_tuple: list[Edge] = []
    for edge_id, (u, v) in enumerate(edges):
        if u not in index:
            raise ConstructionError(f"edge {edge_id} references unknown node {u!r}")
        if v not in index:
            raise ConstructionError(f"edge {edge_id} references unknown node {v!r}")
        if u == v:
            raise ConstructionError(f"self-loop on node {u!r} not allowed")
        adjacency[u].append((v, edge_id))
        adjacency[v].append((u, edge_id))
        edge_tuple.append((u, v))

    ground_fn: NodeFunction | None = None
    if ground is not None:
        missing = [node for node in index if node not in ground]
        if missing:
            raise ConstructionError(f"ground is missing node {missing[0]!r}")
        extra = [node for node in ground if node not in index]
        if extra:
            raise ConstructionError(f"ground defined on unknown node {extra[0]!r}")
        ground_fn = {node: ground[node] for node in index}

    weights_tuple: tuple[Weight, ...] | None = None
    if edge_weights is not None:
        if len(edge_weights) != len(edge_tuple):
            raise ConstructionError(
                f"{len(edge_tuple)} edges but {len(edge_weights)} edge weights"
            )
        weights_tuple = tuple(edge_weights)

    return Graph(
        nodes=tuple(index),
        edges=tuple(edge_tuple),
        ground=ground_fn,
        edge_weights=weights_tuple,
        _index=index,
        _adjacency={node: tuple(pairs) for node, pairs in adjacency.items()},
    )


def grid_node(row: int, col: int) -> str:
    return f"{row},{col}"


def grid_graph(raster: Sequence[Sequence[Weight]], connectivity: int = 4) -> Graph:
    """Pixel-adjacency graph of a raster, row-major, ground = pixel values.

    connectivity 4 links horizontal/vertical neighbors, 8 adds diagonals.
    Edges are declared per pixel in scan order: east, south-west, south,
    south-east.
    """
    if connectivity not in (4, 8):
        raise ConstructionError(f"connectivity must be 4 or 8, got {connectivity}")
    height = len(raster)
    if height == 0 or any(len(row) == 0 for row in raster):
        raise ConstructionError("raster must be non-empty")
    width = len(raster[0])
    if any(len(row) != width for row in raster):
        raise ConstructionError("raster rows must all have the same width")

    nodes: list[str] = []
    ground: dict[str, Weight] = {}
    for r in range(height):
        for c in range(width):
            node = grid_node(r, c)
            nodes.append(node)
            ground[node] = raster[r][c]

    edges: list[Edge] = []
    for r in range(height):
        for c in range(width):
            here = grid_node(r, c)
            if c + 1 < width:
                edges.append((here, grid_node(r, c + 1)))
            if connectivity == 8 and r + 1 < height and c - 1 >= 0:
                edges.append((here, grid_node(r + 1, c - 1)))
            if r + 1 < height:
                edges.append((here, grid_node(r + 1, c)))
            if connectivity == 8 and r + 1 < height and c + 1 < width:
                edges.append((here, grid_node(r + 1, c + 1)))
    return build_graph(nodes, edges, ground=ground)


def cocycle(graph: Graph, inside: Iterable[str]) -> tuple[int, ...]:
    """Edge ids with exactly one endpoint in ``inside``, declaration order."""
    member = set()
    for node in inside:
        graph.node_index(node)
        member.add(node)
    return tuple(
        edge_id
        for edge_id, (u, v) in enumerate(graph.edges)
        if (u in member) != (v in member)
    )


def connected_components(
    graph: Graph,
    edge_filter: Callable[[int], bool] | None = None,
) -> list[tuple[str, ...]]:
    """Components under the (optionally filtered) edge set.

    Components are ordered by their smallest node index; nodes inside a
    component keep declaration order.
    """
    seen: set[str] = set()
    components: list[tuple[str, ...]] = []
    adjacency, index = graph._adjacency, graph._index
    for start in graph.nodes:
        if start in seen:
            continue
        seen.add(start)
        block = [start]
        for node in block:  # breadth-first: the block doubles as the queue
            for neighbor, edge_id in adjacency[node]:
                if neighbor in seen:
                    continue
                if edge_filter is not None and not edge_filter(edge_id):
                    continue
                seen.add(neighbor)
                block.append(neighbor)
        block.sort(key=index.__getitem__)
        components.append(tuple(block))
    return components


def subgraph_spanning(graph: Graph, nodes: Iterable[str]) -> Graph:
    """Induced subgraph on ``nodes`` (all edges between them), order kept."""
    keep = set()
    for node in nodes:
        graph.node_index(node)
        keep.add(node)
    kept_nodes = [node for node in graph.nodes if node in keep]
    kept_edges: list[Edge] = []
    kept_weights: list[Weight] = []
    for edge_id, (u, v) in enumerate(graph.edges):
        if u in keep and v in keep:
            kept_edges.append((u, v))
            if graph.edge_weights is not None:
                kept_weights.append(graph.edge_weights[edge_id])
    ground = None
    if graph.ground is not None:
        ground = {node: graph.ground[node] for node in kept_nodes}
    return build_graph(
        kept_nodes,
        kept_edges,
        ground=ground,
        edge_weights=tuple(kept_weights) if graph.edge_weights is not None else None,
    )


def partial_graph(graph: Graph, edge_ids: Iterable[int]) -> Graph:
    """Same nodes, restricted edge set (ids into ``graph.edges``)."""
    keep_ids = sorted(set(edge_ids))
    for edge_id in keep_ids:
        if not 0 <= edge_id < len(graph.edges):
            raise ConstructionError(f"unknown edge id: {edge_id}")
    edges = [graph.edges[edge_id] for edge_id in keep_ids]
    weights = None
    if graph.edge_weights is not None:
        weights = tuple(graph.edge_weights[edge_id] for edge_id in keep_ids)
    return build_graph(graph.nodes, edges, ground=graph.ground, edge_weights=weights)


def check_total(graph: Graph, values: Mapping[str, Weight], what: str) -> None:
    """Raise unless ``values`` is defined on exactly the graph's nodes."""
    for node in graph.nodes:
        if node not in values:
            raise PreconditionError(f"{what} is missing node {node!r}")
    if len(values) != len(graph.nodes):
        for node in values:
            if node not in graph:
                raise PreconditionError(f"{what} defined on unknown node {node!r}")
