"""Undirected weighted graphs with a fixed declaration order.

Nodes are string ids at the input/output boundary and integer indices
everywhere else: node ``i`` is ``graph.nodes[i]`` and ``node_index`` maps a
name back.  A graph may carry a ground value per node (the relief being
flooded) and/or a weight per edge (pipe altitudes).  Declaration order of
nodes and edges is part of the data: every algorithm in this package
iterates and breaks ties in that order, which is what makes results
reproducible byte for byte.

The topology is stored once, as compressed sparse rows (CSR) in stdlib
``array``s of ints:

* edge ``e`` joins ``edge_u[e]`` and ``edge_v[e]``;
* the incidences of node ``i`` are the slots ``offsets[i]`` up to
  ``offsets[i + 1]`` of ``adj_node`` (the neighbor) and ``adj_edge`` (the
  edge id), in edge declaration order.

``ground_values`` and ``edge_weights`` are tuples aligned with the node and
edge indices.  ``with_edge_weights`` returns a graph that shares all of the
topology and carries new edge weights, so deriving edge weights from the
ground never rebuilds the graph.  The name-keyed views ``edges``,
``ground`` and ``neighbors()`` are built on demand for callers that use
names.
"""

from __future__ import annotations

from array import array
from itertools import accumulate
from typing import Callable, Iterable, Mapping, Sequence

from .errors import ConstructionError, PreconditionError
from .weights import Weight, format_weight

NodeFunction = dict[str, Weight]
Edge = tuple[str, str]

_INT = "i"  # typecode of the topology arrays


class Graph:
    """A validated graph; create one with build_graph or grid_graph.

    ``nodes``, ``edge_u``, ``edge_v``, ``offsets``, ``adj_node``, ``adj_edge``,
    ``ground_values`` and ``edge_weights`` hold the layout described above.
    """

    __slots__ = ("nodes", "edge_u", "edge_v", "offsets", "adj_node", "adj_edge",
                 "ground_values", "edge_weights", "_index", "_edges", "_ground")

    def __init__(self, *args, **kwargs) -> None:
        raise ConstructionError("use build_graph() to create Graph instances")

    def __repr__(self) -> str:
        return f"<Graph: {len(self.nodes)} nodes, {len(self.edge_u)} edges>"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and all(
            getattr(self, attr) == getattr(other, attr)
            for attr in ("nodes", "edges", "ground_values", "edge_weights")
        )

    __hash__ = None  # type: ignore[assignment]

    @property
    def edges(self) -> tuple[Edge, ...]:
        """(u, v) name pairs in declaration order, built on first use."""
        if self._edges is None:
            name = self.nodes.__getitem__
            self._edges = tuple(zip(map(name, self.edge_u), map(name, self.edge_v)))
        return self._edges

    @property
    def ground(self) -> NodeFunction | None:
        """Ground values by node name, built on first use."""
        if self._ground is None and self.ground_values is not None:
            self._ground = dict(zip(self.nodes, self.ground_values))
        return self._ground

    @property
    def has_ground(self) -> bool:
        return self.ground_values is not None

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
        index = self.node_index(node)
        low, high = self.offsets[index], self.offsets[index + 1]
        names = map(self.nodes.__getitem__, self.adj_node[low:high])
        return tuple(zip(names, self.adj_edge[low:high]))

    def require_ground_values(self, operation: str) -> tuple[Weight, ...]:
        """The ground listed by node index; raise if the graph has none."""
        if self.ground_values is None:
            raise PreconditionError(f"{operation} needs a node-weighted graph (ground values)")
        return self.ground_values

    def require_ground(self, operation: str) -> NodeFunction:
        self.require_ground_values(operation)
        return self.ground  # type: ignore[return-value]

    def require_edge_weights(self, operation: str) -> tuple[Weight, ...]:
        if self.edge_weights is None:
            raise PreconditionError(
                f"{operation} needs an edge-weighted graph; derive edge weights "
                "from the ground first (derive_edge_graph)"
            )
        return self.edge_weights

    def with_edge_weights(self, weights: Iterable[Weight]) -> Graph:
        """This graph with other edge weights; nodes, edges and ground are shared."""
        weights = _edge_weights(weights, len(self.edge_u))
        csr = (self.offsets, self.adj_node, self.adj_edge)
        ends = (self.edge_u, self.edge_v)
        return index_graph(self.nodes, *ends, self.ground_values, weights, self._index, csr)


def _edge_weights(weights: Iterable[Weight], count: int) -> tuple[Weight, ...]:
    weights = tuple(weights)
    if len(weights) != count:
        raise ConstructionError(f"{count} edges but {len(weights)} edge weights")
    return weights


def _csr(count: int, edge_u: array, edge_v: array) -> tuple[array, array, array]:
    """Offsets and incidence arrays; each node's incidences in edge order."""
    degree = [0] * (count + 1)
    for u in edge_u:
        degree[u + 1] += 1
    for v in edge_v:
        degree[v + 1] += 1
    offsets = list(accumulate(degree))
    free = offsets[:-1]
    adj_node = [0] * offsets[-1]
    adj_edge = [0] * offsets[-1]
    for edge_id, (u, v) in enumerate(zip(edge_u, edge_v)):
        slot = free[u]
        adj_node[slot] = v
        adj_edge[slot] = edge_id
        free[u] = slot + 1
        slot = free[v]
        adj_node[slot] = u
        adj_edge[slot] = edge_id
        free[v] = slot + 1
    return array(_INT, offsets), array(_INT, adj_node), array(_INT, adj_edge)


def index_graph(
    nodes: Iterable[str],
    edge_u: Iterable[int],
    edge_v: Iterable[int],
    ground_values: Iterable[Weight] | None = None,
    edge_weights: Iterable[Weight] | None = None,
    index: dict[str, int] | None = None,
    csr: tuple[array, array, array] | None = None,
) -> Graph:
    """A graph from distinct names and edges given as node indices (not validated).

    Tuples and arrays passed in are shared, not copied, and so are ``index``
    (name to node index) and ``csr``; both are built when missing.
    """
    graph = object.__new__(Graph)
    graph.nodes = tuple(nodes)
    graph._index = index or dict(zip(graph.nodes, range(len(graph.nodes))))
    graph.edge_u, graph.edge_v = (
        ends if isinstance(ends, array) else array(_INT, ends) for ends in (edge_u, edge_v)
    )
    graph.offsets, graph.adj_node, graph.adj_edge = csr or _csr(
        len(graph.nodes), graph.edge_u, graph.edge_v
    )
    graph.ground_values = None if ground_values is None else tuple(ground_values)
    graph.edge_weights = None if edge_weights is None else tuple(edge_weights)
    graph._edges = graph._ground = None
    return graph


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
    if not index:
        raise ConstructionError("graph has no nodes")

    edge_u, edge_v = array(_INT), array(_INT)
    for edge_id, (u, v) in enumerate(edges):
        if u not in index:
            raise ConstructionError(f"edge {edge_id} references unknown node {u!r}")
        if v not in index:
            raise ConstructionError(f"edge {edge_id} references unknown node {v!r}")
        if u == v:
            raise ConstructionError(f"self-loop on node {u!r} not allowed")
        edge_u.append(index[u])
        edge_v.append(index[v])

    ground_values = None
    if ground is not None:
        missing = [node for node in index if node not in ground]
        if missing:
            raise ConstructionError(f"ground is missing node {missing[0]!r}")
        extra = [node for node in ground if node not in index]
        if extra:
            raise ConstructionError(f"ground defined on unknown node {extra[0]!r}")
        ground_values = [ground[node] for node in index]

    weights = None if edge_weights is None else _edge_weights(edge_weights, len(edge_u))
    return index_graph(index, edge_u, edge_v, ground_values, weights, index)


def grid_node(row: int, col: int) -> str:
    return f"{row},{col}"


def grid_graph(raster: Sequence[Sequence[Weight]], connectivity: int = 4) -> Graph:
    """Pixel-adjacency graph of a raster, row-major, ground = pixel values.

    connectivity 4 links horizontal/vertical neighbors, 8 adds diagonals.
    Edges are declared per pixel in scan order: east, south-west, south,
    south-east.  Node ``r * width + c`` is pixel (r, c).
    """
    if connectivity not in (4, 8):
        raise ConstructionError(f"connectivity must be 4 or 8, got {connectivity}")
    height = len(raster)
    if height == 0 or any(len(row) == 0 for row in raster):
        raise ConstructionError("raster must be non-empty")
    width = len(raster[0])
    if any(len(row) != width for row in raster):
        raise ConstructionError("raster rows must all have the same width")

    diagonal = connectivity == 8
    edge_u, edge_v = array(_INT), array(_INT)
    for r in range(height):
        south = r + 1 < height
        for here in range(r * width, (r + 1) * width):
            east = here % width + 1 < width
            if east:
                edge_u.append(here)
                edge_v.append(here + 1)
            if diagonal and south and here % width:
                edge_u.append(here)
                edge_v.append(here + width - 1)
            if south:
                edge_u.append(here)
                edge_v.append(here + width)
            if diagonal and south and east:
                edge_u.append(here)
                edge_v.append(here + width + 1)
    columns = [f",{c}" for c in range(width)]  # ids as grid_node(r, c) formats them
    nodes = [row + column for row in map(str, range(height)) for column in columns]
    return index_graph(nodes, edge_u, edge_v, (value for row in raster for value in row))


def cocycle(graph: Graph, inside: Iterable[str]) -> tuple[int, ...]:
    """Edge ids with exactly one endpoint in ``inside``, declaration order."""
    member = {graph.node_index(node) for node in inside}
    return tuple(
        edge_id
        for edge_id, (u, v) in enumerate(zip(graph.edge_u, graph.edge_v))
        if (u in member) != (v in member)
    )


def connected_components(
    graph: Graph,
    edge_filter: Callable[[int], bool] | None = None,
) -> list[tuple[str, ...]]:
    """Components under the (optionally filtered) edge set.

    Components are ordered by their smallest node index; nodes inside a
    component keep declaration order.  ``edge_filter`` is asked once per
    edge id.
    """
    keep = None if edge_filter is None else [edge_filter(e) for e in range(len(graph.edge_u))]
    offsets, adj_node, adj_edge = graph.offsets, graph.adj_node, graph.adj_edge
    name = graph.nodes.__getitem__
    seen = [False] * len(graph.nodes)
    components: list[tuple[str, ...]] = []
    for start in range(len(seen)):
        if seen[start]:
            continue
        seen[start] = True
        block = [start]
        for node in block:  # breadth-first: the block doubles as the queue
            for slot in range(offsets[node], offsets[node + 1]):
                neighbor = adj_node[slot]
                if seen[neighbor] or (keep is not None and not keep[adj_edge[slot]]):
                    continue
                seen[neighbor] = True
                block.append(neighbor)
        block.sort()
        components.append(tuple(map(name, block)))
    return components


def subgraph_spanning(graph: Graph, nodes: Iterable[str]) -> Graph:
    """Induced subgraph on ``nodes`` (all edges between them), order kept."""
    kept = sorted({graph.node_index(node) for node in nodes})
    if not kept:
        raise ConstructionError("graph has no nodes")
    new_index = {old: new for new, old in enumerate(kept)}
    kept_edges = [
        edge_id
        for edge_id, (u, v) in enumerate(zip(graph.edge_u, graph.edge_v))
        if u in new_index and v in new_index
    ]
    ground, weights = graph.ground_values, graph.edge_weights
    return index_graph(
        [graph.nodes[i] for i in kept],
        (new_index[graph.edge_u[e]] for e in kept_edges),
        (new_index[graph.edge_v[e]] for e in kept_edges),
        None if ground is None else (ground[i] for i in kept),
        None if weights is None else (weights[e] for e in kept_edges),
    )


def partial_graph(graph: Graph, edge_ids: Iterable[int]) -> Graph:
    """Same nodes, restricted edge set (ids into ``graph.edges``).

    Shares the node names, their index and the ground with ``graph``.
    """
    keep_ids = sorted(set(edge_ids))
    for edge_id in keep_ids:
        if not 0 <= edge_id < len(graph.edge_u):
            raise ConstructionError(f"unknown edge id: {edge_id}")
    weights = graph.edge_weights
    return index_graph(
        graph.nodes,
        [graph.edge_u[e] for e in keep_ids],
        [graph.edge_v[e] for e in keep_ids],
        graph.ground_values,
        None if weights is None else [weights[e] for e in keep_ids],
        graph._index,
    )


def check_total(graph: Graph, values: Mapping[str, Weight], what: str) -> None:
    """Raise unless ``values`` is defined on exactly the graph's nodes."""
    for node in graph.nodes:
        if node not in values:
            raise PreconditionError(f"{what} is missing node {node!r}")
    if len(values) != len(graph.nodes):
        for node in values:
            if node not in graph:
                raise PreconditionError(f"{what} defined on unknown node {node!r}")


def values_by_index(graph: Graph, values: Mapping[str, Weight], what: str) -> list[Weight]:
    """``values`` listed by node index, after ``check_total``."""
    check_total(graph, values, what)
    return list(map(values.__getitem__, graph.nodes))


def levels_by_index(
    graph: Graph, values: Mapping[str, Weight] | None, operation: str, what: str = "values"
) -> Sequence[Weight]:
    """``values`` listed by node index; the ground when ``values`` is None."""
    if values is None:
        return graph.require_ground_values(operation)
    return values_by_index(graph, values, what)


def dilation(graph: Graph, levels: Sequence[Weight]) -> tuple[Weight, ...]:
    """Per-edge max of the two endpoint levels (levels listed by node index)."""
    at = levels.__getitem__
    return tuple(a if a >= b else b for a, b in zip(map(at, graph.edge_u), map(at, graph.edge_v)))


def check_ceiling(graph: Graph, ceiling: Sequence[Weight]) -> None:
    """Raise unless the ceiling (listed by node index) is at or above the ground.

    This is the one ceiling-versus-ground rule of the package: no flooding
    can lie at or above the ground under such a ceiling.  Graphs without
    ground accept every ceiling.
    """
    ground = graph.ground_values
    if ground is None:
        return
    for node, (level, floor) in enumerate(zip(ceiling, ground)):
        if level < floor:
            name = graph.nodes[node]
            raise PreconditionError(
                f"ceiling below ground at node {name!r}: omega={format_weight(level)} "
                f"is below the ground at node {name!r} (f={format_weight(floor)})"
            )

