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
  edge id), in edge declaration order: in a grid, the neighbors' scan
  order, so ``grid_graph`` writes them from a stencil instead of counting.

Every graph holds its incidences in a one-item list, shared with each view
``with_edge_weights`` makes: a pending build (the CSR of the edge list, or a
grid's from the stencil plan that wrote its edges) until the first
``incidences()`` call puts the three arrays in its place.  So deriving edge
weights builds nothing, and a graph only written out (a contraction, a
spanning tree) or read edge by edge (a dendrogram, lakes) never builds them.
``ground_values`` and ``edge_weights`` are tuples aligned with the node and
edge indices; the name index, ``edges`` and ``neighbors()`` are built on use.
"""

from __future__ import annotations

import sys
from array import array
from collections.abc import Callable, ItemsView, Iterable, Iterator, Mapping, Sequence, ValuesView
from dataclasses import dataclass
from functools import cache, partial
from itertools import accumulate, chain, compress, filterfalse, product, repeat
from operator import lt

from .errors import ConstructionError, GraphFormatError, PreconditionError
from .weights import BOTTOM, TOP, Weight, parse_weight

__all__ = [
    "Edge",
    "Graph",
    "NodeFunction",
    "build_graph",
    "connected_components",
    "grid_graph",
]

NodeFunction = dict[str, Weight]
Edge = tuple[str, str]

_INT = "i"  # typecode of the topology arrays


class Graph:
    """A validated graph; create one with build_graph or grid_graph.

    ``nodes``, ``edge_u``, ``edge_v``, ``ground_values``, ``edge_weights`` and
    ``incidences()`` hold the layout described above.
    """

    __slots__ = ("nodes", "edge_u", "edge_v", "ground_values", "edge_weights",
                 "_index", "_incidences", "_edges")

    def __init__(self, *args, **kwargs) -> None:
        raise ConstructionError("use build_graph() to create Graph instances")

    def __repr__(self) -> str:
        return f"<Graph: {len(self.nodes)} nodes, {len(self.edge_u)} edges>"

    def incidences(self) -> tuple[array, array, array]:
        """(``offsets``, ``adj_node``, ``adj_edge``): the item of the list this graph
        shares with its views, which the first call turns from a build into arrays."""
        shared = self._incidences
        if callable(shared[0]):
            shared[0] = shared[0]()
        return shared[0]

    @property
    def edges(self) -> tuple[Edge, ...]:
        """(u, v) name pairs in declaration order, built on first use."""
        if self._edges is None:
            names = self.nodes
            self._edges = tuple([(names[u], names[v]) for u, v in zip(self.edge_u, self.edge_v)])
        return self._edges

    def _names(self) -> dict[str, int]:
        """The name-to-index dict, built on first use."""
        if self._index is None:
            self._index = dict(zip(self.nodes, range(len(self.nodes))))
        return self._index

    def node_index(self, node: str) -> int:
        try:
            return self._names()[node]
        except KeyError:
            raise ConstructionError(f"unknown node: {node!r}") from None

    def __contains__(self, node: str) -> bool:
        return node in self._names()

    def neighbors(self, node: str) -> tuple[tuple[str, int], ...]:
        """(neighbor, edge id) pairs in edge declaration order."""
        index = self.node_index(node)
        offsets, adj_node, adj_edge = self.incidences()
        low, high = offsets[index], offsets[index + 1]
        names = map(self.nodes.__getitem__, adj_node[low:high])
        return tuple(zip(names, adj_edge[low:high]))

    def require_ground_values(self, operation: str) -> tuple[Weight, ...]:
        """The ground listed by node index; raise if the graph has none."""
        if self.ground_values is None:
            raise PreconditionError(f"{operation} needs a node-weighted graph (ground values)")
        return self.ground_values

    def require_edge_weights(self, operation: str) -> tuple[Weight, ...]:
        if self.edge_weights is None:
            raise PreconditionError(
                f"{operation} needs an edge-weighted graph; derive edge weights "
                "from the ground first (derive_edge_graph)"
            )
        return self.edge_weights

    def with_edge_weights(self, weights: Iterable[Weight]) -> Graph:
        """This graph with other edge weights, building nothing: nodes, edges, ground
        and the incidences' list (built or pending) are shared, and so is the name
        index if built; if not, each builds its own.
        """
        weights = _edge_weights(weights, len(self.edge_u))
        ends, shared = (self.edge_u, self.edge_v), self._incidences
        return index_graph(self.nodes, *ends, self.ground_values, weights, self._index, shared)


# Not frozen: every route builds one, and a frozen __init__ costs about twice as much.
@dataclass(eq=False, slots=True)
class NodeValues(Mapping):
    """A read-only node function, ``levels`` aligned with ``graph.nodes``: only
    ``[]`` and ``in`` build the name index.  Two over one ``nodes`` tuple compare
    their lists, any other Mapping its pairs, so equal dicts are equal."""

    graph: Graph
    levels: list[Weight]

    def __getitem__(self, node: str) -> Weight:
        graph = self.graph
        return self.levels[(graph._index or graph._names())[node]]

    def __iter__(self) -> Iterator[str]:
        return iter(self.graph.nodes)

    def __len__(self) -> int:
        return len(self.levels)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, NodeValues) and other.graph.nodes is self.graph.nodes:
            return self.levels == other.levels
        return Mapping.__eq__(self, other)

    class _Pairs(ItemsView):
        def __iter__(self) -> Iterator[tuple[str, Weight]]:
            return zip(self._mapping.graph.nodes, self._mapping.levels)

    class _Levels(ValuesView):
        def __iter__(self) -> Iterator[Weight]:
            return iter(self._mapping.levels)

    def items(self) -> ItemsView:
        return self._Pairs(self)

    def values(self) -> ValuesView:
        return self._Levels(self)


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
    csr: list[tuple[array, array, array] | partial] | None = None,
) -> Graph:
    """A graph from distinct names and edges given as node indices (not validated).

    Tuples and arrays passed in are shared, not copied, and so are ``index``
    (name to node index) and ``csr``, another graph's incidence list; when
    missing, the index is built on first use and the list holds the edges' CSR build.
    """
    graph = object.__new__(Graph)
    graph.nodes = tuple(nodes)
    graph._index = index
    graph.edge_u, graph.edge_v = (
        ends if isinstance(ends, array) else array(_INT, ends) for ends in (edge_u, edge_v)
    )
    graph._incidences = csr or [partial(_csr, len(graph.nodes), graph.edge_u, graph.edge_v)]
    graph.ground_values = None if ground_values is None else tuple(ground_values)
    graph.edge_weights = None if edge_weights is None else tuple(edge_weights)
    graph._edges = None
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

    graph = index_graph(index, edge_u, edge_v, index=index)
    if ground is not None:
        try:
            graph.ground_values = tuple(values_by_index(graph, ground, "ground"))
        except PreconditionError as exc:
            raise ConstructionError(str(exc)) from None
        _check_lattice(graph.ground_values, lambda at: f"ground at node {graph.nodes[at]!r}")
    if edge_weights is not None:
        graph.edge_weights = _edge_weights(edge_weights, len(edge_u))
        _check_lattice(graph.edge_weights, lambda at: f"edge {at} weight")
    return graph


def _check_lattice(values: Iterable[Weight], where: Callable[[int], str]) -> None:
    """Raise, at the first value that is no weight, the error reading it back would give.

    Weights are the ints from 0 up and the float infinities: a negative int,
    another float or a bool would be written as a token the readers refuse.
    """
    for at, value in enumerate(values):
        if type(value) is int and value >= 0 or type(value) is float and value in (TOP, BOTTOM):
            continue
        token = str(value)
        try:
            parse_weight(token)
        except GraphFormatError as exc:
            raise ConstructionError(f"{where(at)}: {exc}") from None
        raise ConstructionError(f"{where(at)}: not a weight: {token!r}")  # such as "5"


def _counting(total: int) -> array:
    """``array(_INT, range(total))``, written one byte plane at a time.

    Byte ``b`` of entry ``k`` is ``k // 256**b % 256``: each of 0 .. 255 in
    runs of ``256**b``, cycled.  No Python int is made per entry.
    """
    size = array(_INT).itemsize
    raw = bytearray(total * size)
    run = 1
    for plane in range(size):
        if run >= total:
            break  # the higher bytes stay zero
        values = range(min(256, -(-total // run)))
        cycle = bytes(values) if run == 1 else b"".join(bytes((j,)) * run for j in values)
        at = plane if sys.byteorder == "little" else size - 1 - plane
        raw[at::size] = memoryview(cycle * -(-total // len(cycle)))[:total]
        run *= 256
    count = array(_INT)
    count.frombytes(raw)
    return count


def _grid_topology(height: int, width: int, connectivity: int) -> tuple[tuple, partial]:
    """(``edge_u``, ``edge_v``) of a grid, and the pending build its incidence list holds.

    In a block of one band of rows (first, middle, last) and one of columns
    (first, second, middle, second-last, last), every index and value a pixel
    writes is affine in (r, c): a line of pixels writes each entry with one
    extended-slice copy from a counting array, planned once for all five.
    """
    steps = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)]  # scan order
    stencil = [(dr, dc) for dr, dc in steps if 0 < abs(dr) + abs(dc) <= connectivity // 4]
    declares = stencil[len(stencil) // 2 :]  # E, SW, S, SE
    n = height * width

    @cache  # a pixel and its neighbors ask for the same counts
    def edges_before(i: int, k: int = 0) -> int:  # by nodes 0 .. i - 1, then i in declares[:k]
        total = 0
        for t, (dr, dc) in enumerate(declares):
            r, c = divmod(i - (t >= k), width)  # whole rows 0 .. r - 1, then (r, 0) .. (r, c)
            total += r * (width - abs(dc)) + (r + dr < height) * (min(c + 1, width - dc) - (dc < 0))
        return total

    m = edges_before(n)

    def entries(r: int, c: int) -> list[tuple[int, int, int]]:  # (target, index, value)
        i = r * width + c
        # Point reflection maps the incidences at nodes < i to the edges declared by nodes >= n - i.
        slot = edges_before(i) + m - edges_before(n - i)
        out = [(2, i, slot)]  # targets: edge_u, edge_v, offsets, adj_node, adj_edge
        for dr, dc in stencil:
            if 0 <= r + dr < height and 0 <= c + dc < width:
                j = i + dr * width + dc
                e = edges_before(min(i, j), declares.index((dr, dc) if j > i else (-dr, -dc)))
                if j > i:
                    out += [(0, e, i), (1, e, j)]
                out += [(3, slot, j), (4, slot, e)]
                slot += 1
        return out

    def bands(size: int, *cuts: int) -> list[tuple[int, int]]:  # (first, length)
        ends = sorted({0, size, *(cut for cut in cuts if 0 < cut < size)})
        return [(low, high - low) for low, high in zip(ends, ends[1:])]

    plan = [(2, n, 0, 1, 1, 2 * m, 0, 1, 1, 1)]  # offsets[n] = 2m, then the blocks' copies
    blocks = product(bands(height, 1, height - 1), bands(width, 1, 2, width - 2, width - 1))
    for (r, tall), (c, wide) in blocks:
        base, down, right = entries(r, c), entries(r + (tall > 1), c), entries(r, c + (wide > 1))
        if tall > wide:  # copy along the longer side: tall lines of wide pixels
            tall, wide, down, right = wide, tall, right, down
        for (target, at, value), (_, at1, value1), (_, at2, value2) in zip(base, right, down):
            da, dv = max(at1 - at, 1), max(value1 - value, 1)  # 1 on one-pixel lines
            la, lv, sa, sv = da * (wide - 1) + 1, dv * (wide - 1) + 1, at2 - at, value2 - value
            plan.append((target, at, sa, la, da, value, sv, lv, dv, tall))
    return _grid_arrays(plan, {0: m, 1: m}, n), partial(_grid_incidences, n, m, plan)


def _grid_arrays(plan: list[tuple], sizes: dict[int, int], top: int) -> tuple[array, ...]:
    """The arrays of ``sizes`` (target: length), copied from a count up to ``top``."""
    count = _counting(top)  # first: its bytearray is freed before the targets exist
    arrays = {target: array(_INT, [0]) * size for target, size in sizes.items()}
    for target, at, sa, la, da, value, sv, lv, dv, tall in plan:
        if target in arrays:
            for k in range(tall):
                a, v = at + k * sa, value + k * sv
                arrays[target][a : a + la : da] = count[v : v + lv : dv]
    return tuple(arrays.values())


def _grid_incidences(n: int, m: int, plan: list[tuple]) -> tuple[array, ...]:
    """A grid's (``offsets``, ``adj_node``, ``adj_edge``), by the plan that wrote its edges."""
    return _grid_arrays(plan, {2: n + 1, 3: 2 * m, 4: 2 * m}, max(n, 2 * m + 1))


def grid_graph(raster: Sequence[Sequence[Weight]], connectivity: int = 4) -> Graph:
    """Pixel-adjacency graph of a raster, row-major, ground = pixel values.

    connectivity 4 links horizontal/vertical neighbors, 8 adds diagonals.
    Node ``r * width + c`` is pixel (r, c).  Edges are declared per pixel in
    scan order: east, south-west, south, south-east.  So the edges to a
    pixel's NW, N, NE and W neighbors come before its own, and its
    incidences are its neighbors in scan order (NW, N, NE, W, E, SW, S, SE,
    or N, W, E, S), minus those off the raster.
    """
    if connectivity not in (4, 8):
        raise ConstructionError(f"connectivity must be 4 or 8, got {connectivity}")
    height = len(raster)
    if height == 0 or any(len(row) == 0 for row in raster):
        raise ConstructionError("raster must be non-empty")
    width = len(raster[0])
    if any(len(row) != width for row in raster):
        raise ConstructionError("raster rows must all have the same width")

    ends, build = _grid_topology(height, width, connectivity)
    columns = [f",{c}" for c in range(width)]  # pixel (r, c) is named "r,c"
    nodes = [row + column for row in map(str, range(height)) for column in columns]
    return index_graph(nodes, *ends, chain.from_iterable(raster), csr=[build])


def find_root(parent: list[int], node: int) -> int:
    """Root of ``node``'s block in a union-find parent array; compresses the path."""
    root = node
    while parent[root] != root:
        root = parent[root]
    while parent[node] != root:
        parent[node], node = root, parent[node]
    return root


def connected_components(graph: Graph, keep: Sequence[bool]) -> tuple[array, array]:
    """Components under the edges that ``keep`` flags per edge id.

    Components are numbered by their smallest node index.  The result is an
    ``array`` holding each node's component number, plus an ``array`` of
    each component's first node; ``group_by_label`` lists the members.
    """
    ends = compress(zip(graph.edge_u, graph.edge_v), keep)
    # Union-find whose root is always the smallest node of its block, so a
    # node's parent comes before it: one pass in node order overwrites each
    # parent by its block's label, reading the label its parent already got.
    parent = list(range(len(graph.nodes)))
    for u, v in ends:
        root_u, root_v = parent[u], parent[v]  # find_root only below a root's child
        if parent[root_u] != root_u:
            root_u = find_root(parent, u)
        if parent[root_v] != root_v:
            root_v = find_root(parent, v)
        if root_u < root_v:
            parent[root_v] = root_u
        elif root_v < root_u:
            parent[root_u] = root_v
    label = parent
    first: list[int] = []
    for node, up in enumerate(parent):
        if up == node:
            label[node] = len(first)
            first.append(node)
        else:
            label[node] = label[up]
    return array(_INT, label), array(_INT, first)


def group_by_label(items: Iterable, label: Sequence[int], count: int) -> list[tuple]:
    """``items`` split into ``count`` tuples by their ``label``, order kept."""
    groups: list[list] = [[] for _ in range(count)]
    for item, group in zip(items, label):
        groups[group].append(item)
    return list(map(tuple, groups))


def values_by_index(
    graph: Graph, values: Mapping[str, Weight], what: str, default: Weight | None = None
) -> list[Weight]:
    """``values`` listed by node index, ``default`` where a node has none; raise
    if it names a node the graph lacks, or, with no default, misses one.  The
    count and both scans ask ``in``, and the list is read with ``get``, so a
    mapping that fills in missing keys, such as a ``defaultdict``, is not filled."""
    if isinstance(values, NodeValues) and (  # over the same nodes in order: no name read
            values.graph.nodes is graph.nodes or values.graph.nodes == graph.nodes):
        # a copy, since each route lowers its fresh list in place: dijkstra's,
        # prim's and Berge's tau, and dendrogram_flood's lowest
        return list(values.levels)
    if type(values) is dict and len(values) == len(graph.nodes) and tuple(values) == graph.nodes:
        return list(values.values())  # keyed by exactly the nodes, in order: no name hashed
    known = sum(map(values.__contains__, graph.nodes))
    if default is None and known != len(graph.nodes):
        for node in filterfalse(values.__contains__, graph.nodes):
            raise PreconditionError(f"{what} is missing node {node!r}")
    if known != len(values):
        for node in filterfalse(graph.__contains__, values):
            raise PreconditionError(f"{what} defined on unknown node {node!r}")
    return list(map(values.get, graph.nodes, repeat(default)))


def node_indices(graph: Graph, names: Iterable[str]) -> list[int]:
    """The index of each of ``names``, in their order; the first unknown one raises.

    One pass over ``graph.nodes`` looks for the wanted names only, so a few
    names neither build nor read the name index: O(n), as is every caller."""
    names = list(names)
    nodes = graph.nodes
    index = dict(compress(zip(nodes, range(len(nodes))), map(set(names).__contains__, nodes)))
    for name in filterfalse(index.__contains__, names):
        raise ConstructionError(f"unknown node: {name!r}")
    return list(map(index.__getitem__, names))


def dilation(graph: Graph, levels: Sequence[Weight]) -> tuple[Weight, ...]:
    """Per-edge max of the two endpoint levels (levels listed by node index)."""
    return tuple([
        levels[u] if levels[u] >= levels[v] else levels[v]
        for u, v in zip(graph.edge_u, graph.edge_v)
    ])


def ceiling_by_index(
    graph: Graph, omega: Mapping[str, Weight], what: str = "omega", default: Weight | None = None
) -> list[Weight]:
    """The ceiling ``omega`` listed by node index, by ``values_by_index``.

    The one ceiling-versus-ground rule of the package: no flooding lies at or
    above the ground under a ceiling below it, so the first such node raises.
    Graphs without ground accept every ceiling."""
    ceiling = values_by_index(graph, omega, what, default)
    ground = graph.ground_values
    if ground is not None:
        for node in compress(range(len(ceiling)), map(lt, ceiling, ground)):
            name, level, floor = graph.nodes[node], ceiling[node], ground[node]
            raise PreconditionError(
                f"ceiling below ground at node {name!r}: omega={level} "
                f"is below the ground at node {name!r} (f={floor})"
            )
    return ceiling
