"""Dendrograms: nested families of node sets with diameters.

The clusters of the lake dendrogram are the distinct closed balls of the
flooding distance; merging components in increasing edge-weight order over
the graph (single linkage) enumerates exactly those balls.  Relational
queries (predecessors, brothers, uncles, ...) and dominated flooding
evaluated directly on the tree both live here.

Cluster indices are topological: every child's index is smaller than its
father's, leaves come first.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import groupby
from typing import Iterable, Mapping, Sequence

from .errors import ConstructionError, PreconditionError
from .graphs import Graph, NodeFunction
from .ultrametric import ball, lowest_cocycle_edge
from .weights import BOTTOM, TOP, Weight, join, meet


class _Tree:
    """Leaf names, cluster sizes and a DFS leaf order shared by one dendrogram.

    Leaf ``i`` is cluster ``i``.  In the DFS order every cluster's leaves
    fill one contiguous range, ``order[start[c] : start[c] + size[c]]``.
    The order is laid out on first use, so building and flooding never pay
    for it.
    """

    __slots__ = ("names", "size", "children", "_start", "_order", "_leaf_of")

    def __init__(
        self, names: tuple[str, ...], size: list[int], children: list[tuple[int, ...]]
    ) -> None:
        self.names = names
        self.size = size
        self.children = children
        self._start: list[int] | None = None
        self._order: list[int] = []
        self._leaf_of: dict[str, int] | None = None

    def _lay_out(self) -> list[int]:
        if self._start is None:
            # fathers have larger indices than their children, so walking
            # down the indices places every father before its children
            start = [-1] * len(self.size)
            free = 0
            for index in range(len(self.size) - 1, -1, -1):
                if start[index] < 0:  # a summit
                    start[index] = free
                    free += self.size[index]
                offset = start[index]
                for child in self.children[index]:
                    start[child] = offset
                    offset += self.size[child]
            order = [0] * len(self.names)
            for leaf in range(len(self.names)):
                order[start[leaf]] = leaf
            self._start, self._order = start, order
        return self._start

    def span(self, index: int) -> tuple[int, int]:
        low = self._lay_out()[index]
        return low, low + self.size[index]

    def contains(self, outer: int, inner: int) -> bool:
        """Whether cluster ``inner`` lies inside (or is) cluster ``outer``."""
        low, high = self.span(outer)
        inner_low, inner_high = self.span(inner)
        return low <= inner_low and inner_high <= high

    def members(self, index: int) -> tuple[str, ...]:
        """Leaf names under a cluster, in declaration order."""
        if index < len(self.names):
            return (self.names[index],)
        low, high = self.span(index)
        names = self.names
        return tuple(names[leaf] for leaf in sorted(self._order[low:high]))

    def leaf_of(self, name) -> int | None:
        if self._leaf_of is None:
            self._leaf_of = {leaf: i for i, leaf in enumerate(self.names)}
        return self._leaf_of.get(name)


@dataclass(frozen=True, slots=True)
class Cluster:
    index: int
    diam: Weight
    father: int | None
    children: tuple[int, ...]
    _tree: _Tree = field(repr=False, compare=False)

    @property
    def members(self) -> tuple[str, ...]:
        """Leaf names in declaration order, computed on each access."""
        return self._tree.members(self.index)

    @property
    def is_leaf(self) -> bool:
        return not self.children


@dataclass(frozen=True)
class Dendrogram:
    clusters: tuple[Cluster, ...]
    _tree: _Tree = field(repr=False, compare=False)

    @property
    def leaf_names(self) -> tuple[str, ...]:
        return self._tree.names

    @property
    def summits(self) -> tuple[Cluster, ...]:
        return tuple(c for c in self.clusters if c.father is None)

    def resolve(self, target) -> Cluster:
        """Accept a Cluster, an index, a leaf name, or a member collection.

        A member set resolves by climbing from one member's leaf to the
        first cluster at least as large, which must hold exactly that set.
        """
        if isinstance(target, Cluster):
            return self.clusters[target.index]
        if isinstance(target, int):
            if not 0 <= target < len(self.clusters):
                raise PreconditionError(f"unknown cluster index: {target}")
            return self.clusters[target]
        key = {target} if isinstance(target, str) else set(target)
        tree = self._tree
        leaves = [tree.leaf_of(name) for name in key]
        if leaves and None not in leaves:
            cluster = self.clusters[leaves[0]]
            while tree.size[cluster.index] < len(leaves) and cluster.father is not None:
                cluster = self.clusters[cluster.father]
            if tree.size[cluster.index] == len(leaves) and all(
                tree.contains(cluster.index, leaf) for leaf in leaves
            ):
                return cluster
        raise PreconditionError(f"unknown cluster: {sorted(key)}")


def is_dendrogram(family: Iterable[Iterable[str]]) -> tuple[bool, tuple | None]:
    """Every pair of sets must be nested or disjoint; returns a culprit pair."""
    sets = [tuple(dict.fromkeys(members)) for members in family]
    for i, a in enumerate(sets):
        set_a = set(a)
        for b in sets[i + 1 :]:
            set_b = set(b)
            if set_a <= set_b or set_b <= set_a or not (set_a & set_b):
                continue
            return False, (a, b)
    return True, None


def _assemble(
    leaf_order: Sequence[str],
    groups: Sequence[tuple[Weight, tuple[int, ...]]],
) -> Dendrogram:
    """Freeze leaf singletons plus (diam, children) groups into a Dendrogram."""
    leaves = len(leaf_order)
    diam = [BOTTOM] * leaves + [level for level, _ in groups]
    children = [()] * leaves + [kids for _, kids in groups]
    father: list[int | None] = [None] * len(children)
    size = [1] * leaves
    for index in range(leaves, len(children)):
        size.append(sum(size[child] for child in children[index]))
        for child in children[index]:
            father[child] = index
    tree = _Tree(tuple(leaf_order), size, children)
    clusters = tuple(
        Cluster(i, diam[i], father[i], children[i], tree) for i in range(len(children))
    )
    return Dendrogram(clusters=clusters, _tree=tree)


def build_dendrogram(
    leaves: Iterable[str],
    groups: Iterable[tuple[Iterable[str], Weight]],
) -> Dendrogram:
    """Build from explicit (members, diam) groups; singletons are implicit.

    Validates the nesting (every pair nested or disjoint), membership, and
    that diameters strictly increase from child to father.
    """
    leaves = list(leaves)
    leaf_index = {name: i for i, name in enumerate(dict.fromkeys(leaves))}
    if len(leaf_index) != len(leaves):
        raise ConstructionError("duplicate leaf name")
    leaf_order = list(leaf_index)
    normalized: list[tuple[tuple[str, ...], Weight]] = []
    seen: set[frozenset] = set()
    for members, diam in groups:
        members = list(members)
        for name in members:
            if name not in leaf_index:
                raise ConstructionError(f"group member {name!r} is not a leaf")
        ordered = tuple(sorted(set(members), key=leaf_index.__getitem__))
        if len(ordered) < 2:
            raise ConstructionError(f"group {ordered} needs at least two leaves")
        key = frozenset(ordered)
        if key in seen:
            raise ConstructionError(f"duplicate group {ordered}")
        seen.add(key)
        if diam == BOTTOM:
            raise ConstructionError(f"group {ordered} needs a diameter above bottom")
        normalized.append((ordered, diam))
    ok, culprit = is_dendrogram([members for members, _ in normalized])
    if not ok:
        assert culprit is not None
        raise ConstructionError(f"sets {culprit[0]} and {culprit[1]} overlap without nesting")
    normalized.sort(key=lambda item: (len(item[0]), leaf_index[item[0][0]]))

    prepared: list[tuple[Weight, tuple[int, ...]]] = []
    owner = {name: i for i, name in enumerate(leaf_order)}  # smallest cluster so far
    diam_of: dict[int, Weight] = {i: BOTTOM for i in range(len(leaf_order))}
    for members, diam in normalized:
        children = tuple(sorted({owner[name] for name in members}))
        index = len(leaf_order) + len(prepared)
        for child in children:
            if diam_of[child] >= diam:
                raise ConstructionError(
                    f"diameter must increase strictly: {members} has {diam}, "
                    f"contained cluster has {diam_of[child]}"
                )
        prepared.append((diam, children))
        diam_of[index] = diam
        for name in members:
            owner[name] = index
    return _assemble(leaf_order, prepared)


def build_lake_dendrogram(graph: Graph) -> Dendrogram:
    """Single-linkage merge tree of the graph under its edge weights.

    All merges at one weight level collapse into a single cluster, so each
    cluster is a distinct closed ball with diam = its merge level.  On a
    disconnected graph the result is a forest with one summit per component.
    """
    weights = graph.require_edge_weights("build_lake_dendrogram")
    edge_u, edge_v = graph.edge_u, graph.edge_v
    leaves = len(graph.nodes)
    parent = list(range(leaves))

    def find(node: int) -> int:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    current = list(range(leaves))  # cluster index of each union-find root's block
    groups: list[tuple[Weight, tuple[int, ...]]] = []
    by_weight = sorted(range(len(weights)), key=weights.__getitem__)  # stable: ties by id
    for level, ids in groupby(by_weight, key=weights.__getitem__):
        pending: dict[int, list[int]] = {}
        for edge_id in ids:
            root_u, root_v = find(edge_u[edge_id]), find(edge_v[edge_id])
            if root_u == root_v:
                continue
            parts = pending.pop(root_u, None) or [current[root_u]]
            parts += pending.pop(root_v, None) or [current[root_v]]
            parent[root_v] = root_u
            pending[root_u] = parts
        for root, parts in pending.items():
            current[root] = leaves + len(groups)
            groups.append((level, tuple(sorted(parts))))
    return _assemble(graph.nodes, groups)


_RELATIONS = (
    "summits",
    "leaves",
    "pred",
    "impred",
    "succ",
    "imsucc",
    "brothers",
    "uncles",
)


def query(dendro: Dendrogram, relation: str, target=None) -> tuple[Cluster, ...]:
    """Evaluate one of the eight structural relations.

    pred/succ are all strict supersets/subsets; impred is the father,
    imsucc the children; brothers share the father; uncles are clusters
    whose father is a strict predecessor of the target other than the
    target's own father, and which are not predecessors themselves.
    """
    if relation not in _RELATIONS:
        raise PreconditionError(f"unknown relation: {relation!r}")
    if relation == "summits":
        return dendro.summits
    if relation == "leaves":
        return tuple(c for c in dendro.clusters if c.is_leaf)
    if target is None:
        raise PreconditionError(f"relation {relation!r} needs a target cluster")
    cluster = dendro.resolve(target)

    def chain_up(start: Cluster) -> list[Cluster]:
        out = []
        probe = start
        while probe.father is not None:
            probe = dendro.clusters[probe.father]
            out.append(probe)
        return out

    if relation == "pred":
        return tuple(chain_up(cluster))
    if relation == "impred":
        return () if cluster.father is None else (dendro.clusters[cluster.father],)
    if relation == "succ":
        return tuple(
            c
            for c in dendro.clusters
            if c.index != cluster.index and dendro._tree.contains(cluster.index, c.index)
        )
    if relation == "imsucc":
        return tuple(dendro.clusters[i] for i in cluster.children)
    if relation == "brothers":
        if cluster.father is None:
            return ()
        return tuple(
            dendro.clusters[i]
            for i in dendro.clusters[cluster.father].children
            if i != cluster.index
        )
    ancestors = {c.index for c in chain_up(cluster)}
    return tuple(
        c
        for c in dendro.clusters
        if c.father is not None
        and c.father in ancestors
        and c.father != cluster.father
        and c.index not in ancestors
        and c.index != cluster.index
    )


def dendrogram_flood(dendro: Dendrogram, omega_leaf: Mapping[str, Weight]) -> NodeFunction:
    """Dominated flooding evaluated on the tree alone.

    A cluster floods to cap ^ (omega(cluster) v diam(cluster)) where
    omega(cluster) is the lowest ceiling among its leaves and cap is its
    father's level (top for a summit).  Equals the graph solvers on any
    graph realizing the dendrogram.
    """
    names = dendro.leaf_names
    for name in names:
        if name not in omega_leaf:
            raise PreconditionError(f"omega is missing leaf {name!r}")
    clusters = dendro.clusters
    lowest: list[Weight] = [omega_leaf[name] for name in names]
    for cluster in clusters[len(names) :]:
        lowest.append(min(lowest[i] for i in cluster.children))
    level: list[Weight] = [TOP] * len(clusters)
    for index in range(len(clusters) - 1, -1, -1):  # fathers before children
        cluster = clusters[index]
        cap = TOP if cluster.father is None else level[cluster.father]
        level[index] = meet(cap, join(lowest[index], cluster.diam))
    return dict(zip(names, level))


class GrowthKind(enum.Enum):
    REGIONAL_MINIMUM = "regmin"
    LAKE_ZONE = "lakezone"


@dataclass(frozen=True)
class GrowthStage:
    nodes: tuple[str, ...]
    kind: GrowthKind
    low: Weight
    high: Weight


def lake_growth_sequence(graph: Graph, node: str) -> tuple[GrowthStage, ...]:
    """How the lake around a node grows as the water level rises.

    Alternates regional-minimum stages (the set is a lake for every level
    strictly inside (low, high)) with lake-zone stages (at level == high
    the lake jumps to the closed ball at that radius), until the node's
    whole component is covered or nothing more can be reached.
    """
    graph.require_edge_weights("lake_growth_sequence")
    component = set(ball(graph, node, TOP))
    stages: list[GrowthStage] = []
    region = ball(graph, node, BOTTOM)
    floor: Weight = BOTTOM
    while True:
        if set(region) == component:
            if not stages:
                stages.append(GrowthStage(region, GrowthKind.REGIONAL_MINIMUM, floor, TOP))
            break
        _, spill = lowest_cocycle_edge(graph, region)
        stages.append(GrowthStage(region, GrowthKind.REGIONAL_MINIMUM, floor, spill))
        if spill == TOP:
            break
        region = ball(graph, node, spill)
        stages.append(GrowthStage(region, GrowthKind.LAKE_ZONE, spill, spill))
        floor = spill
    return tuple(stages)
