"""Dendrograms: nested families of node sets with diameters.

The clusters of the lake dendrogram are the distinct closed balls of the
flooding distance; one loop over the Kruskal merges in increasing edge
weight (single linkage) enumerates exactly those balls, and numbers the
clusters born at one level in the order of the last merge that touched
their root.  Dominated flooding evaluated directly on the tree, and the
growth of one lake as the water rises, live here too.

Cluster indices are topological: every child's index is smaller than its
father's, leaves come first.  A `Dendrogram` is the parent arrays indexed by
cluster, `diam`, `father` and `children`, over its graph, as in
Najman, Cousty & Perret, "Playing with Kruskal" (ISMM 2013).  Building,
flooding and the CLI read the arrays; `all_members()` merges the children's
sorted leaf runs bottom-up and `members(i)` walks the children down from
`i`.  `Dendrogram.clusters` holds each cluster's row of the arrays as a
`Cluster`, built on first access; its leaves are `members(cluster.index)`.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ConstructionError
from .graphs import Graph, NodeValues, ceiling_by_index, index_graph
from .ultrametric import flooding_distance_all, single_linkage
from .weights import BOTTOM, TOP, Weight

__all__ = [
    "Cluster",
    "Dendrogram",
    "GrowthKind",
    "GrowthStage",
    "build_dendrogram",
    "build_lake_dendrogram",
    "dendrogram_flood",
    "is_dendrogram",
    "lake_growth_sequence",
]

Group = tuple[Weight, tuple[int, ...]]  # an inner cluster: (diam, children)


@dataclass(frozen=True, slots=True)
class Cluster:
    index: int
    diam: Weight
    father: int | None
    children: tuple[int, ...]


class Dendrogram:
    """A forest of clusters, held as parent arrays indexed by cluster.

    Leaf ``i`` is cluster ``i``, node ``i`` of ``graph``; ``groups`` are the
    inner clusters in index order, taken unchecked (`build_dendrogram`
    validates them).  ``diam``, ``father`` (None for a summit) and
    ``children`` are lists by cluster, over its graph.  ``clusters`` are
    views built on first access and kept; ``==`` and ``hash`` read
    ``graph.nodes`` and the arrays.
    """

    __slots__ = ("graph", "diam", "father", "children", "_clusters")

    def __init__(self, graph: Graph, groups: Sequence[Group]) -> None:
        leaves = len(graph.nodes)
        self.graph = graph
        self.diam = [BOTTOM] * leaves + [level for level, _ in groups]
        self.children = children = [()] * leaves + [kids for _, kids in groups]
        self.father = father = [None] * len(children)
        for index in range(leaves, len(children)):
            for child in children[index]:
                father[child] = index
        self._clusters: tuple[Cluster, ...] | None = None

    def members(self, index: int) -> tuple[str, ...]:
        """Leaf names under cluster ``index``, in declaration order."""
        leaves, below, found = len(self.graph.nodes), [index], []
        while below:
            cluster = below.pop()
            if cluster < leaves:
                found.append(cluster)
            else:
                below += self.children[cluster]
        return tuple(map(self.graph.nodes.__getitem__, sorted(found)))

    def all_members(self) -> Iterator[tuple[str, ...]]:
        """Every cluster's ``members``, in cluster order: an inner cluster sorts
        its children's sorted runs into one (a merge), and theirs are dropped."""
        names = self.graph.nodes
        yield from zip(names)  # leaf i is cluster i
        leaves, runs = len(names), {}
        for index in range(leaves, len(self.children)):
            run: list[int] = []
            for child in self.children[index]:
                if child < leaves:
                    run.append(child)
                else:
                    run += runs.pop(child)
            run.sort()
            if self.father[index] is not None:
                runs[index] = run
            yield tuple(map(names.__getitem__, run))

    @property
    def clusters(self) -> tuple[Cluster, ...]:
        if self._clusters is None:
            self._clusters = tuple(map(
                Cluster, range(len(self.diam)), self.diam, self.father, self.children
            ))
        return self._clusters

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.graph.nodes, self.diam, self.father, self.children) == (
            other.graph.nodes, other.diam, other.father, other.children
        )

    def __hash__(self) -> int:
        return hash((self.graph.nodes, tuple(self.diam), tuple(self.father), tuple(self.children)))

    def __repr__(self) -> str:
        return f"Dendrogram(leaf_names={self.graph.nodes!r}, clusters={self.clusters!r})"


def is_dendrogram(family: Iterable[Iterable[str]]) -> tuple[bool, tuple | None]:
    """Every pair of sets must be nested or disjoint; returns a culprit pair.

    Taken by size, a set nests over the earlier ones exactly when each
    distinct owner of its members (the latest set holding the member) lies
    inside it.  The first owner that does not is the culprit, returned with
    the set in family order.  An owner that lies inside is owned by the set
    from then on, so each set is checked whole at most once and the pass is
    linear in the family's total size.
    """
    sets = [tuple(dict.fromkeys(members)) for members in family]
    owner: dict[str, int] = {}  # member -> index in `sets`
    for index in sorted(range(len(sets)), key=lambda i: len(sets[i])):
        group = sets[index]
        inside = set(group)
        for top in dict.fromkeys(owner[name] for name in group if name in owner):
            if not inside.issuperset(sets[top]):
                return False, (sets[min(top, index)], sets[max(top, index)])
        owner.update(dict.fromkeys(group, index))
    return True, None


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

    prepared: list[Group] = []
    owner = {name: i for i, name in enumerate(leaf_order)}  # smallest cluster so far
    for members, diam in normalized:
        prepared.append((diam, tuple(sorted({owner[name] for name in members}))))
        owner.update(dict.fromkeys(members, len(leaf_order) + len(prepared) - 1))
    dendro = Dendrogram(index_graph(leaf_order, (), (), index=leaf_index), prepared)
    for index, (diam, children) in enumerate(prepared, len(leaf_order)):
        for child in children:
            if dendro.diam[child] >= diam:
                raise ConstructionError(
                    f"diameter must increase strictly: {dendro.members(index)} has {diam}, "
                    f"contained cluster has {dendro.diam[child]}"
                )
    return dendro


def build_lake_dendrogram(graph: Graph) -> Dendrogram:
    """Single-linkage merge tree of the graph under its edge weights.

    Replays the merges of the shared Kruskal pass (`single_linkage`, the
    same pass that gives `mst`) in one loop that tracks the weight level.
    The merges at one level collapse into clusters, each a distinct closed
    ball with diam = that level, numbered as the level ends in the order of
    the last merge that touched its root.  On a disconnected graph the
    result is a forest with one summit per component.
    """
    weights = graph.require_edge_weights("build_lake_dendrogram")
    leaves = len(graph.nodes)
    current = list(range(leaves))  # cluster index of each union-find root's block
    groups: list[Group] = []
    pending: dict[int, list[int]] = {}  # root -> the clusters it merges at this level
    level = None
    for edge_id, root_u, root_v in single_linkage(graph, weights):
        if weights[edge_id] != level:  # number the level's clusters in pending's order
            for root, parts in pending.items():
                current[root] = leaves + len(groups)
                parts.sort()
                groups.append((level, tuple(parts)))
            pending, level = {}, weights[edge_id]
        parts = pending.pop(root_u, None) or [current[root_u]]
        other = pending.pop(root_v, None)
        if other is None:  # an absorbed root brings its one cluster
            parts.append(current[root_v])
        else:
            if len(parts) < len(other):  # extend the longer list: a star stays linear
                parts, other = other, parts
            parts += other
        pending[root_u] = parts  # put back last: pending keeps the order of each root's last merge
    for root, parts in pending.items():
        current[root] = leaves + len(groups)
        parts.sort()
        groups.append((level, tuple(parts)))
    return Dendrogram(graph, groups)


def dendrogram_flood(dendro: Dendrogram, omega_leaf: Mapping[str, Weight]) -> NodeValues:
    """Dominated flooding evaluated on the tree alone.

    A cluster floods to cap ^ (omega(cluster) v diam(cluster)) where
    omega(cluster) is the lowest ceiling among its leaves and cap is its
    father's level (top for a summit).  Equals the graph solvers on any
    graph realizing the dendrogram.  The ceiling is read over the
    dendrogram's graph by `ceiling_by_index`, as the solvers read it.
    """
    lowest = ceiling_by_index(dendro.graph, omega_leaf)  # a fresh list: extended by cluster
    leaves = len(lowest)
    for kids in dendro.children[leaves:]:
        lowest.append(min(map(lowest.__getitem__, kids)))
    diam, father = dendro.diam, dendro.father
    level: list[Weight] = [TOP] * len(diam)
    for index in range(len(diam) - 1, -1, -1):  # fathers before children
        value = lowest[index] if lowest[index] >= diam[index] else diam[index]
        up = father[index]
        level[index] = level[up] if up is not None and level[up] < value else value
    return NodeValues(dendro.graph, level[:leaves])


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

    One distance pass gives every stage: the lowest edge leaving the ball
    of radius r weighs the next distinct distance above r (an edge to q
    outside weighs at least d(q), and the best chain to q leaves through an
    edge no higher), so the stages step through the sorted distances.
    """
    graph.require_edge_weights("lake_growth_sequence")
    dist = flooding_distance_all(graph, node)

    def ball(radius: Weight) -> tuple[str, ...]:
        return tuple(name for name, level in dist.items() if level <= radius)

    radii = sorted(set(dist.values()))  # radii[0] is bottom: the node itself
    stages: list[GrowthStage] = []
    region = ball(BOTTOM)
    for low, spill in zip(radii, radii[1:] or [TOP]):  # one radius: one stage
        stages.append(GrowthStage(region, GrowthKind.REGIONAL_MINIMUM, low, spill))
        if spill < TOP:
            region = ball(spill)
            stages.append(GrowthStage(region, GrowthKind.LAKE_ZONE, spill, spill))
    return tuple(stages)
