"""Dendrograms: nested families of node sets with diameters.

The clusters of the lake dendrogram are the distinct closed balls of the
flooding distance; one loop over the Kruskal merges in increasing edge
weight (single linkage) enumerates exactly those balls, and numbers the
clusters born at one level in the order of the last merge that touched
their root.  On finite weights the lakes around one node, as the water
rises, are the clusters above its leaf, each from its diam on.  Dominated
flooding evaluated directly on the tree lives here too.

Cluster indices are topological: every father's index is above its
children's, leaves come first.  A `Dendrogram` is the parent array of
Najman, Cousty & Perret, "Playing with Kruskal" (ISMM 2013): `diam` and
`father` by cluster, over its graph, and nothing else.  Building, flooding
and the CLI read the arrays, walking `father` upward in index order;
`all_members()` sorts each cluster's run of leaves and hands it up to its
father.  `Dendrogram.clusters` gives each cluster's row of the arrays as a
`Cluster`, with no children.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping
from dataclasses import dataclass

from .errors import ConstructionError
from .graphs import Graph, NodeValues, _counting, ceiling_by_index, index_graph
from .ultrametric import single_linkage
from .weights import BOTTOM, TOP, Weight

__all__ = [
    "Cluster",
    "Dendrogram",
    "build_dendrogram",
    "build_lake_dendrogram",
    "dendrogram_flood",
    "is_dendrogram",
]


@dataclass(frozen=True, slots=True)
class Cluster:
    index: int
    diam: Weight
    father: int | None


class Dendrogram:
    """A forest of clusters, held as parent arrays indexed by cluster.

    Leaf ``i`` is cluster ``i``, node ``i`` of ``graph``.  ``diam`` and
    ``father`` (None for a summit) are lists by cluster, taken unchecked
    (`build_dendrogram` validates them): every father's index is above its
    children's.
    """

    __slots__ = ("graph", "diam", "father")

    def __init__(self, graph: Graph, diam: list[Weight], father: list[int | None]) -> None:
        self.graph, self.diam, self.father = graph, diam, father

    def all_members(self) -> Iterator[tuple[str, ...]]:
        """Every cluster's leaf names in declaration order, in cluster order: a cluster
        sorts the runs its children handed up into one (a merge), and hands that up in turn."""
        names, father = self.graph.nodes, self.father
        yield from zip(names)  # leaf i is cluster i
        leaves, runs = len(names), {}
        for leaf, up in zip(range(leaves), father):
            if up is not None:
                runs.setdefault(up, []).append(leaf)
        for index in range(leaves, len(father)):
            run = runs.pop(index)
            run.sort()
            yield tuple([names[leaf] for leaf in run])
            up = father[index]
            if up is not None:
                runs.setdefault(up, []).extend(run)

    @property
    def clusters(self) -> tuple[Cluster, ...]:
        """Each cluster's row of the arrays, built anew on every access."""
        return tuple(map(Cluster, range(len(self.diam)), self.diam, self.father))

    def __repr__(self) -> str:
        return (f"Dendrogram(leaf_names={self.graph.nodes!r}, "
                f"diam={self.diam!r}, father={self.father!r})")


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

    diam: list[Weight] = [BOTTOM] * len(leaves)
    father: list[int | None] = [None] * len(leaves)
    owner = dict(leaf_index)  # smallest cluster so far
    for members, level in normalized:
        cluster = len(father)
        for child in {owner[name] for name in members}:
            father[child] = cluster
        owner.update(dict.fromkeys(members, cluster))
        diam.append(level)
        father.append(None)
    crossed = [(up, child) for child, up in enumerate(father)
               if up is not None and diam[child] >= diam[up]]
    if crossed:
        up, child = min(crossed)  # the first by (father, child)
        raise ConstructionError(
            f"diameter must increase strictly: {normalized[up - len(leaves)][0]} has {diam[up]}, "
            f"contained cluster has {diam[child]}"
        )
    return Dendrogram(index_graph(leaves, (), (), index=leaf_index), diam, father)


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
    diam: list[Weight] = [BOTTOM] * leaves
    father: list[int | None] = [None] * leaves
    current = _counting(leaves)  # cluster index of each union-find root's block
    pending: dict[int, list[int]] = {}  # root -> the clusters it merges at this level
    level = None

    def close_level() -> None:  # number the level's clusters in pending's order
        for root, parts in pending.items():
            current[root] = cluster = len(father)  # one int object for all its children
            for part in parts:
                father[part] = cluster
            diam.append(level)
            father.append(None)

    for edge_id, root_u, root_v in single_linkage(graph, weights):
        if weights[edge_id] != level:
            close_level()
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
    close_level()
    return Dendrogram(graph, diam, father)


def dendrogram_flood(dendro: Dendrogram, omega_leaf: Mapping[str, Weight]) -> NodeValues:
    """Dominated flooding evaluated on the tree alone.

    A cluster floods to cap ^ (omega(cluster) v diam(cluster)) where
    omega(cluster) is the lowest ceiling among its leaves and cap is its
    father's level (top for a summit).  Equals the graph solvers on any
    graph realizing the dendrogram.  The ceiling is read over the
    dendrogram's graph by `ceiling_by_index`, as the solvers read it.
    """
    lowest = ceiling_by_index(dendro.graph, omega_leaf)  # a fresh list: extended by cluster
    leaves, diam, father = len(lowest), dendro.diam, dendro.father
    lowest += [TOP] * (len(diam) - leaves)
    for index, up in enumerate(father):  # children before fathers: lift each lowest ceiling
        if up is not None and lowest[index] < lowest[up]:
            lowest[up] = lowest[index]
    level: list[Weight] = [TOP] * len(diam)
    for index in range(len(diam) - 1, -1, -1):  # fathers before children
        value = lowest[index] if lowest[index] >= diam[index] else diam[index]
        up = father[index]
        level[index] = level[up] if up is not None and level[up] < value else value
    return NodeValues(dendro.graph, level[:leaves])
