"""Dendrograms: construction, lake merge trees, tree flooding, lake growth."""

from __future__ import annotations

import dataclasses
import random
from itertools import chain, groupby

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodgraph import (
    BOTTOM,
    TOP,
    Cluster,
    ConstructionError,
    Dendrogram,
    PreconditionError,
    berge_flood,
    build_dendrogram,
    build_graph,
    build_lake_dendrogram,
    core_expanding_flood,
    dendrogram_flood,
    dijkstra_flood,
    distance_matrix,
    flooding_distance_all,
    is_dendrogram,
    oracle_flood,
    prim_flood,
)

from floodgraph.cli import Ingested, _lines, build_parser, cmd_dendro
from floodgraph.graphs import NodeValues
from floodgraph.ultrametric import single_linkage

from strategies import children_of, edge_graphs, random_ceiling, rough_edge_graphs


def members_of(dendro, indices):
    members = list(dendro.all_members())
    return {members[index] for index in indices}


def parent_arrays(leaves, groups):
    """(diam, father) by cluster, from the inner clusters' (diam, children) groups."""
    diam = [BOTTOM] * leaves + [level for level, _ in groups]
    father = [None] * len(diam)
    for index, (_, children) in enumerate(groups, leaves):
        for child in children:
            father[child] = index
    return diam, father


def arrays(dendro):
    """What a dendrogram holds: its leaf names and its parent arrays."""
    return dendro.graph.nodes, dendro.diam, dendro.father


def cluster_of(dendro, members):
    """The index of the cluster holding exactly ``members``."""
    (found,) = (i for i, names in enumerate(dendro.all_members()) if set(names) == set(members))
    return found


def inner_diameters(dendro):
    """The diam of every cluster of two leaves or more, by its members."""
    return {members: d for members, d in zip(dendro.all_members(), dendro.diam) if len(members) > 1}


# -- structure and construction ------------------------------------------------


def test_dendro_fixture_structure(dendro_fixture):
    dendro = dendro_fixture.dendro
    assert dendro.graph.nodes == dendro_fixture.leaves
    assert len(dendro.diam) == 11 + 8
    root = cluster_of(dendro, dendro_fixture.leaves)
    assert dendro.diam[root] == 10 and dendro.father[root] is None
    assert [i for i, up in enumerate(dendro.father) if up is None] == [root]
    assert dendro.diam[cluster_of(dendro, ["b", "c", "d", "e"])] == 4
    leaf = cluster_of(dendro, ["g"])
    assert children_of(dendro)[leaf] == ()
    assert dendro.diam[leaf] == BOTTOM


def test_is_dendrogram():
    assert is_dendrogram([("a",), ("b",), ("a", "b")]) == (True, None)
    ok, culprit = is_dendrogram([("a", "b"), ("b", "c")])
    assert not ok
    assert culprit == (("a", "b"), ("b", "c"))


def pairwise_culprit(family):
    """The first pair, in family order, that overlaps without nesting."""
    sets = [tuple(dict.fromkeys(members)) for members in family]
    for i, a in enumerate(sets):
        for b in sets[i + 1 :]:
            if not (set(a) <= set(b) or set(b) <= set(a) or not set(a) & set(b)):
                return a, b
    return None


@settings(max_examples=300)
@given(st.lists(st.lists(st.sampled_from("abcdef"), max_size=6), max_size=8))
def test_is_dendrogram_matches_the_pairwise_definition(family):
    ok, culprit = is_dendrogram(family)
    assert ok == (pairwise_culprit(family) is None)
    if ok:
        assert culprit is None
    else:  # two sets of the family, in family order, overlapping without nesting
        sets = [tuple(dict.fromkeys(members)) for members in family]
        first, second = culprit
        assert any(first == a and second in sets[i + 1 :] for i, a in enumerate(sets))
        assert pairwise_culprit([first, second]) == (first, second)
    if ok:  # the family's sets of two or more, at their sizes as diameters, build a dendrogram
        groups = {frozenset(members): len(set(members)) for members in family}
        groups = {members: size for members, size in groups.items() if size > 1}
        dendro = build_dendrogram("abcdef", groups.items())
        for index, up in enumerate(dendro.father):  # what the upward loops rely on
            assert up is None or (up > index and dendro.diam[index] < dendro.diam[up])


@given(rough_edge_graphs())
def test_lake_dendrogram_clusters_form_a_dendrogram(graph):
    dendro = build_lake_dendrogram(graph)
    family = list(dendro.all_members())
    assert is_dendrogram(reversed(family)) == (True, None)


@given(rough_edge_graphs())
def test_all_members_lists_every_cluster_in_declaration_order(graph):
    dendro = build_lake_dendrogram(graph)
    leaves = [{i} for i in range(len(graph.nodes))]  # by the children, not the layout
    for kids in children_of(dendro)[len(graph.nodes):]:
        leaves.append(set().union(*map(leaves.__getitem__, kids)))
    expected = [tuple(graph.nodes[i] for i in sorted(block)) for block in leaves]
    assert list(dendro.all_members()) == expected


def layout_members(dendro):
    """The former ``all_members``: lay the leaves out so that every cluster
    fills one range (fathers placed before their children), then sort each
    cluster's range."""
    children = children_of(dendro)
    size = [1] * len(dendro.graph.nodes)  # leaves per cluster, from the children tuples
    for kids in children[len(size) :]:
        size.append(sum(map(size.__getitem__, kids)))
    start = [-1] * len(size)
    free = 0
    for cluster in range(len(size) - 1, -1, -1):
        if start[cluster] < 0:  # a summit
            start[cluster] = free
            free += size[cluster]
        offset = start[cluster]
        for child in children[cluster]:
            start[child] = offset
            offset += size[child]
    order = [0] * len(dendro.graph.nodes)
    for leaf in range(len(dendro.graph.nodes)):
        order[start[leaf]] = leaf
    return [
        tuple(dendro.graph.nodes[i] for i in sorted(order[low : low + count]))
        for low, count in zip(start, size)
    ]


def check_merged_members(dendro):
    assert list(dendro.all_members()) == layout_members(dendro)


@given(rough_edge_graphs())
def test_merged_members_match_the_layout_and_sort(graph):
    check_merged_members(build_lake_dendrogram(graph))


def test_merged_members_on_a_deep_increasing_path():
    names = [f"p{i}" for i in range(2000)]
    path = build_graph(names, list(zip(names, names[1:])), edge_weights=range(1, 2000))
    dendro = build_lake_dendrogram(path)
    assert len(dendro.diam) == 2 * len(names) - 1  # one leaf joins per level
    check_merged_members(dendro)


def test_fixture_family_is_a_dendrogram(dendro_fixture):
    family = [members for members, _ in dendro_fixture.groups]
    assert is_dendrogram(family) == (True, None)


@pytest.mark.parametrize(
    "leaves, groups, fragment",
    [
        (["a", "a"], [], "duplicate leaf name"),
        (["a", "b"], [(("a", "z"), 1)], "is not a leaf"),
        (["a", "b"], [(("a",), 1)], "needs at least two leaves"),
        (["a", "b"], [(("a", "b"), 1), (("b", "a"), 2)], "duplicate group"),
        (["a", "b"], [(("a", "b"), BOTTOM)], "needs a diameter above bottom"),
        (["a", "b", "c"], [(("a", "b"), 1), (("b", "c"), 1)], "overlap without nesting"),
        (
            ["a", "b", "c"],
            [(("a", "b"), 2), (("a", "b", "c"), 2)],
            "diameter must increase strictly",
        ),
    ],
)
def test_build_dendrogram_errors(leaves, groups, fragment):
    with pytest.raises(ConstructionError) as err:
        build_dendrogram(leaves, groups)
    assert fragment in str(err.value)


def test_build_dendrogram_reads_iterators_once():
    dendro = build_dendrogram(iter(["a", "b", "c"]), [(iter(["b", "a"]), 1)])
    assert list(dendro.all_members()) == [("a",), ("b",), ("c",), ("a", "b")]
    with pytest.raises(ConstructionError) as err:
        build_dendrogram(["a", "b", "c"], [(iter(["b", "zz"]), 1)])
    assert str(err.value) == "group member 'zz' is not a leaf"


# -- lake dendrograms ---------------------------------------------------------------


def test_chain_lake_dendrogram(chain):
    dendro = build_lake_dendrogram(chain.edge_graph)
    assert inner_diameters(dendro) == {("c", "d", "e"): 2, ("a", "b", "c", "d", "e"): 4}


def test_single_edge_lake_dendrogram():
    graph = build_graph(["p", "q"], [("p", "q")], edge_weights=[5])
    dendro = build_lake_dendrogram(graph)
    assert set(dendro.all_members()) == {("p",), ("q",), ("p", "q")}
    assert dendro.diam[cluster_of(dendro, ("p", "q"))] == 5


def test_realizing_tree_reproduces_the_fixture(dendro_fixture):
    rebuilt = build_lake_dendrogram(dendro_fixture.tree)
    expected = {tuple(m): d for m, d in dendro_fixture.groups}
    assert inner_diameters(rebuilt) == expected


def test_disconnected_graph_grows_a_forest():
    graph = build_graph(
        ["a", "b", "c", "d"], [("a", "b"), ("c", "d")], edge_weights=[1, 2]
    )
    dendro = build_lake_dendrogram(graph)
    summits = [index for index, up in enumerate(dendro.father) if up is None]
    assert members_of(dendro, summits) == {("a", "b"), ("c", "d")}


@given(edge_graphs())
def test_cluster_diameters_match_the_metric(graph):
    # A cluster is a closed ball, so every min-max chain between two members stays inside it.
    dendro = build_lake_dendrogram(graph)
    table = distance_matrix(graph)
    for diam, members in zip(dendro.diam, dendro.all_members()):
        if len(members) > 1:
            assert max(table[p][q] for p in members for q in members) == diam


@given(edge_graphs())
def test_diam_strictly_increases_upward(graph):
    dendro = build_lake_dendrogram(graph)
    for index, up in enumerate(dendro.father):  # what the upward loops rely on
        assert up is None or (up > index and dendro.diam[index] < dendro.diam[up])


def union_find_lake_clusters(graph):
    """(index, diam, father, children) per cluster, by the former merge loop.

    Its own union-find over the edges in stable weight order, merging
    every level's components into one cluster each; build_lake_dendrogram
    now replays the shared Kruskal pass instead and must give these clusters.
    """
    weights = graph.edge_weights
    edge_u, edge_v = graph.edge_u, graph.edge_v
    leaves = len(graph.nodes)
    parent = list(range(leaves))

    def find(node):
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    current = list(range(leaves))
    groups = []
    by_weight = sorted(range(len(weights)), key=weights.__getitem__)
    for level, ids in groupby(by_weight, key=weights.__getitem__):
        pending = {}
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
    clusters = [[index, BOTTOM, None, ()] for index in range(leaves)]
    for level, children in groups:
        for child in children:
            clusters[child][2] = len(clusters)
        clusters.append([len(clusters), level, None, children])
    return [tuple(cluster) for cluster in clusters]


@settings(max_examples=300)
@given(rough_edge_graphs())
def test_lake_dendrogram_matches_the_union_find_loop(graph):
    dendro = build_lake_dendrogram(graph)
    rows = zip(range(len(dendro.diam)), dendro.diam, dendro.father, children_of(dendro))
    assert list(rows) == union_find_lake_clusters(graph)


def groupby_lake_dendrogram(graph):
    """The lake dendrogram by the former replay: Kruskal's merges grouped by
    level with ``groupby``, each level's clusters numbered in ``pending`` order."""
    weights = graph.edge_weights
    leaves = len(graph.nodes)
    current = list(range(leaves))
    groups = []
    for level, merged in groupby(single_linkage(graph, weights), key=lambda merge: weights[merge[0]]):
        pending = {}
        for _, root_u, root_v in merged:
            parts = pending.pop(root_u, None) or [current[root_u]]
            other = pending.pop(root_v, None) or [current[root_v]]
            if len(parts) < len(other):
                parts, other = other, parts
            parts += other
            pending[root_u] = parts
        for root, parts in pending.items():
            current[root] = leaves + len(groups)
            groups.append((level, tuple(sorted(parts))))
    return Dendrogram(graph, *parent_arrays(leaves, groups))


def generator_dendro_text(dendro, tau):
    """The `dendro` report by the former writer: one generated line per cluster,
    then one per node of the flooding, joined by `_lines`."""
    clusters = (
        f"cluster {index} diam={diam} "
        f"father={'none' if father is None else father} leaves={' '.join(leaves)}"
        for index, (diam, father, leaves)
        in enumerate(zip(dendro.diam, dendro.father, dendro.all_members()))
    )
    return "".join(_lines(chain(clusters, (f"{n} {level}" for n, level in tau.items()))))


def dendro_chunks(graph, omega, *flags):
    """`cmd_dendro`'s exit code and output chunks on ``graph``, whose ceiling is ``omega``."""
    args = build_parser().parse_args(["dendro", "--graph", "unused", *flags])
    code, chunks, _ = cmd_dendro(args, Ingested(graph, NodeValues(graph, omega), None))
    return code, list(chunks)


@settings(max_examples=300)
@given(rough_edge_graphs(), st.randoms(use_true_random=False), st.booleans())
def test_bulk_replay_and_report_match_the_former_groupby_and_generators(graph, rng, flood):
    """Forests, isolated nodes, parallel edges and infinite weights: the one-loop
    replay numbers every cluster as the groupby replay did, and the report's chunks
    join into the text the line-by-line writer gave, with and without --flood (whose
    lines are the graph's flooding by the best-first solver)."""
    dendro = build_lake_dendrogram(graph)
    reference = groupby_lake_dendrogram(graph)
    assert (dendro.diam, dendro.father) == (reference.diam, reference.father)
    omega = [rng.choice([BOTTOM, TOP, *range(8)]) for _ in graph.nodes]
    code, chunks = dendro_chunks(graph, omega, *(["--flood"] if flood else []))
    tau = dijkstra_flood(graph, dict(zip(graph.nodes, omega))).tau if flood else {}
    text = "".join(chunks)
    assert code == 0
    assert text == generator_dendro_text(reference, tau)
    for index, name in enumerate(graph.nodes):  # an isolated node is its own summit
        if dendro.father[index] is None:
            assert f"cluster {index} diam=-inf father=none leaves={name}\n" in text


def test_leaf_lines_are_written_by_slices_of_65536_leaves():
    """A 70,000-node path at one level: the leaf lines leave as two chunks of 65,536
    and 4,464 lines, then the one inner cluster, as the former writer gave them."""
    names = [f"p{i}" for i in range(70_000)]
    graph = build_graph(names, list(zip(names, names[1:])), edge_weights=[3] * (len(names) - 1))
    code, chunks = dendro_chunks(graph, [TOP] * len(names))
    assert code == 0
    assert [chunk.count("\n") for chunk in chunks[:2]] == [65536, 4464]
    assert chunks[0].startswith("cluster 0 diam=-inf father=70000 leaves=p0\n")
    assert chunks[1].endswith("cluster 69999 diam=-inf father=70000 leaves=p69999\n")
    assert chunks[2].startswith("cluster 70000 diam=3 father=none leaves=p0 p1 ")
    assert "".join(chunks) == generator_dendro_text(groupby_lake_dendrogram(graph), {})


def eager_assemble(leaf_order, groups):
    """Every Cluster built up front, and each one's members, from (diam, children) groups.

    This is how a Dendrogram was assembled before it kept parent arrays
    and built its Cluster views from them; the views, each cluster's row of
    the arrays, must equal it.
    """
    leaves = len(leaf_order)
    diam = [BOTTOM] * leaves + [level for level, _ in groups]
    children = [()] * leaves + [kids for _, kids in groups]
    father = [None] * len(children)
    members = [{name} for name in leaf_order]
    for index in range(leaves, len(children)):
        members.append(set().union(*(members[child] for child in children[index])))
        for child in children[index]:
            father[child] = index
    clusters = tuple(
        Cluster(i, diam[i], father[i]) for i in range(len(children))
    )
    rank = {name: i for i, name in enumerate(leaf_order)}
    return clusters, [tuple(sorted(names, key=rank.__getitem__)) for names in members]


@given(rough_edge_graphs())
def test_cluster_views_match_the_eager_assembly(graph):
    leaves = len(graph.nodes)
    groups = [(diam, kids) for _, diam, _, kids in union_find_lake_clusters(graph)[leaves:]]
    clusters, members = eager_assemble(graph.nodes, groups)
    dendro = build_lake_dendrogram(graph)
    assert Dendrogram.__slots__ == ("graph", "diam", "father")
    assert [field.name for field in dataclasses.fields(Cluster)] == ["index", "diam", "father"]
    diam, father = parent_arrays(leaves, groups)
    assert arrays(dendro) == (graph.nodes, diam, father)
    assert dendro.diam == [cluster.diam for cluster in clusters]
    assert dendro.father == [cluster.father for cluster in clusters]
    assert list(dendro.all_members()) == members
    assert dendro.clusters == clusters
    assert repr(dendro) == (
        f"Dendrogram(leaf_names={graph.nodes!r}, diam={diam!r}, father={father!r})"
    )


def test_dendrograms_on_other_leaves_differ():
    one = build_dendrogram(["a", "b"], [(["a", "b"], 1)])
    assert arrays(one) == arrays(build_dendrogram(["a", "b"], [(["a", "b"], 1)]))
    other = build_dendrogram(["x", "y"], [(["x", "y"], 1)])
    assert arrays(one) != arrays(other)
    assert repr(one) != repr(other)


# -- flooding on the tree --------------------------------------------------------------


def test_dendrogram_flood_fixture(dendro_fixture):
    assert dendrogram_flood(dendro_fixture.dendro, dendro_fixture.omega) == dendro_fixture.tau


def test_dendrogram_flood_open_sky(dendro_fixture):
    sky = {leaf: TOP for leaf in dendro_fixture.leaves}
    assert dendrogram_flood(dendro_fixture.dendro, sky) == sky


def test_dendrogram_flood_on_the_chain(chain):
    dendro = build_lake_dendrogram(chain.edge_graph)
    assert dendrogram_flood(dendro, chain.omega) == chain.tau


def test_dendrogram_flood_needs_every_leaf(dendro_fixture):
    omega = dict(dendro_fixture.omega)
    del omega["k"]
    with pytest.raises(PreconditionError) as err:
        dendrogram_flood(dendro_fixture.dendro, omega)
    assert "missing node 'k'" in str(err.value)


CEILING_FAULTS = {  # a change to the chain's ceiling, and the error every route raises
    "unknown_node": ({"zz": 3}, "omega defined on unknown node 'zz'"),
    "below_ground": ({"b": 3}, "ceiling below ground at node 'b'"),  # b's ground is 4
}


@pytest.mark.parametrize("fault", sorted(CEILING_FAULTS))
@pytest.mark.parametrize("route", ["berge", "dijkstra", "prim", "core", "dendrogram", "oracle"])
def test_every_route_rejects_an_unknown_node_or_a_ceiling_below_the_ground(chain, route, fault):
    change, message = CEILING_FAULTS[fault]
    omega = {**chain.omega, **change}
    view = chain.edge_graph
    run = {
        "berge": lambda: berge_flood(view, omega),
        "dijkstra": lambda: dijkstra_flood(view, omega),
        # prim takes the finite ceilings as sources, by name
        "prim": lambda: prim_flood(view, {node: lam for node, lam in omega.items() if lam < TOP}),
        "core": lambda: core_expanding_flood(chain.graph, omega),
        "dendrogram": lambda: dendrogram_flood(build_lake_dendrogram(view), omega),
        "oracle": lambda: oracle_flood(view, omega),
    }[route]
    with pytest.raises(PreconditionError, match=message):
        run()


@given(edge_graphs())
def test_dendrogram_flood_matches_the_closed_formula(graph):
    rng = random.Random(7 * len(graph.nodes) + len(graph.edges))
    omega = random_ceiling(rng, graph)
    dendro = build_lake_dendrogram(graph)
    lowest = [min(map(omega.__getitem__, members)) for members in dendro.all_members()]
    expected = {}
    for probe, leaf in enumerate(dendro.graph.nodes):  # leaf i is cluster i
        best = TOP
        while probe is not None:
            best = min(best, max(lowest[probe], dendro.diam[probe]))
            probe = dendro.father[probe]
        expected[leaf] = best
    assert dendrogram_flood(dendro, omega) == expected
    assert expected == oracle_flood(graph, omega)


# -- lake growth ------------------------------------------------------------------------


def per_stage_lake_growth(graph, node):
    """The lakes around ``node`` as the water rises, each with the level it opens at:
    a closed ball of the flooding distance, grown over the lowest edge leaving it."""
    dist = flooding_distance_all(graph, node)

    def ball(radius):
        return tuple(name for name in graph.nodes if dist[name] <= radius)

    def lowest_cocycle_weight(inside):
        ends = zip(graph.edges, graph.edge_weights)
        return min((w for (u, v), w in ends if (u in inside) != (v in inside)), default=TOP)

    stages = [(ball(BOTTOM), BOTTOM)]
    while (spill := lowest_cocycle_weight(set(stages[-1][0]))) < TOP:
        stages.append((ball(spill), spill))
    return stages


def clusters_above(dendro, leaf):
    """The members and diam of leaf ``leaf``'s cluster and of each cluster above it."""
    path = [leaf]
    while dendro.father[path[-1]] is not None:
        path.append(dendro.father[path[-1]])
    members = list(dendro.all_members())
    return [(members[cluster], dendro.diam[cluster]) for cluster in path]


def test_lake_growth_from_the_deep_end(chain):
    dendro = build_lake_dendrogram(chain.edge_graph)
    lakes_of_e = [(("e",), BOTTOM), (("c", "d", "e"), 2), (("a", "b", "c", "d", "e"), 4)]
    assert per_stage_lake_growth(chain.edge_graph, "e") == lakes_of_e
    assert clusters_above(dendro, chain.edge_graph.nodes.index("e")) == lakes_of_e


def test_lake_growth_from_the_shallow_end(chain):
    dendro = build_lake_dendrogram(chain.edge_graph)
    lakes_of_a = [(("a",), BOTTOM), (("a", "b", "c", "d", "e"), 4)]
    assert per_stage_lake_growth(chain.edge_graph, "a") == lakes_of_a
    assert clusters_above(dendro, chain.edge_graph.nodes.index("a")) == lakes_of_a


def test_lake_growth_single_edge():
    graph = build_graph(["p", "q"], [("p", "q")], edge_weights=[5])
    lakes_of_p = [(("p",), BOTTOM), (("p", "q"), 5)]
    assert per_stage_lake_growth(graph, "p") == lakes_of_p
    assert clusters_above(build_lake_dendrogram(graph), 0) == lakes_of_p


def test_lake_growth_isolated_node():
    """A node without an edge is its own lake at every level: its leaf is a root."""
    graph = build_graph(["lonely", "u", "v"], [("u", "v")], edge_weights=[1])
    dendro = build_lake_dendrogram(graph)
    assert dendro.father[0] is None
    assert per_stage_lake_growth(graph, "lonely") == [(("lonely",), BOTTOM)]
    assert clusters_above(dendro, 0) == [(("lonely",), BOTTOM)]


@settings(max_examples=300)
@given(rough_edge_graphs())
def test_the_lakes_around_a_node_are_the_clusters_above_its_leaf(graph):
    """On finite weights, parallel edges and components without an edge included."""
    graph = graph.with_edge_weights([min(max(w, 0), 9) for w in graph.edge_weights])
    dendro = build_lake_dendrogram(graph)
    for leaf, node in enumerate(graph.nodes):
        assert clusters_above(dendro, leaf) == per_stage_lake_growth(graph, node)
