"""Dendrograms: construction, relations, lake merge trees, tree flooding."""

from __future__ import annotations

import random
from itertools import groupby

import pytest
from hypothesis import given, settings

from floodgraph import (
    BOTTOM,
    TOP,
    ConstructionError,
    GrowthKind,
    GrowthStage,
    PreconditionError,
    ball,
    build_dendrogram,
    build_graph,
    build_lake_dendrogram,
    dendrogram_flood,
    diameter,
    is_dendrogram,
    lake_growth_sequence,
    lowest_cocycle_edge,
    oracle_flood,
    query,
)

from strategies import edge_graphs, random_ceiling, rough_edge_graphs


def members_of(clusters):
    return {c.members for c in clusters}


# -- structure and construction ------------------------------------------------


def test_dendro_fixture_structure(dendro_fixture):
    dendro = dendro_fixture.dendro
    assert dendro.leaf_names == dendro_fixture.leaves
    assert len(dendro.clusters) == 11 + 8
    root = dendro.resolve(dendro_fixture.leaves)
    assert root.diam == 10 and root.father is None
    assert dendro.summits == (root,)
    inner = dendro.resolve(["b", "c", "d", "e"])
    assert inner.diam == 4
    assert dendro.resolve("g").is_leaf
    assert dendro.resolve("g").diam == BOTTOM


def test_resolve_accepts_many_spellings(dendro_fixture):
    dendro = dendro_fixture.dendro
    by_set = dendro.resolve(("g", "h"))
    assert dendro.resolve(by_set) == by_set
    assert dendro.resolve(by_set.index) == by_set
    with pytest.raises(PreconditionError):
        dendro.resolve(("a", "k"))
    with pytest.raises(PreconditionError):
        dendro.resolve(999)


def test_is_dendrogram():
    assert is_dendrogram([("a",), ("b",), ("a", "b")]) == (True, None)
    ok, culprit = is_dendrogram([("a", "b"), ("b", "c")])
    assert not ok
    assert culprit == (("a", "b"), ("b", "c"))


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
    assert [cluster.members for cluster in dendro.clusters] == [("a",), ("b",), ("c",), ("a", "b")]
    with pytest.raises(ConstructionError) as err:
        build_dendrogram(["a", "b", "c"], [(iter(["b", "zz"]), 1)])
    assert str(err.value) == "group member 'zz' is not a leaf"


# -- relations -------------------------------------------------------------------


def test_impred_is_the_father(dendro_fixture):
    dendro = dendro_fixture.dendro
    (father,) = query(dendro, "impred", ["b", "c", "d", "e"])
    assert father.members == ("b", "c", "d", "e", "f")
    assert query(dendro, "impred", dendro_fixture.leaves) == ()


def test_brothers_share_the_father(dendro_fixture):
    brothers = query(dendro_fixture.dendro, "brothers", ["g", "h"])
    assert members_of(brothers) == {("i",)}


def test_uncles_of_a_leaf(dendro_fixture):
    uncles = query(dendro_fixture.dendro, "uncles", "c")
    assert members_of(uncles) == {("a",), ("f",), ("g", "h", "i", "j", "k")}


def test_pred_chain_and_succ(dendro_fixture):
    dendro = dendro_fixture.dendro
    chain_up = query(dendro, "pred", "c")
    assert [c.members for c in chain_up] == [
        ("b", "c", "d", "e"),
        ("b", "c", "d", "e", "f"),
        ("a", "b", "c", "d", "e", "f"),
        dendro_fixture.leaves,
    ]
    below = query(dendro, "succ", ["g", "h", "i"])
    assert members_of(below) == {("g",), ("h",), ("i",), ("g", "h")}
    children = query(dendro, "imsucc", ["g", "h", "i"])
    assert members_of(children) == {("i",), ("g", "h")}


def test_summits_and_leaves_need_no_target(dendro_fixture):
    dendro = dendro_fixture.dendro
    assert query(dendro, "summits") == dendro.summits
    assert len(query(dendro, "leaves")) == 11


def test_query_rejects_bad_input(dendro_fixture):
    with pytest.raises(PreconditionError):
        query(dendro_fixture.dendro, "cousins", "c")
    with pytest.raises(PreconditionError):
        query(dendro_fixture.dendro, "pred")


# -- lake dendrograms ---------------------------------------------------------------


def test_chain_lake_dendrogram(chain):
    dendro = build_lake_dendrogram(chain.edge_graph)
    grouped = {c.members: c.diam for c in dendro.clusters if not c.is_leaf}
    assert grouped == {("c", "d", "e"): 2, ("a", "b", "c", "d", "e"): 4}


def test_chain_dendrogram_brothers_of_e(chain):
    dendro = build_lake_dendrogram(chain.edge_graph)
    assert members_of(query(dendro, "brothers", "e")) == {("c",), ("d",)}


def test_single_edge_lake_dendrogram():
    graph = build_graph(["p", "q"], [("p", "q")], edge_weights=[5])
    dendro = build_lake_dendrogram(graph)
    assert members_of(dendro.clusters) == {("p",), ("q",), ("p", "q")}
    assert dendro.resolve(("p", "q")).diam == 5


def test_realizing_tree_reproduces_the_fixture(dendro_fixture):
    rebuilt = build_lake_dendrogram(dendro_fixture.tree)
    expected = {tuple(m): d for m, d in dendro_fixture.groups}
    actual = {c.members: c.diam for c in rebuilt.clusters if not c.is_leaf}
    assert actual == expected


def test_disconnected_graph_grows_a_forest():
    graph = build_graph(
        ["a", "b", "c", "d"], [("a", "b"), ("c", "d")], edge_weights=[1, 2]
    )
    dendro = build_lake_dendrogram(graph)
    assert members_of(dendro.summits) == {("a", "b"), ("c", "d")}


@given(edge_graphs())
def test_cluster_diameters_match_the_metric(graph):
    dendro = build_lake_dendrogram(graph)
    for cluster in dendro.clusters:
        if len(cluster.members) > 1:
            assert diameter(graph, cluster.members) == cluster.diam


@given(edge_graphs())
def test_diam_strictly_increases_upward(graph):
    dendro = build_lake_dendrogram(graph)
    for cluster in dendro.clusters:
        if cluster.father is not None:
            assert dendro.clusters[cluster.father].diam > cluster.diam


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
    clusters = [(c.index, c.diam, c.father, c.children) for c in dendro.clusters]
    assert clusters == union_find_lake_clusters(graph)


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
    assert "missing leaf 'k'" in str(err.value)


@given(edge_graphs())
def test_dendrogram_flood_matches_the_closed_formula(graph):
    rng = random.Random(7 * len(graph.nodes) + len(graph.edges))
    omega = random_ceiling(rng, graph)
    dendro = build_lake_dendrogram(graph)
    lowest = {
        c.index: min(omega[name] for name in c.members) for c in dendro.clusters
    }
    expected = {}
    for leaf in dendro.leaf_names:
        probe = dendro.resolve(leaf)
        best = TOP
        while True:
            best = min(best, max(lowest[probe.index], probe.diam))
            if probe.father is None:
                break
            probe = dendro.clusters[probe.father]
        expected[leaf] = best
    assert dendrogram_flood(dendro, omega) == expected
    assert expected == oracle_flood(graph, omega)


# -- lake growth ------------------------------------------------------------------------


def test_lake_growth_from_the_deep_end(chain):
    stages = lake_growth_sequence(chain.edge_graph, "e")
    summary = [(s.nodes, s.kind, s.low, s.high) for s in stages]
    assert summary == [
        (("e",), GrowthKind.REGIONAL_MINIMUM, BOTTOM, 2),
        (("c", "d", "e"), GrowthKind.LAKE_ZONE, 2, 2),
        (("c", "d", "e"), GrowthKind.REGIONAL_MINIMUM, 2, 4),
        (("a", "b", "c", "d", "e"), GrowthKind.LAKE_ZONE, 4, 4),
    ]


def test_lake_growth_from_the_shallow_end(chain):
    stages = lake_growth_sequence(chain.edge_graph, "a")
    summary = [(s.nodes, s.kind, s.low, s.high) for s in stages]
    assert summary == [
        (("a",), GrowthKind.REGIONAL_MINIMUM, BOTTOM, 4),
        (("a", "b", "c", "d", "e"), GrowthKind.LAKE_ZONE, 4, 4),
    ]


def test_lake_growth_single_edge():
    graph = build_graph(["p", "q"], [("p", "q")], edge_weights=[5])
    stages = lake_growth_sequence(graph, "p")
    assert [(s.nodes, s.kind) for s in stages] == [
        (("p",), GrowthKind.REGIONAL_MINIMUM),
        (("p", "q"), GrowthKind.LAKE_ZONE),
    ]


def test_lake_growth_isolated_node():
    graph = build_graph(["lonely", "u", "v"], [("u", "v")], edge_weights=[1])
    stages = lake_growth_sequence(graph, "lonely")
    assert len(stages) == 1
    only = stages[0]
    assert only.nodes == ("lonely",)
    assert only.kind is GrowthKind.REGIONAL_MINIMUM
    assert (only.low, only.high) == (BOTTOM, TOP)


def per_stage_lake_growth(graph, node):
    """The former lake_growth_sequence: a ball and a lowest cocycle edge per stage."""
    component = set(ball(graph, node, TOP))
    stages = []
    region = ball(graph, node, BOTTOM)
    floor = BOTTOM
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


@settings(max_examples=300)
@given(rough_edge_graphs())
def test_lake_growth_matches_the_per_stage_loop(graph):
    for node in graph.nodes:
        assert lake_growth_sequence(graph, node) == per_stage_lake_growth(graph, node)
