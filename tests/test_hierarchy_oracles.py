"""Components and lake dendrograms against naive set-based references."""

from __future__ import annotations

from hypothesis import given, strategies as st

from floodgraph import (
    BOTTOM,
    TOP,
    build_graph,
    build_lake_dendrogram,
    connected_components,
)
from floodgraph.graphs import group_by_label


def naive_connected_components(graph, edge_filter=None):
    """O(n*k) reference: grow each block as a set, then rescan every node."""
    seen = set()
    components = []
    for start in graph.nodes:
        if start in seen:
            continue
        seen.add(start)
        block = {start}
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for neighbor, edge_id in graph.neighbors(node):
                if neighbor in block:
                    continue
                if edge_filter is not None and not edge_filter(edge_id):
                    continue
                block.add(neighbor)
                seen.add(neighbor)
                frontier.append(neighbor)
        components.append(tuple(node for node in graph.nodes if node in block))
    return components


@st.composite
def loose_graphs(draw, max_nodes=10, weights=st.integers(min_value=0, max_value=4)):
    """Possibly disconnected graphs, parallel edges allowed, names not sorted."""
    n = draw(st.integers(min_value=1, max_value=max_nodes))
    names = draw(st.permutations([f"v{i}" for i in range(n)]))
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
    edges = draw(st.lists(pairs, max_size=2 * n)) if n > 1 else []
    return build_graph(
        names,
        [(names[i], names[j]) for i, j in edges],
        edge_weights=[draw(weights) for _ in edges],
    )


@given(loose_graphs(), st.randoms(use_true_random=False))
def test_components_match_the_naive_reference(graph, rng):
    keep = [rng.random() < 0.6 for _ in range(len(graph.edges))]
    for kept, edge_filter in (([True] * len(keep), None), (keep, keep.__getitem__)):
        label, first = connected_components(graph, kept)
        assert label.typecode == "i" and len(label) == len(graph.nodes)
        groups = group_by_label(graph.nodes, label, len(first))
        assert groups == naive_connected_components(graph, edge_filter)
        assert [graph.nodes[node] for node in first] == [group[0] for group in groups]


dendro_weights = st.one_of(st.integers(min_value=0, max_value=3), st.sampled_from([BOTTOM, TOP]))


def members_by_father_chain(dendro):
    """Cluster index -> the leaves whose father chain reaches it, declaration order."""
    clusters = dendro.clusters
    members = {c.index: [] for c in clusters}
    for leaf in clusters:
        if leaf.children:
            continue
        probe = leaf
        while True:
            members[probe.index].append(dendro.graph.nodes[leaf.index])
            if probe.father is None:
                break
            probe = clusters[probe.father]
    return {index: tuple(names) for index, names in members.items()}


@given(loose_graphs(weights=dendro_weights))
def test_dendrogram_members_match_set_references(graph):
    dendro = build_lake_dendrogram(graph)
    expected = members_by_father_chain(dendro)
    for cluster in dendro.clusters:
        assert dendro.members(cluster.index) == expected[cluster.index]
        assert list(cluster.children) == sorted(cluster.children)
