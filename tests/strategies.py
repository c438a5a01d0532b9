"""Random instance builders shared by the property and acceptance tests.

The plain ``random.Random`` builders produce the large seeded pools used by
the acceptance suite; the hypothesis composites draw the same shapes for the
per-module property tests.  Every generated graph is connected (a random
spanning tree plus a few extra edges), because most flooding statements are
about connected terrain; the ``rough`` generators are the exception, for
solvers that must also cope with disconnected graphs, parallel edges and
infinite weights.
"""

from __future__ import annotations

import random

from hypothesis import strategies as st

from floodgraph import BOTTOM, TOP, Graph, build_graph


def _skeleton(rng: random.Random, max_nodes: int) -> tuple[list[str], list[tuple[str, str]]]:
    """Connected random skeleton: a spanning tree plus up to n extra edges."""
    n = rng.randint(2, max_nodes)
    names = [f"n{i}" for i in range(n)]
    seen: set[tuple[int, int]] = set()
    order: list[tuple[int, int]] = []

    def add(i: int, j: int) -> None:
        key = (min(i, j), max(i, j))
        if i != j and key not in seen:
            seen.add(key)
            order.append(key)

    for i in range(1, n):
        add(rng.randrange(i), i)
    for _ in range(rng.randint(0, n)):
        add(rng.randrange(n), rng.randrange(n))
    return names, [(names[i], names[j]) for i, j in order]


def connected_edge_graph(rng: random.Random, max_nodes: int = 12, max_weight: int = 15) -> Graph:
    names, edges = _skeleton(rng, max_nodes)
    weights = [rng.randint(0, max_weight) for _ in edges]
    return build_graph(names, edges, edge_weights=weights)


def connected_node_graph(rng: random.Random, max_nodes: int = 12, max_ground: int = 4) -> Graph:
    names, edges = _skeleton(rng, max_nodes)
    ground = {name: rng.randint(0, max_ground) for name in names}
    return build_graph(names, edges, ground=ground)


def rough_edge_graph(rng: random.Random, max_nodes: int = 10, max_weight: int = 6) -> Graph:
    """Random edges, parallel ones allowed, over possibly several components.

    Weights are drawn from 0..max_weight plus the infinities -inf and inf.
    """
    n = rng.randint(1, max_nodes)
    names = [f"n{i}" for i in range(n)]
    edges = []
    for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        edges.append((names[i], names[j]))
    levels = [BOTTOM, TOP, *range(max_weight + 1)]
    return build_graph(names, edges, edge_weights=[rng.choice(levels) for _ in edges])


def random_ceiling(
    rng: random.Random, graph: Graph, max_weight: int = 15, finite_chance: float = 0.5
) -> dict:
    return {
        node: rng.randint(0, max_weight) if rng.random() < finite_chance else TOP
        for node in graph.nodes
    }


def ceiling_above(rng: random.Random, graph: Graph, slack: int = 6, top_chance: float = 0.4) -> dict:
    """A ceiling that sits on or above the ground everywhere."""
    ground = graph.require_ground("ceiling_above")
    return {
        node: TOP if rng.random() < top_chance else ground[node] + rng.randint(0, slack)
        for node in graph.nodes
    }


def tau_above_ground(rng: random.Random, graph: Graph, slack: int = 3) -> dict:
    ground = graph.require_ground("tau_above_ground")
    return {node: ground[node] + rng.randint(0, slack) for node in graph.nodes}


def marker_instance(
    rng: random.Random, max_nodes: int = 12, max_weight: int = 15
) -> tuple[Graph, dict]:
    graph = connected_edge_graph(rng, max_nodes=max_nodes, max_weight=max_weight)
    count = rng.randint(2, min(4, len(graph.nodes)))
    picks = sorted(rng.sample(range(len(graph.nodes)), count))
    markers = {graph.nodes[i]: rank + 1 for rank, i in enumerate(picks)}
    return graph, markers


@st.composite
def edge_graphs(draw, max_nodes: int = 8, max_weight: int = 12) -> Graph:
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return connected_edge_graph(random.Random(seed), max_nodes=max_nodes, max_weight=max_weight)


@st.composite
def node_graphs(draw, max_nodes: int = 8, max_ground: int = 5) -> Graph:
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return connected_node_graph(random.Random(seed), max_nodes=max_nodes, max_ground=max_ground)


@st.composite
def flood_instances(draw, max_nodes: int = 8, max_weight: int = 12) -> tuple[Graph, dict]:
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    graph = connected_edge_graph(rng, max_nodes=max_nodes, max_weight=max_weight)
    return graph, random_ceiling(rng, graph, max_weight=max_weight)


@st.composite
def rough_edge_graphs(draw, max_nodes: int = 10, max_weight: int = 6) -> Graph:
    """A rough edge graph: possibly disconnected, parallel edges, infinite weights."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return rough_edge_graph(random.Random(seed), max_nodes=max_nodes, max_weight=max_weight)


@st.composite
def rough_flood_instances(draw, max_nodes: int = 10, max_weight: int = 6) -> tuple[Graph, dict]:
    """A rough edge graph and a ceiling over 0..max_weight, -inf and inf."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    graph = rough_edge_graph(rng, max_nodes=max_nodes, max_weight=max_weight)
    levels = [BOTTOM, TOP, TOP, *range(max_weight + 1)]
    return graph, {node: rng.choice(levels) for node in graph.nodes}
