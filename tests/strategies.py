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


def shuffled_path(rng: random.Random, n: int) -> tuple[Graph, dict]:
    """A path p0 - p1 - ... with weights 0..9, its nodes declared in shuffled
    order, and a ceiling that is 0 at p0 and top elsewhere.

    In a gauss_seidel sweep, Berge's water front moves along the path only
    as far as one run of the declaration order, so full sweeps take about
    two thirds of n sweeps; under jacobi it moves one node a sweep."""
    order = list(range(n))
    rng.shuffle(order)
    names = [f"p{i}" for i in order]
    edges = [(f"p{i}", f"p{i + 1}") for i in range(n - 1)]
    graph = build_graph(names, edges, edge_weights=[i % 10 for i in range(n - 1)])
    return graph, {name: 0 if name == "p0" else TOP for name in names}


def _rough_skeleton(rng: random.Random, max_nodes: int) -> tuple[list[str], list[tuple[str, str]]]:
    """Random edges, parallel ones allowed, over possibly several components."""
    n = rng.randint(1, max_nodes)
    names = [f"n{i}" for i in range(n)]
    edges = []
    for _ in range(rng.randint(0, 2 * n) if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        edges.append((names[i], names[j]))
    return names, edges


def rough_edge_graph(rng: random.Random, max_nodes: int = 10, max_weight: int = 6) -> Graph:
    """A rough skeleton with weights from 0..max_weight plus -inf and inf."""
    names, edges = _rough_skeleton(rng, max_nodes)
    levels = [BOTTOM, TOP, *range(max_weight + 1)]
    return build_graph(names, edges, edge_weights=[rng.choice(levels) for _ in edges])


def rough_node_graph(rng: random.Random, max_nodes: int = 10, max_ground: int = 4) -> Graph:
    """A rough skeleton with a ground from 0..max_ground plus -inf and inf."""
    names, edges = _rough_skeleton(rng, max_nodes)
    levels = [BOTTOM, TOP, *range(max_ground + 1)]
    return build_graph(names, edges, ground={name: rng.choice(levels) for name in names})


def random_ceiling(
    rng: random.Random, graph: Graph, max_weight: int = 15, finite_chance: float = 0.5
) -> dict:
    return {
        node: rng.randint(0, max_weight) if rng.random() < finite_chance else TOP
        for node in graph.nodes
    }


def ground_of(graph: Graph) -> dict:
    """The ground by node name."""
    return dict(zip(graph.nodes, graph.ground_values))


def ceiling_above(rng: random.Random, graph: Graph, slack: int = 6, top_chance: float = 0.4) -> dict:
    """A ceiling that sits on or above the ground everywhere."""
    graph.require_ground_values("ceiling_above")
    ground = ground_of(graph)
    return {
        node: TOP if rng.random() < top_chance else ground[node] + rng.randint(0, slack)
        for node in graph.nodes
    }


def tau_above_ground(rng: random.Random, graph: Graph, slack: int = 3) -> dict:
    graph.require_ground_values("tau_above_ground")
    ground = ground_of(graph)
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


@st.composite
def rough_node_graphs(draw, max_nodes: int = 10, max_ground: int = 4) -> Graph:
    """A rough node graph: possibly disconnected, parallel edges, infinite grounds."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return rough_node_graph(random.Random(seed), max_nodes=max_nodes, max_ground=max_ground)


def _rough_ceiling_above(rng: random.Random, graph: Graph, levels: list) -> dict:
    """A ceiling drawn from ``levels`` that sits on or above the ground."""
    return {
        node: rng.choice([level for level in levels if level >= floor])
        for node, floor in zip(graph.nodes, graph.ground_values)
    }


@st.composite
def rough_node_flood_instances(draw, max_nodes: int = 10, max_ground: int = 4) -> tuple:
    """A rough node graph and a ceiling on or above its ground, -inf and inf included."""
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    rng = random.Random(seed)
    graph = rough_node_graph(rng, max_nodes=max_nodes, max_ground=max_ground)
    return graph, _rough_ceiling_above(rng, graph, [BOTTOM, TOP, TOP, *range(max_ground + 3)])
