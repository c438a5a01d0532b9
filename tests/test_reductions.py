"""Adjunctions, flat-zone contraction, and localized flooding."""

from __future__ import annotations

import heapq
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from floodgraph import (
    BOTTOM,
    TOP,
    ConstructionError,
    PreconditionError,
    build_graph,
    contract_close_flood,
    contract_flat_zones,
    core_expanding_flood,
    derive_edge_graph,
    distance_matrix,
    edge_dilation,
    edge_opening,
    expand,
    flat_zones,
    is_edge_flooding,
    local_flood,
    mst,
    mst_with_contraction,
    node_closing,
    node_erosion,
    up_hill,
    waterfall_flooding,
)

from floodgraph.graphs import dilation, index_graph
from floodgraph.ultrametric import find_root

from strategies import (
    ceiling_above,
    edge_graphs,
    node_graphs,
    rough_edge_graphs,
    rough_node_graph,
    rough_node_graphs,
    rough_up_hill_instances,
)


# -- adjunction ---------------------------------------------------------------


def test_edge_dilation_chain(chain):
    assert edge_dilation(chain.graph) == (4, 4, 2, 2)
    assert edge_dilation(chain.graph, chain.omega) == (5, 5, 3, 3)


def test_node_erosion_chain(chain):
    assert node_erosion(chain.edge_graph) == {"a": 4, "b": 4, "c": 2, "d": 2, "e": 2}


def test_node_erosion_isolated_node_gets_top():
    graph = build_graph(["a", "b", "c"], [("a", "b")], edge_weights=[3])
    assert node_erosion(graph) == {"a": 3, "b": 3, "c": TOP}


def test_node_erosion_weight_count_checked(chain):
    with pytest.raises(PreconditionError):
        node_erosion(chain.graph, (1, 2))


def test_closing_and_opening_chain(chain):
    assert node_closing(chain.graph) == {"a": 4, "b": 4, "c": 2, "d": 2, "e": 2}
    assert edge_opening(chain.edge_graph) == (4, 4, 2, 2)


@given(node_graphs(), st.randoms(use_true_random=False))
def test_dilation_erosion_adjunction(graph, rng):
    values = {node: rng.randrange(8) for node in graph.nodes}
    weights = tuple(rng.randrange(8) for _ in graph.edges)
    dilated = edge_dilation(graph, values)
    eroded = node_erosion(graph, weights)
    below = all(dilated[i] <= weights[i] for i in range(len(graph.edges)))
    under = all(values[n] <= eroded[n] for n in graph.nodes)
    assert below == under


@given(node_graphs())
def test_closing_is_extensive_and_idempotent(graph):
    closed = node_closing(graph)
    ground = graph.ground
    assert all(closed[n] >= ground[n] for n in graph.nodes)
    assert node_closing(graph, closed) == closed


def reference_node_closing(graph, values=None):
    """The former node_closing: dilate to the edges, erode back."""
    return node_erosion(graph, edge_dilation(graph, values))


def closing_outcome(closing, graph, values):
    try:
        closed = closing(graph, values)
    except PreconditionError as exc:
        return type(exc), str(exc)
    return list(closed.items())  # the node order too


@settings(max_examples=300)
@given(st.one_of(rough_node_graphs(), rough_edge_graphs()), st.randoms(use_true_random=False))
def test_node_closing_matches_the_adjunction(graph, rng):
    values = {node: rng.choice([BOTTOM, TOP, *range(6)]) for node in graph.nodes}
    unknown = {**values, "zz": 0}
    missing = dict(list(values.items())[1:])
    for given_values in (None, values, unknown, missing):
        expected = closing_outcome(reference_node_closing, graph, given_values)
        assert closing_outcome(node_closing, graph, given_values) == expected


@given(edge_graphs())
def test_opening_is_anti_extensive_and_idempotent(graph):
    opened = edge_opening(graph)
    weights = graph.edge_weights
    assert all(opened[i] <= weights[i] for i in range(len(weights)))
    assert edge_opening(graph, opened) == opened


# -- waterfall ------------------------------------------------------------------


def test_waterfall_fixtures(chain, tank):
    assert waterfall_flooding(tank.graph) == {"A": 1, "B": 1, "C": 3, "D": 2, "E": 2, "F": 6}
    assert waterfall_flooding(chain.edge_graph) == {"a": 4, "b": 4, "c": 2, "d": 2, "e": 2}


def test_waterfall_single_edge():
    graph = build_graph(["p", "q"], [("p", "q")], edge_weights=[7])
    assert waterfall_flooding(graph) == {"p": 7, "q": 7}


@given(edge_graphs(), st.randoms(use_true_random=False))
def test_joining_the_waterfall_preserves_validity_both_ways(graph, rng):
    eta = waterfall_flooding(graph)
    tau = {node: rng.randrange(14) for node in graph.nodes}
    lifted = {node: max(tau[node], eta[node]) for node in graph.nodes}
    assert is_edge_flooding(graph, tau).valid == is_edge_flooding(graph, lifted).valid


# -- contraction ------------------------------------------------------------------


def test_contract_strip_to_chain(strip):
    contracted, mapping, omega = contract_flat_zones(strip.graph, strip.omega)
    assert contracted.nodes == ("0,0", "0,2", "0,3", "0,4", "0,5")
    assert [contracted.ground[n] for n in contracted.nodes] == [0, 4, 1, 2, 0]
    assert [omega[n] for n in contracted.nodes] == [0, 5, 3, 3, 1]
    assert contracted.edges == (
        ("0,0", "0,2"),
        ("0,2", "0,3"),
        ("0,3", "0,4"),
        ("0,4", "0,5"),
    )
    assert mapping.blocks["0,0"] == ("0,0", "0,1")
    assert mapping.forward["0,1"] == "0,0"


def test_contract_chain_is_identity_up_to_blocks(chain):
    contracted, mapping, omega = contract_flat_zones(chain.graph, chain.omega)
    assert contracted.nodes == chain.graph.nodes
    assert contracted.edges == chain.graph.edges
    assert omega == chain.omega
    assert all(mapping.blocks[n] == (n,) for n in chain.graph.nodes)


def test_contract_without_ceiling_returns_none(strip):
    _, _, omega = contract_flat_zones(strip.graph)
    assert omega is None


def test_parallel_edges_keep_the_lowest_weight():
    graph = build_graph(
        ["a1", "a2", "b"],
        [("a1", "a2"), ("a1", "b"), ("a2", "b")],
        ground={"a1": 0, "a2": 0, "b": 1},
        edge_weights=[5, 9, 3],
    )
    contracted, _, _ = contract_flat_zones(graph)
    assert contracted.nodes == ("a1", "b")
    assert contracted.edges == (("a1", "b"),)
    assert contracted.edge_weights == (3,)


def test_expand_round_trip(strip):
    contracted, mapping, _ = contract_flat_zones(strip.graph)
    values = {node: i for i, node in enumerate(contracted.nodes)}
    pulled = mapping.expand(values)
    assert pulled["0,0"] == pulled["0,1"] == values["0,0"]
    assert expand(mapping, values) == pulled
    with pytest.raises(PreconditionError):
        mapping.expand({"0,0": 1})


def eager_contraction(graph, omega):
    """The contraction built by hand on names: zone pairs as name tuples,
    ``forward`` and ``blocks`` as eager dicts."""
    zones = flat_zones(graph)
    rep = {name: zone[0] for zone in zones for name in zone}
    forward = {name: rep[name] for name in graph.nodes}
    blocks = {zone[0]: zone for zone in zones}
    ends, weights = {}, {}
    for (u, v), weight in zip(graph.edges, graph.edge_weights):
        pair = forward[u], forward[v]
        if pair[0] == pair[1]:
            continue
        key = frozenset(pair)
        if key in ends:
            weights[key] = min(weights[key], weight)
        else:
            ends[key], weights[key] = pair, weight
    low = {rep: min(omega[name] for name in zone) for rep, zone in blocks.items()}
    return list(ends.values()), list(weights.values()), low, forward, blocks


@settings(max_examples=200)
@given(st.randoms(use_true_random=False))
def test_lazy_contraction_map_matches_the_eager_build(rng):
    graph = rough_node_graph(rng)
    graph = graph.with_edge_weights([rng.randint(0, 6) for _ in graph.edge_u])
    omega = ceiling_above(rng, graph)
    contracted, mapping, contracted_omega = contract_flat_zones(graph, omega)
    edges, weights, low, forward, blocks = eager_contraction(graph, omega)
    assert "forward" not in vars(mapping) and "blocks" not in vars(mapping)
    assert contracted.nodes == tuple(blocks)
    assert list(contracted.edges) == edges
    assert list(contracted.edge_weights) == weights
    assert list(contracted_omega.items()) == list(low.items())
    assert list(mapping.forward.items()) == list(forward.items())
    assert list(mapping.blocks.items()) == list(blocks.items())
    assert mapping.forward is mapping.forward and mapping.blocks is mapping.blocks
    values = {rep: rng.randint(0, 9) for rep in contracted.nodes}
    assert mapping.expand(values) == {name: values[rep] for name, rep in forward.items()}
    missing = dict(list(values.items())[1:])
    with pytest.raises(PreconditionError, match="contracted values is missing node"):
        mapping.expand(missing)


# -- contracted spanning trees -------------------------------------------------------


def test_mst_with_contraction_on_the_strip(strip):
    tree, mapping = mst_with_contraction(strip.graph)
    assert tree.nodes == ("0,0", "0,2", "0,3", "0,4", "0,5")
    assert tree.edges == (
        ("0,0", "0,2"),
        ("0,2", "0,3"),
        ("0,3", "0,4"),
        ("0,4", "0,5"),
    )
    assert tree.edge_weights == (4, 4, 2, 2)
    assert mapping.blocks["0,0"] == ("0,0", "0,1")


def test_contractions_build_no_name_index_until_one_is_asked_for(strip):
    contracted, mapping, _ = contract_flat_zones(strip.graph, strip.omega)
    tree, _ = mst_with_contraction(strip.graph)
    assert mapping.blocks and mapping.forward  # the maps read names by position, not by index
    for graph in (contracted, tree):
        assert graph._index is None
        assert "0,3" in graph and "0,1" not in graph
        assert graph.node_index("0,3") == 2
        assert graph._index == {"0,0": 0, "0,2": 1, "0,3": 2, "0,4": 3, "0,5": 4}


def test_mst_with_contraction_on_the_chain(chain):
    tree, mapping = mst_with_contraction(chain.graph)
    assert tree.edges == chain.graph.edges
    assert tree.edge_weights == (4, 4, 2, 2)
    assert all(mapping.blocks[n] == (n,) for n in chain.graph.nodes)


def union_find_mst_with_contraction(graph):
    """Prim with a union-find over the flat edges it takes (the former mst_with_contraction).

    The blocks are the union-find's components, rebuilt in node order;
    mst_with_contraction now reads them from the flat zones and must give
    the same tree, edge order, weights, ground, ``forward`` and ``blocks``.
    """
    ground = graph.ground_values
    derived = dilation(graph, ground)
    edge_u, edge_v = graph.edge_u, graph.edge_v
    offsets, adj_edge = graph.offsets, graph.adj_edge
    count = len(ground)
    parent = list(range(count))
    visited = [False] * count
    heap = []
    tree_edge_ids = []

    def visit(node):
        visited[node] = True
        for edge_id in adj_edge[offsets[node] : offsets[node + 1]]:
            flat = 0 if ground[edge_u[edge_id]] == ground[edge_v[edge_id]] else 1
            heapq.heappush(heap, (derived[edge_id], flat, edge_id))

    for start in range(count):
        if visited[start]:
            continue
        visit(start)
        while heap:
            _, flat, edge_id = heapq.heappop(heap)
            u, v = edge_u[edge_id], edge_v[edge_id]
            if visited[u] and visited[v]:
                continue
            visit(v if visited[u] else u)
            if flat == 0:
                low, high = sorted((find_root(parent, u), find_root(parent, v)))
                parent[high] = low  # the block keeps its first declared node
            else:
                tree_edge_ids.append(edge_id)

    names = graph.nodes
    roots = [find_root(parent, node) for node in range(count)]
    slot_of = {}  # block root -> tree node index
    members = []
    for name, root in zip(names, roots):
        if root not in slot_of:
            slot_of[root] = len(members)
            members.append([])
        members[slot_of[root]].append(name)
    reps = [names[root] for root in slot_of]
    tree = index_graph(
        reps,
        [slot_of[roots[edge_u[e]]] for e in tree_edge_ids],
        [slot_of[roots[edge_v[e]]] for e in tree_edge_ids],
        ground_values=(ground[root] for root in slot_of),
        edge_weights=(derived[e] for e in tree_edge_ids),
    )
    forward = {name: names[root] for name, root in zip(names, roots)}
    blocks = {rep: tuple(block) for rep, block in zip(reps, members)}
    return tree, forward, blocks


@settings(max_examples=300)
@given(rough_node_graphs())
def test_mst_with_contraction_matches_the_union_find(graph):
    tree, mapping = mst_with_contraction(graph)
    reference, forward, blocks = union_find_mst_with_contraction(graph)
    assert tree.nodes == reference.nodes
    assert tree.edges == reference.edges
    assert tree.edge_weights == reference.edge_weights
    assert tree.ground_values == reference.ground_values
    assert mapping.graph is tree
    assert list(mapping.forward.items()) == list(forward.items())
    assert list(mapping.blocks.items()) == list(blocks.items())


@given(node_graphs())
def test_mst_with_contraction_matches_contract_then_mst(graph):
    tree, mapping = mst_with_contraction(graph)
    contracted, second, _ = contract_flat_zones(graph)
    assert set(tree.nodes) == set(contracted.nodes)
    assert mapping.blocks == second.blocks
    assert mapping.forward == second.forward
    reference = mst(derive_edge_graph(contracted))
    assert distance_matrix(tree).table == distance_matrix(reference).table


# -- contract + close + flood ----------------------------------------------------------


def test_contract_close_flood_fixtures(chain, strip):
    assert contract_close_flood(chain.graph, chain.omega) == chain.tau
    assert contract_close_flood(strip.graph, strip.omega) == strip.tau


def test_contract_close_flood_rejects_low_ceiling(chain):
    with pytest.raises(PreconditionError) as err:
        contract_close_flood(chain.graph, {**chain.omega, "d": 1})
    assert "below the ground at node 'd'" in str(err.value)


@given(node_graphs())
def test_contract_close_flood_matches_the_direct_solver(graph):
    rng = random.Random(37 * len(graph.nodes) + len(graph.edges))
    omega = ceiling_above(rng, graph)
    assert contract_close_flood(graph, omega) == core_expanding_flood(graph, omega).tau


# -- local flooding ----------------------------------------------------------------------


def test_local_flood_chain(chain):
    assert local_flood(chain.graph, chain.omega, "c") == 2
    assert local_flood(chain.graph, chain.omega, "b") == 4
    for node in chain.graph.nodes:
        assert local_flood(chain.graph, chain.omega, node) == chain.tau[node]


def test_local_flood_open_sky_far_away(chain):
    omega = {node: TOP for node in chain.graph.nodes}
    omega["e"] = 1
    assert local_flood(chain.graph, omega, "a") == 4
    assert local_flood(chain.graph, omega, "e") == 1


def test_local_flood_rejects_low_ceiling(chain):
    with pytest.raises(PreconditionError):
        local_flood(chain.graph, {**chain.omega, "b": 1}, "b")


# -- uphill flooding -----------------------------------------------------------------------


def test_up_hill_from_the_low_valley(chain):
    new_levels = up_hill(chain.graph, chain.omega, {"a"})
    assert new_levels == {"b": 4, "c": 2, "d": 2, "e": 1}


def test_up_hill_pauses_at_an_inner_ceiling():
    graph = build_graph(
        ["a", "b", "c", "d"],
        [("a", "b"), ("b", "c"), ("c", "d")],
        ground={"a": 0, "b": 1, "c": 2, "d": 0},
    )
    omega = {"a": TOP, "b": 1, "c": TOP, "d": 1}
    assert up_hill(graph, omega, {"d"}) == {"a": 1, "b": 1, "c": 2}


def test_up_hill_respects_the_cap(chain):
    assert up_hill(chain.graph, chain.omega, {"a"}, cap=3) == {}


def test_up_hill_rejects_bad_regions(chain):
    with pytest.raises(PreconditionError):
        up_hill(chain.graph, chain.omega, set())
    with pytest.raises(ConstructionError):
        up_hill(chain.graph, chain.omega, {"zzz"})


def test_up_hill_rejects_bad_ceilings(chain):
    with pytest.raises(PreconditionError, match="below the ground at node 'b'"):
        up_hill(chain.graph, {**chain.omega, "b": 1}, {"a"})
    with pytest.raises(PreconditionError, match="ceiling defined on unknown node 'zz'"):
        up_hill(chain.graph, {**chain.omega, "zz": 1}, {"a"})


def frames_up_hill(graph, omega, region, cap=TOP):
    """Spill frames over breadth-first basins (the former up_hill).

    A frame spills its area through the lowest pass to an unclaimed node,
    up to its limit; each valley below the spill fills to it, or first to
    its lowest ceiling, whose pool then spills on as a frame of its own.
    up_hill now runs the min-max kernel twice and must give the same
    levels in the same key order.  Takes valid input only.
    """
    ground = graph.ground_values
    ceiling = [omega[node] for node in graph.nodes]
    seeds = [graph.node_index(node) for node in region]
    offsets, adj_node = graph.offsets, graph.adj_node

    def neighbors(node):
        return adj_node[offsets[node] : offsets[node + 1]]

    def pass_height(x, q):
        return max(ground[x], ground[q])

    claimed = set(seeds)
    levels = {}

    def claim(q, level):
        claimed.add(q)
        levels[q] = level

    def basin(start, reached, allowed, height):
        found = [start]
        reached.add(start)
        queue = deque(found)
        while queue:
            y = queue.popleft()
            for r in neighbors(y):
                if allowed(r) and r not in reached and pass_height(y, r) <= height:
                    reached.add(r)
                    found.append(r)
                    queue.append(r)
        return sorted(found)

    frames = [(frozenset(seeds), cap)]
    while frames:
        area, limit = frames.pop()
        spill = TOP
        for x in area:
            for q in neighbors(x):
                if q not in claimed:
                    spill = min(spill, pass_height(x, q))
        if spill == TOP or spill > limit:
            continue

        reached = set()
        valleys = []
        for x in sorted(area):
            for q in neighbors(x):
                if q not in claimed and q not in reached and pass_height(x, q) <= spill:
                    valleys.append(basin(q, reached, lambda r: r not in claimed, spill))

        frames.append((frozenset(area | reached), limit))
        followups = []
        for valley in valleys:
            lowest = min(valley, key=ceiling.__getitem__)
            low = ceiling[lowest]
            if low >= spill:
                for z in valley:
                    claim(z, spill)
                continue
            pool = basin(lowest, set(), set(valley).__contains__, low)
            for z in pool:
                claim(z, low)
            followups.append((frozenset(pool), spill))
        frames.extend(reversed(followups))

    return {graph.nodes[node]: levels[node] for node in sorted(levels)}


@settings(max_examples=300)
@given(rough_up_hill_instances())
def test_up_hill_matches_the_spill_frames(instance):
    graph, omega, region, cap = instance
    levels = up_hill(graph, omega, region, cap)
    expected = frames_up_hill(graph, omega, region, cap)
    assert levels == expected
    assert list(levels) == list(expected)
