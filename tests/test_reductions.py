"""Adjunctions, flat-zone contraction, and localized flooding."""

from __future__ import annotations

import random
from collections import Counter, deque
from unittest.mock import patch

import pytest
from hypothesis import assume, given, settings, strategies as st

from floodgraph import (
    BOTTOM,
    TOP,
    PreconditionError,
    build_graph,
    contract_close_flood,
    contract_flat_zones,
    core_expanding_flood,
    flat_zones,
    grid_graph,
    is_edge_flooding,
    local_flood,
    regional_minima,
    waterfall_flooding,
)

from floodgraph import reductions
from floodgraph.graphs import dilation, group_by_label, index_graph
from floodgraph.ultrametric import Funnel

from strategies import (
    ceiling_above,
    edge_graphs,
    ground_of,
    node_graphs,
    rough_node_flood_instances,
    rough_node_graph,
    rough_node_graphs,
)


# -- adjunction ---------------------------------------------------------------


def levels(graph, values):
    return [values[node] for node in graph.nodes]


def edge_opening(graph):
    """Opening on edge weights: erode to the nodes, dilate back."""
    return dilation(graph, levels(graph, waterfall_flooding(graph)))


def reference_node_closing(graph):
    """Closing on the ground, the relief ``contract_close_flood`` floods: dilate to
    the edges, erode back."""
    return waterfall_flooding(graph.with_edge_weights(dilation(graph, graph.ground_values)))


def test_edge_dilation_chain(chain):
    assert dilation(chain.graph, chain.graph.ground_values) == (4, 4, 2, 2)
    assert dilation(chain.graph, levels(chain.graph, chain.omega)) == (5, 5, 3, 3)


def test_closing_and_opening_chain(chain):
    assert reference_node_closing(chain.graph) == {"a": 4, "b": 4, "c": 2, "d": 2, "e": 2}
    assert edge_opening(chain.edge_graph) == (4, 4, 2, 2)


@given(node_graphs(), st.randoms(use_true_random=False))
def test_dilation_erosion_adjunction(graph, rng):
    values = {node: rng.randrange(8) for node in graph.nodes}
    weights = tuple(rng.randrange(8) for _ in graph.edges)
    dilated = dilation(graph, levels(graph, values))
    eroded = waterfall_flooding(graph.with_edge_weights(weights))
    below = all(dilated[i] <= weights[i] for i in range(len(graph.edges)))
    under = all(values[n] <= eroded[n] for n in graph.nodes)
    assert below == under


@given(rough_node_graphs(), st.sampled_from([BOTTOM, 0, 3, TOP]))
def test_closing_dilates_like_the_ground(graph, lone):
    """Dilating the closing gives the dilation of the ground (dilating,
    eroding and dilating again is dilating), an isolated node included."""
    ground = {**ground_of(graph), "lone": lone}
    graph = build_graph([*graph.nodes, "lone"], graph.edges, ground=ground)
    closed = reference_node_closing(graph)
    assert closed["lone"] == TOP
    assert dilation(graph, levels(graph, closed)) == dilation(graph, graph.ground_values)


@given(node_graphs())
def test_closing_is_extensive_and_idempotent(graph):
    closed = reference_node_closing(graph)
    ground = ground_of(graph)
    assert all(closed[n] >= ground[n] for n in graph.nodes)
    assert reference_node_closing(build_graph(graph.nodes, graph.edges, ground=closed)) == closed


@given(edge_graphs())
def test_opening_is_anti_extensive_and_idempotent(graph):
    opened = edge_opening(graph)
    weights = graph.edge_weights
    assert all(opened[i] <= weights[i] for i in range(len(weights)))
    assert edge_opening(graph.with_edge_weights(opened)) == opened


# -- waterfall ------------------------------------------------------------------


def test_waterfall_fixtures(chain, tank):
    assert waterfall_flooding(tank.graph) == {"A": 1, "B": 1, "C": 3, "D": 2, "E": 2, "F": 6}
    assert waterfall_flooding(chain.edge_graph) == {"a": 4, "b": 4, "c": 2, "d": 2, "e": 2}


def test_waterfall_single_edge():
    graph = build_graph(["p", "q"], [("p", "q")], edge_weights=[7])
    assert waterfall_flooding(graph) == {"p": 7, "q": 7}


def test_waterfall_isolated_node_gets_top():
    graph = build_graph(["a", "b", "c"], [("a", "b")], edge_weights=[3])
    assert waterfall_flooding(graph) == {"a": 3, "b": 3, "c": TOP}


@given(edge_graphs())
def test_waterfall_is_the_node_erosion(graph):
    """Each node's lowest incident edge weight, read off the named edge list."""
    lowest = dict.fromkeys(graph.nodes, TOP)
    for (u, v), weight in zip(graph.edges, graph.edge_weights):
        lowest[u], lowest[v] = min(lowest[u], weight), min(lowest[v], weight)
    assert waterfall_flooding(graph) == lowest


@given(edge_graphs(), st.randoms(use_true_random=False))
def test_joining_the_waterfall_preserves_validity_both_ways(graph, rng):
    eta = waterfall_flooding(graph)
    tau = {node: rng.randrange(14) for node in graph.nodes}
    lifted = {node: max(tau[node], eta[node]) for node in graph.nodes}
    assert bool(is_edge_flooding(graph, tau)) == bool(is_edge_flooding(graph, lifted))


# -- contraction ------------------------------------------------------------------


def test_contract_strip_to_chain(strip):
    contracted, mapping, omega = contract_flat_zones(strip.graph, strip.omega)
    assert contracted.nodes == ("0,0", "0,2", "0,3", "0,4", "0,5")
    assert list(contracted.ground_values) == [0, 4, 1, 2, 0]
    assert [omega[n] for n in contracted.nodes] == [0, 5, 3, 3, 1]
    assert contracted.edges == (
        ("0,0", "0,2"),
        ("0,2", "0,3"),
        ("0,3", "0,4"),
        ("0,4", "0,5"),
    )
    assert mapping.blocks["0,0"] == ("0,0", "0,1")
    assert contracted.nodes[mapping.zone_of[1]] == "0,0"


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
    with pytest.raises(PreconditionError):
        mapping.expand({"0,0": 1})


def eager_contraction(graph, omega):
    """The contraction built by hand on names: zone pairs as name tuples,
    each node's zone and the ``blocks`` as eager dicts."""
    label, first = flat_zones(graph, ground_of(graph))
    zones = group_by_label(graph.nodes, label, len(first))
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
    assert "blocks" not in vars(mapping)
    assert contracted.nodes == tuple(blocks)
    assert list(contracted.edges) == edges
    assert list(contracted.edge_weights) == weights
    assert list(contracted_omega.items()) == list(low.items())
    assert [contracted.nodes[zone] for zone in mapping.zone_of] == list(forward.values())
    assert list(mapping.blocks.items()) == list(blocks.items())
    assert mapping.blocks is mapping.blocks
    values = {rep: rng.randint(0, 9) for rep in contracted.nodes}
    assert mapping.expand(values) == {name: values[rep] for name, rep in forward.items()}
    missing = dict(list(values.items())[1:])
    with pytest.raises(PreconditionError, match="contracted values is missing node"):
        mapping.expand(missing)


def test_contractions_build_no_name_index_until_one_is_asked_for(strip):
    contracted, mapping, _ = contract_flat_zones(strip.graph, strip.omega)
    assert mapping.blocks  # the map reads names by position, not by index
    assert contracted._index is None
    assert "0,3" in contracted and "0,1" not in contracted
    assert contracted.node_index("0,3") == 2
    assert contracted._index == {"0,0": 0, "0,2": 1, "0,3": 2, "0,4": 3, "0,5": 4}


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


@settings(max_examples=200)
@given(st.randoms(use_true_random=False))
def test_contract_close_flood_under_a_mostly_open_sky(rng):
    """Nine ceilings in ten are top: only the other zones seed the flood."""
    graph = rough_node_graph(rng)
    omega = ceiling_above(rng, graph, top_chance=0.9)
    assert contract_close_flood(graph, omega) == core_expanding_flood(graph, omega).tau


def test_contract_close_flood_caps_a_minimum_below_its_closing():
    graph = build_graph(["a", "b", "c"], [("a", "b"), ("b", "c")], ground={"a": 0, "b": 0, "c": 5})
    omega = {"a": 2, "b": TOP, "c": TOP}
    zones, _, _ = contract_flat_zones(graph)
    assert reference_node_closing(zones) == {"a": 5, "c": 5} and omega["a"] < 5  # the cap sets "a"
    assert contract_close_flood(graph, omega) == {"a": 2, "b": 2, "c": 5}
    assert core_expanding_flood(graph, omega).tau == {"a": 2, "b": 2, "c": 5}


@settings(max_examples=200)
@given(st.randoms(use_true_random=False))
def test_contract_close_flood_caps_every_minimum_below_its_closing(rng):
    """Each regional minimum's ceiling is its ground, below its closing
    wherever a neighbor is higher; every other node is open to the sky."""
    graph = rough_node_graph(rng)
    ground = ground_of(graph)
    omega = dict.fromkeys(graph.nodes, TOP)
    for zone in regional_minima(graph, ground):
        omega[zone[-1]] = ground[zone[-1]]
    assert contract_close_flood(graph, omega) == core_expanding_flood(graph, omega).tau


@settings(max_examples=100)
@given(
    st.lists(st.integers(0, 3), min_size=2, max_size=6),
    st.integers(2, 6),
    st.sampled_from((4, 8)),
    st.randoms(use_true_random=False),
)
def test_contract_close_flood_on_terraces(rows, width, connectivity, rng):
    """Each row is flat, so two unequal adjacent rows are two zones joined by
    ``width`` parallel cross edges or more, each listed once per edge."""
    assume(any(a != b for a, b in zip(rows, rows[1:])))
    graph = grid_graph([[level] * width for level in rows], connectivity)
    omega = ceiling_above(rng, graph)
    assert contract_close_flood(graph, omega) == core_expanding_flood(graph, omega).tau


@given(node_graphs(max_ground=0), st.randoms(use_true_random=False))
def test_contract_close_flood_on_one_single_zone(graph, rng):
    """No cross edge at all: the one zone has no closing and stands at its lowest ceiling."""
    omega = ceiling_above(rng, graph)
    tau = contract_close_flood(graph, omega)
    assert tau == core_expanding_flood(graph, omega).tau
    assert set(tau.values()) == {min(omega.values())}


@given(node_graphs(), st.integers(1, 4), st.integers(0, 5), st.randoms(use_true_random=False))
def test_contract_close_flood_with_a_zone_that_has_no_cross_edge(graph, size, level, rng):
    """A flat path of ``size`` nodes, a component of its own beside a connected graph."""
    lone = [f"z{i}" for i in range(size)]
    joined = build_graph(
        [*graph.nodes, *lone],
        [*graph.edges, *zip(lone, lone[1:])],
        ground={**ground_of(graph), **dict.fromkeys(lone, level)},
    )
    omega = ceiling_above(rng, joined)
    tau = contract_close_flood(joined, omega)
    assert tau == core_expanding_flood(joined, omega).tau
    assert {tau[node] for node in lone} == {min(omega[node] for node in lone)}


@given(rough_node_graphs())
def test_contract_close_flood_under_an_all_top_ceiling(graph):
    """No zone is fed: nothing is closed or flooded, and every node stays at top."""
    omega = dict.fromkeys(graph.nodes, TOP)
    tau = contract_close_flood(graph, omega)
    assert tau == core_expanding_flood(graph, omega).tau == omega


@given(rough_node_graphs(), st.randoms(use_true_random=False))
def test_contract_close_flood_caps_a_fed_zone_below_its_closing(graph, rng):
    """The ceiling is the ground at about half of the nodes, so a fed zone whose
    neighbours all stand higher holds a ceiling below its closing."""
    ground = ground_of(graph)
    omega = {node: ground[node] if rng.random() < 0.5 else TOP for node in graph.nodes}
    zones, _, low = contract_flat_zones(graph, omega)
    closing = reference_node_closing(zones)
    assume(any(low[zone] < closing[zone] < TOP for zone in zones.nodes))
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


@settings(max_examples=200)
@given(rough_node_flood_instances())
def test_local_flood_matches_the_global_flood_on_rough_instances(instance):
    """Disconnected graphs, parallel edges and infinite grounds and ceilings."""
    graph, omega = instance
    tau = core_expanding_flood(graph, omega).tau
    for node in graph.nodes:
        assert local_flood(graph, omega, node) == tau[node]


@settings(max_examples=200)
@given(rough_node_flood_instances())
def test_local_flood_pushes_no_node_twice(instance):
    """q offers r the level f_r v lam_q, and levels leave in nondecreasing
    order, so a node's first candidate is its least: no entry goes stale."""
    graph, omega = instance
    tau = core_expanding_flood(graph, omega).tau
    pushes: Counter = Counter()

    class Bucket(deque):
        def append(self, item):
            pushes[item] += 1
            super().append(item)

    class CountingFunnel(Funnel):
        def __missing__(self, priority):
            super().__missing__(priority)
            bucket = self[priority] = Bucket()
            return bucket

    for node in graph.nodes:
        pushes.clear()
        with patch.object(reductions, "Funnel", CountingFunnel):
            assert local_flood(graph, omega, node) == tau[node]
        assert set(pushes.values()) == {1}, pushes


class Counting:
    """A sequence that records every index read from it."""

    def __init__(self, items):
        self.items, self.read = items, set()

    def __len__(self):
        return len(self.items)

    def __getitem__(self, index):
        self.read.add(index)
        return self.items[index]


def test_local_flood_stops_at_its_witness_on_a_plateau():
    """The neighbour's ceiling meets the plateau's level: the search ends one layer out."""
    g = grid_graph([[5] * 100 for _ in range(100)])
    offsets, adj_node, adj_edge = g.incidences()
    counting = Counting(offsets)
    graph = index_graph(
        g.nodes, g.edge_u, g.edge_v, g.ground_values, csr=(counting, adj_node, adj_edge)
    )
    omega = dict.fromkeys(graph.nodes, TOP)
    omega["50,51"] = 5
    assert local_flood(graph, omega, "50,50") == 5
    assert len(counting.read) <= 16
