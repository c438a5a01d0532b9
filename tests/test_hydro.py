"""Hydrostatic validity, lakes, flat zones, and the flooding lattice."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodgraph import (
    BOTTOM,
    TOP,
    PreconditionError,
    ValidationReport,
    build_graph,
    core_expanding_flood,
    derive_edge_graph,
    dijkstra_flood,
    flat_zones,
    grid_graph,
    is_edge_flooding,
    is_node_flooding,
    join,
    lakes,
    regional_minima,
)
from floodgraph.graphs import group_by_label

from strategies import (
    ceiling_above,
    ground_of,
    node_graphs,
    rough_flood_instances,
    rough_node_flood_instances,
)


# -- validity ----------------------------------------------------------------


def test_fixture_flooding_is_valid(chain):
    assert is_node_flooding(chain.graph, chain.tau)
    assert is_edge_flooding(chain.edge_graph, chain.tau)


def test_dry_surface_is_a_flooding(chain):
    assert is_node_flooding(chain.graph, ground_of(chain.graph))


def test_water_must_rest_on_ground(chain):
    tau = {"a": 0, "b": 4, "c": 3, "d": 2, "e": 1}
    report = is_node_flooding(chain.graph, tau)
    assert not report
    assert any("edge (c,d)" in v and "hangs above" in v for v in report.violations)


def test_water_below_ground_is_reported(chain):
    tau = {**chain.tau, "b": 3}
    report = is_node_flooding(chain.graph, tau)
    assert not report
    assert any("node b" in v and "below ground" in v for v in report.violations)


def test_tank_flooding_is_valid(tank):
    assert is_edge_flooding(tank.graph, tank.tau)


def test_raised_tank_overflows_its_pipe(tank):
    report = is_edge_flooding(tank.graph, {**tank.tau, "D": 4})
    assert not report
    assert "edge (C,D): tau_D=4 exceeds tau_C v e = 3" in report.violations[0]


def test_report_is_truthy_only_when_valid(tank):
    good = is_edge_flooding(tank.graph, tank.tau)
    assert bool(good) and good.violations == ()


def two_way_node_check(graph, tau):
    """`is_node_flooding` with each edge tried in both directions, the first way it was written."""
    ground, names = graph.ground_values, graph.nodes
    levels = [tau[node] for node in names]
    violations = [
        f"node {names[node]}: tau={level} below ground {floor}"
        for node, (level, floor) in enumerate(zip(levels, ground))
        if level < floor
    ]
    for u, v in zip(graph.edge_u, graph.edge_v):
        for p, q in ((u, v), (v, u)):
            if levels[p] > levels[q] and levels[p] != ground[p]:
                violations.append(
                    f"edge ({names[u]},{names[v]}): tau_{names[p]}={levels[p]} "
                    f"hangs above tau_{names[q]}={levels[q]} "
                    "without resting on ground"
                )
    return ValidationReport(tuple(violations))


def two_way_edge_check(graph, tau):
    """`is_edge_flooding` with each edge tried in both directions, the first way it was written."""
    names = graph.nodes
    levels = [tau[node] for node in names]
    violations = []
    for u, v, e in zip(graph.edge_u, graph.edge_v, graph.edge_weights):
        for p, q in ((u, v), (v, u)):
            if levels[p] > levels[q] and levels[p] > e:
                violations.append(
                    f"edge ({names[u]},{names[v]}): tau_{names[p]}={levels[p]} "
                    f"exceeds tau_{names[q]} v e = {join(levels[q], e)}"
                )
    return ValidationReport(tuple(violations))


_LEVELS = [BOTTOM, TOP, *range(8)]


@st.composite
def broken_floodings(draw, instances, flood):
    """A valid flooding with one endpoint of one edge, the ``u`` or the ``v`` one, reset."""
    graph, omega = draw(instances)
    tau = dict(flood(graph, omega))
    if graph.edge_u:
        edge_id = draw(st.integers(0, len(graph.edge_u) - 1))
        side = draw(st.sampled_from((graph.edge_u, graph.edge_v)))
        tau[graph.nodes[side[edge_id]]] = draw(st.sampled_from(_LEVELS))
    return graph, tau


@settings(max_examples=300)
@given(
    broken_floodings(rough_flood_instances(), lambda graph, omega: dijkstra_flood(graph, omega).tau),
    st.randoms(use_true_random=False),
)
def test_edge_check_matches_the_two_way_loop(instance, rng):
    graph, tau = instance
    assert is_edge_flooding(graph, tau) == two_way_edge_check(graph, tau)
    noise = {node: rng.choice(_LEVELS) for node in graph.nodes}  # violations both ways
    assert is_edge_flooding(graph, noise) == two_way_edge_check(graph, noise)


@settings(max_examples=300)
@given(
    broken_floodings(
        rough_node_flood_instances(), lambda graph, omega: core_expanding_flood(graph, omega).tau
    ),
    st.randoms(use_true_random=False),
)
def test_node_check_matches_the_two_way_loop(instance, rng):
    graph, tau = instance
    assert is_node_flooding(graph, tau) == two_way_node_check(graph, tau)
    noise = {node: rng.choice(_LEVELS) for node in graph.nodes}
    assert is_node_flooding(graph, noise) == two_way_node_check(graph, noise)


# -- lakes -------------------------------------------------------------------


def test_tank_lakes(tank):
    part = lakes(tank.graph, tank.tau)
    summary = [
        (nodes, level, [tank.graph.edges[i] for i in out])
        for nodes, level, out in zip(part.members, part.levels, part.exhaust)
    ]
    assert summary == [  # only D-E has an exhaust edge: the one full lake
        (("A", "B"), 2, []),
        (("C",), 1, []),
        (("D", "E"), 3, [("C", "D")]),
        (("F",), 3, []),
    ]


def test_lakes_partition_every_node_of_a_raster():
    rng = random.Random(12)
    size = 64
    graph = grid_graph([[rng.randint(0, 9) for _ in range(size)] for _ in range(size)])
    tau = core_expanding_flood(graph, ceiling_above(rng, graph, slack=3)).tau
    part = lakes(graph, tau)
    assert sorted(node for block in part.members for node in block) == sorted(graph.nodes)
    assert len(part.levels) == len(part.members) == len(part.exhaust)


def test_lake_partitions_compare_and_hash_by_their_lakes(tank):
    one, two = lakes(tank.graph, tank.tau), lakes(tank.graph, dict(tank.tau))
    assert one == two and hash(one) == hash(two)
    assert (one.levels, one.members, one.exhaust) == (two.levels, two.members, two.exhaust)
    assert one != lakes(tank.graph, {node: 3 for node in tank.graph.nodes})
    assert repr(one) == (
        "LakePartition(levels=[2, 1, 3, 3], members=[('A', 'B'), ('C',), ('D', 'E'), ('F',)], "
        "exhaust=[[], [], [2], []])"
    )


def test_chain_lakes_on_the_derived_edge_view(chain):
    part = lakes(chain.graph, chain.tau)
    summary = [
        (nodes, level, [chain.edge_graph.edges[i] for i in out])
        for nodes, level, out in zip(part.members, part.levels, part.exhaust)
    ]
    assert summary == [  # b and c-d are full, a and e regional minima
        (("a",), 0, []),
        (("b",), 4, [("a", "b"), ("b", "c")]),
        (("c", "d"), 2, [("d", "e")]),
        (("e",), 1, []),
    ]


def test_lakes_reject_invalid_water(tank):
    with pytest.raises(PreconditionError) as err:
        lakes(tank.graph, {**tank.tau, "D": 4})
    assert "not a valid flooding" in str(err.value)


# -- flat zones and regional minima -------------------------------------------


def zones_of(graph, values):
    """The flat zones of ``values`` as name tuples, in order of first node."""
    label, first = flat_zones(graph, values)
    return group_by_label(graph.nodes, label, len(first))


def test_chain_flat_zones_are_singletons(chain):
    assert zones_of(chain.graph, ground_of(chain.graph)) == [("a",), ("b",), ("c",), ("d",), ("e",)]


def test_flat_zones_with_explicit_values(chain):
    label, first = flat_zones(chain.graph, chain.omega)
    assert (list(label), list(first)) == ([0, 1, 2, 2, 3], [0, 1, 2, 4])
    assert zones_of(chain.graph, chain.omega) == [("a",), ("b",), ("c", "d"), ("e",)]


def test_strip_flat_zones(strip):
    assert zones_of(strip.graph, ground_of(strip.graph))[0] == ("0,0", "0,1")


def test_chain_regional_minima(chain):
    # The ground has a third valley at c (neighbors b=4 and d=2 both higher).
    assert regional_minima(chain.graph, ground_of(chain.graph)) == [("a",), ("c",), ("e",)]
    # The {c,d} plateau of the ceiling has a lower neighbor, so it is not
    # a regional minimum even though it is flat.
    assert regional_minima(chain.graph, chain.omega) == [("a",), ("e",)]


def test_constant_relief_is_one_big_minimum(chain):
    flat = {node: 7 for node in chain.graph.nodes}
    assert regional_minima(chain.graph, flat) == [("a", "b", "c", "d", "e")]


# -- lattice of floodings -----------------------------------------------------


@given(node_graphs())
def test_sup_and_inf_of_floodings_are_floodings(graph):
    rng = random.Random(1000 * len(graph.nodes) + len(graph.edges))
    a = core_expanding_flood(graph, ceiling_above(rng, graph)).tau
    b = core_expanding_flood(graph, ceiling_above(rng, graph)).tau
    assert is_node_flooding(graph, {node: max(a[node], b[node]) for node in graph.nodes})
    assert is_node_flooding(graph, {node: min(a[node], b[node]) for node in graph.nodes})


# -- derived edge view ---------------------------------------------------------


def test_derive_edge_graph_uses_endpoint_maxima(chain):
    derived = derive_edge_graph(chain.graph)
    assert derived.edge_weights == (4, 4, 2, 2)
    assert ground_of(derived) == ground_of(chain.graph)
    assert derived.nodes == chain.graph.nodes


def test_derive_edge_graph_needs_ground(tank):
    with pytest.raises(PreconditionError):
        derive_edge_graph(tank.graph)


def test_tank_has_no_derived_view_but_bottom_ground_would_be_neutral(tank):
    # Attaching a bottom ground leaves the explicit pipe altitudes in charge.
    grounded = build_graph(
        tank.graph.nodes,
        tank.graph.edges,
        ground={node: BOTTOM for node in tank.graph.nodes},
        edge_weights=tank.graph.edge_weights,
    )
    assert is_edge_flooding(grounded, tank.tau)
