"""Hydrostatic validity, lakes, flat zones, and the flooding lattice."""

from __future__ import annotations

import random

import pytest
from hypothesis import given

from floodgraph import (
    BOTTOM,
    LakeKind,
    PreconditionError,
    build_graph,
    core_expanding_flood,
    derive_edge_graph,
    flat_zones,
    flooding_inf,
    flooding_sup,
    grid_graph,
    is_edge_flooding,
    is_node_flooding,
    lakes,
    regional_minima,
)

from strategies import ceiling_above, node_graphs


# -- validity ----------------------------------------------------------------


def test_fixture_flooding_is_valid(chain):
    assert is_node_flooding(chain.graph, chain.tau)
    assert is_edge_flooding(chain.edge_graph, chain.tau)


def test_dry_surface_is_a_flooding(chain):
    assert is_node_flooding(chain.graph, dict(chain.graph.ground))


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
    assert bool(good) and good.valid and good.violations == ()


# -- lakes -------------------------------------------------------------------


def test_tank_lakes(tank):
    part = lakes(tank.graph, tank.tau)
    summary = [
        (lake.nodes, lake.level, lake.kind, [tank.graph.edges[i] for i in lake.exhaust_edges])
        for lake in part.lakes
    ]
    assert summary == [
        (("A", "B"), 2, LakeKind.REGIONAL_MINIMUM, []),
        (("C",), 1, LakeKind.REGIONAL_MINIMUM, []),
        (("D", "E"), 3, LakeKind.FULL, [("C", "D")]),
        (("F",), 3, LakeKind.REGIONAL_MINIMUM, []),
    ]
    assert part.lake_of("E").nodes == ("D", "E")
    with pytest.raises(PreconditionError):
        part.lake_of("Z")


def test_lake_of_holds_every_node_of_a_raster():
    rng = random.Random(12)
    size = 64
    graph = grid_graph([[rng.randint(0, 9) for _ in range(size)] for _ in range(size)])
    tau = core_expanding_flood(graph, ceiling_above(rng, graph, slack=3)).tau
    part = lakes(graph, tau)
    assert all(node in part.lake_of(node).nodes for node in graph.nodes)
    assert all(part.lake_of(node) is lake for lake in part.lakes for node in lake.nodes)


def test_chain_lakes_on_the_derived_edge_view(chain):
    part = lakes(chain.graph, chain.tau)
    summary = [(lake.nodes, lake.level, lake.kind) for lake in part.lakes]
    assert summary == [
        (("a",), 0, LakeKind.REGIONAL_MINIMUM),
        (("b",), 4, LakeKind.FULL),
        (("c", "d"), 2, LakeKind.FULL),
        (("e",), 1, LakeKind.REGIONAL_MINIMUM),
    ]
    full = part.lake_of("c")
    assert [chain.edge_graph.edges[i] for i in full.exhaust_edges] == [("d", "e")]


def test_lakes_reject_invalid_water(tank):
    with pytest.raises(PreconditionError) as err:
        lakes(tank.graph, {**tank.tau, "D": 4})
    assert "not a valid flooding" in str(err.value)


# -- flat zones and regional minima -------------------------------------------


def test_chain_flat_zones_are_singletons(chain):
    assert flat_zones(chain.graph) == [("a",), ("b",), ("c",), ("d",), ("e",)]


def test_flat_zones_with_explicit_values(chain):
    assert flat_zones(chain.graph, chain.omega) == [("a",), ("b",), ("c", "d"), ("e",)]


def test_strip_flat_zones(strip):
    assert flat_zones(strip.graph)[0] == ("0,0", "0,1")


def test_chain_regional_minima(chain):
    # The ground has a third valley at c (neighbors b=4 and d=2 both higher).
    assert regional_minima(chain.graph) == [("a",), ("c",), ("e",)]
    # The {c,d} plateau of the ceiling has a lower neighbor, so it is not
    # a regional minimum even though it is flat.
    assert regional_minima(chain.graph, chain.omega) == [("a",), ("e",)]


def test_constant_relief_is_one_big_minimum(chain):
    flat = {node: 7 for node in chain.graph.nodes}
    assert regional_minima(chain.graph, flat) == [("a", "b", "c", "d", "e")]


# -- lattice of floodings -----------------------------------------------------


def test_flooding_sup_inf_fixtures(chain, tank):
    ground = dict(chain.graph.ground)
    assert flooding_sup(chain.graph, ground, chain.tau) == chain.tau
    assert flooding_inf(chain.graph, ground, chain.tau) == ground
    zero = {node: 0 for node in tank.graph.nodes}
    assert flooding_sup(tank.graph, tank.tau, zero) == tank.tau
    assert flooding_inf(tank.graph, tank.tau, zero) == zero


def test_flooding_sup_rejects_invalid_arguments(chain):
    bad = {"a": 0, "b": 4, "c": 3, "d": 2, "e": 1}
    with pytest.raises(PreconditionError):
        flooding_sup(chain.graph, bad, chain.tau)


@given(node_graphs())
def test_sup_and_inf_of_floodings_are_floodings(graph):
    rng = random.Random(1000 * len(graph.nodes) + len(graph.edges))
    a = core_expanding_flood(graph, ceiling_above(rng, graph)).tau
    b = core_expanding_flood(graph, ceiling_above(rng, graph)).tau
    assert is_node_flooding(graph, flooding_sup(graph, a, b))
    assert is_node_flooding(graph, flooding_inf(graph, a, b))


# -- derived edge view ---------------------------------------------------------


def test_derive_edge_graph_uses_endpoint_maxima(chain):
    derived = derive_edge_graph(chain.graph)
    assert derived.edge_weights == (4, 4, 2, 2)
    assert derived.ground == chain.graph.ground
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
