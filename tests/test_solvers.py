"""Flooding solvers: all five producers, segmentation, and a per-item funnel reference."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floodgraph import (
    BOTTOM,
    TOP,
    ConstructionError,
    PreconditionError,
    SolverResult,
    SolverStats,
    augment_with_dummy,
    berge_flood,
    build_graph,
    ceiling_minima,
    core_expanding_flood,
    derive_edge_graph,
    dijkstra_flood,
    flooding_distance_all,
    grid_graph,
    is_node_flooding,
    marker_segmentation,
    oracle_flood,
    prim_flood,
    regional_minima,
)
from floodgraph.graphs import NodeValues
from floodgraph.ultrametric import distance_rows

from strategies import (
    ceiling_above,
    flood_instances,
    ground_of,
    node_graphs,
    random_ceiling,
    rough_flood_instances,
    shuffled_path,
)
from test_funnel import PerItemFunnel


# -- reservoir augmentation -------------------------------------------------------


def test_augment_with_dummy_chain(chain):
    augmented, dummy = augment_with_dummy(chain.edge_graph, chain.omega)
    assert dummy == "@omega"
    assert augmented.nodes == (*chain.edge_graph.nodes, dummy)
    extra = augmented.edges[len(chain.edge_graph.edges):]
    extra_weights = augmented.edge_weights[len(chain.edge_graph.edges):]
    assert extra == tuple((dummy, node) for node in "abcde")
    assert extra_weights == (0, 5, 3, 3, 1)
    dist = flooding_distance_all(augmented, dummy)
    assert {node: dist[node] for node in chain.edge_graph.nodes} == chain.tau


@settings(max_examples=300)
@given(rough_flood_instances())
def test_the_reservoir_distance_is_the_highest_flooding(instance):
    """The flooding distance from the reservoir, read at the original nodes, is the
    flooding under the ceiling: infinite weights, bottom ceilings and components
    without a pipe included."""
    graph, omega = instance
    augmented, reservoir = augment_with_dummy(graph, omega)
    from_reservoir = flooding_distance_all(augmented, reservoir)
    expected = oracle_flood(graph, omega)
    assert {node: from_reservoir[node] for node in graph.nodes} == expected


def test_augment_skips_top_ceilings_and_dodges_name_collisions():
    graph = build_graph(["@omega", "x"], [("@omega", "x")], edge_weights=[3])
    augmented, dummy = augment_with_dummy(graph, {"@omega": TOP, "x": 2})
    assert dummy == "@omega+"
    assert augmented.edges == (("@omega", "x"), (dummy, "x"))
    assert augmented.edge_weights == (3, 2)


# -- the five producers ------------------------------------------------------------


def test_oracle_flood_chain(chain):
    assert oracle_flood(chain.edge_graph, chain.omega) == chain.tau


def test_oracle_flood_open_sky_changes_nothing(chain):
    sky = {node: TOP for node in chain.edge_graph.nodes}
    assert oracle_flood(chain.edge_graph, sky) == sky


@settings(max_examples=300)
@given(rough_flood_instances())
def test_oracle_flood_is_the_min_over_every_row(instance):
    graph, omega = instance
    rows = distance_rows(graph)
    ceiling = [omega[node] for node in graph.nodes]
    expected = {
        name: min(max(level, row[q]) for level, row in zip(ceiling, rows))  # top rows too
        for q, name in enumerate(graph.nodes)
    }
    assert list(oracle_flood(graph, omega).items()) == list(expected.items())


def test_berge_flood_both_schedules(chain):
    for schedule in ("gauss_seidel", "jacobi"):
        result = berge_flood(chain.edge_graph, chain.omega, schedule=schedule)
        assert result.tau == chain.tau
        assert result.stats.sweeps >= 2


def test_berge_flood_fixpoint_needs_one_sweep(chain):
    for schedule in ("gauss_seidel", "jacobi"):
        result = berge_flood(chain.edge_graph, chain.tau, schedule=schedule)
        assert result.tau == chain.tau
        assert result.stats.sweeps == 1
        assert result.stats.relaxations == 0


def full_sweep_berge(graph, omega, schedule):
    """Berge sweeps that evaluate every node, every sweep: (tau, sweeps, relaxations).

    berge_flood evaluates only the nodes that a neighbor's drop lowered,
    each once per sweep in the sweep's node order, so each of its
    evaluations is a drop; that must leave tau and both counters as they
    are here.
    """
    weights = graph.edge_weights
    tau = [omega[node] for node in graph.nodes]
    offsets, adj_node, adj_edge = graph.incidences()
    jacobi = schedule == "jacobi"
    forward = range(len(tau))
    backward = forward[::-1]
    sweeps = relaxations = 0
    while True:
        sweeps += 1
        source = list(tau) if jacobi else tau
        changed = False
        for p in forward if jacobi or sweeps % 2 else backward:
            value = source[p]
            for slot in range(offsets[p], offsets[p + 1]):
                level = source[adj_node[slot]]
                w = weights[adj_edge[slot]]
                if w > level:
                    level = w
                if level < value:
                    value = level
            if value != tau[p]:
                tau[p] = value
                changed = True
                relaxations += 1
        if not changed:
            break
    return dict(zip(graph.nodes, tau)), sweeps, relaxations


def assert_matches_full_sweeps(graph, omega, schedule):
    result = berge_flood(graph, omega, schedule=schedule)
    tau, sweeps, relaxations = full_sweep_berge(graph, omega, schedule)
    assert result.tau == tau
    assert (result.stats.sweeps, result.stats.relaxations) == (sweeps, relaxations)
    return sweeps, relaxations


@settings(max_examples=300)
@given(rough_flood_instances())
def test_berge_flood_matches_full_sweeps(instance):
    for schedule in ("gauss_seidel", "jacobi"):
        assert_matches_full_sweeps(*instance, schedule)


@settings(max_examples=300)
@given(rough_flood_instances(max_nodes=40))
def test_berge_flood_matches_full_sweeps_on_larger_graphs(instance):
    """Enough nodes and parallel edges for several drops per node and sweep."""
    for schedule in ("gauss_seidel", "jacobi"):
        assert_matches_full_sweeps(*instance, schedule)


@pytest.mark.parametrize("schedule", ["gauss_seidel", "jacobi"])
def test_berge_flood_matches_full_sweeps_on_a_shuffled_path(schedule):
    """Hundreds of sweeps; most drops queue a neighbor behind the cursor."""
    sweeps, relaxations = assert_matches_full_sweeps(*shuffled_path(random.Random(3), 500), schedule)
    assert relaxations == 499
    assert sweeps > 300


def seeded_raster_flood(size, seed):
    """A seeded size x size derived raster, levels 0..50, with a ceiling of
    ground + 0..5 on about 10% of its pixels."""
    rng = random.Random(seed)
    grid = grid_graph([[rng.randint(0, 50) for _ in range(size)] for _ in range(size)])
    omega = {
        node: level + rng.randint(0, 5) if rng.random() < 0.1 else TOP
        for node, level in zip(grid.nodes, grid.ground_values)
    }
    return derive_edge_graph(grid), omega


@pytest.mark.parametrize("schedule", ["gauss_seidel", "jacobi"])
def test_berge_flood_matches_full_sweeps_on_a_raster(schedule):
    """A seeded 24x24 derived raster with a sparse ceiling: pushes both ways in every sweep."""
    graph, omega = seeded_raster_flood(24, 7)
    sweeps, relaxations = assert_matches_full_sweeps(graph, omega, schedule)
    assert relaxations > len(graph.nodes)
    assert sweeps > 3


@pytest.mark.parametrize("schedule, seed, counters", [
    ("gauss_seidel", 8, (8, 402)),
    ("jacobi", 8, (15, 510)),
    ("gauss_seidel", 15, (6, 398)),
    ("jacobi", 15, (13, 467)),
])
def test_berge_flood_switches_between_the_flag_scan_and_the_heap(schedule, seed, counters):
    """On 16x16 a gauss_seidel sweep that starts with over 64 queued nodes scans the
    flags, and a sparser one pops a heap.  Seed 8 starts its sweeps with 74 and 75
    queued nodes (a forward and a backward scan), then 18, 9, 8, 3 and 1 (the heap);
    seed 15 with 63 (the heap), 65 (a backward scan), then 21, 8 and 3 (the heap)."""
    assert assert_matches_full_sweeps(*seeded_raster_flood(16, seed), schedule) == counters


@pytest.mark.parametrize("schedule", ["gauss_seidel", "jacobi"])
def test_berge_flood_under_an_all_top_ceiling_seeds_nothing(schedule):
    """A top ceiling offers its neighbors top: no node is queued, one sweep finds no drop."""
    graph, _ = seeded_raster_flood(16, 8)
    omega = dict.fromkeys(graph.nodes, TOP)
    assert berge_flood(graph, omega, schedule=schedule).tau == omega
    assert assert_matches_full_sweeps(graph, omega, schedule) == (1, 0)


def test_berge_flood_unknown_schedule(chain):
    with pytest.raises(PreconditionError):
        berge_flood(chain.edge_graph, chain.omega, schedule="chaotic")


def test_dijkstra_flood_chain_levels(chain):
    result = dijkstra_flood(chain.edge_graph, chain.omega)
    assert result.tau == chain.tau
    assert result.stats.extraction_levels == [0, 1, 2, 2, 4]


def test_dijkstra_flood_reduced_init_set(chain):
    full = dijkstra_flood(chain.edge_graph, chain.omega)
    kept = ("a", "c", "e")  # one node on each regional minimum of the ceiling
    reduced_omega = {node: level if node in kept else TOP for node, level in chain.omega.items()}
    reduced = dijkstra_flood(chain.edge_graph, reduced_omega)
    assert reduced.tau == full.tau
    assert reduced.stats.extractions <= full.stats.extractions


def test_dijkstra_flood_init_must_touch_every_ceiling_minimum(chain):
    only_a = {node: level if node == "a" else TOP for node, level in chain.omega.items()}
    # the seed set misses the ceiling minimum at e, so the water at e stands higher
    assert dijkstra_flood(chain.edge_graph, only_a).tau["e"] > chain.tau["e"]


def test_dijkstra_flood_open_sky(chain):
    sky = {node: TOP for node in chain.edge_graph.nodes}
    result = dijkstra_flood(chain.edge_graph, sky)
    assert result.tau == sky
    assert result.stats.extractions == 0


def funnel_dijkstra(graph, omega, init):
    """The former dijkstra_flood loop: (tau, extractions, relaxations, levels).

    Seeds the finite-ceiling nodes of ``init`` (node names, in order) at
    their ceiling and grows them best-first through a funnel, discarding
    stale entries.  dijkstra_flood, now a call of the shared kernel, must
    give the same tau and the same counters.
    """
    weights = graph.edge_weights
    ceiling = [omega[node] for node in graph.nodes]
    tau = [TOP] * len(ceiling)
    funnel = PerItemFunnel()
    for seed in map(graph.node_index, init):
        if ceiling[seed] < TOP:
            tau[seed] = ceiling[seed]
            funnel.push(ceiling[seed], seed)
    offsets, adj_node, adj_edge = graph.incidences()
    extractions = relaxations = 0
    levels = []
    while funnel:
        lam, node = funnel.pop()
        extractions += 1
        if tau[node] != lam:
            continue
        levels.append(lam)
        for slot in range(offsets[node], offsets[node + 1]):
            w = weights[adj_edge[slot]]
            candidate = w if w > lam else lam
            neighbor = adj_node[slot]
            if candidate < tau[neighbor]:
                tau[neighbor] = candidate
                funnel.push(candidate, neighbor)
                relaxations += 1
    return dict(zip(graph.nodes, tau)), extractions, relaxations, levels


@settings(max_examples=300)
@given(rough_flood_instances(), st.data())
def test_dijkstra_flood_matches_the_funnel_loop(instance, data):
    graph, omega = instance
    picks = {data.draw(st.sampled_from(zone)) for zone in regional_minima(graph, omega)}
    reduced = {node: level if node in picks else TOP for node, level in omega.items()}
    one_per_minimum = [node for node in graph.nodes if node in picks]
    for ceiling, names in ((omega, graph.nodes), (reduced, one_per_minimum)):
        result = dijkstra_flood(graph, ceiling)
        stats = result.stats
        got = (result.tau, stats.extractions, stats.relaxations, stats.extraction_levels)
        assert got == funnel_dijkstra(graph, omega, names)
        assert stats.sweeps == 0


def test_prim_flood_single_source(chain):
    result = prim_flood(chain.edge_graph, {"a": 0})
    assert result.tau == {"a": 0, "b": 4, "c": 4, "d": 4, "e": 4}


def test_prim_flood_ceiling_sources(chain):
    sources = {node: w for node, w in chain.omega.items() if w != TOP}
    assert prim_flood(chain.edge_graph, sources).tau == chain.tau


def test_prim_flood_without_sources_is_top_everywhere(chain):
    view = chain.edge_graph
    result = prim_flood(view, {})
    assert result.tau == dijkstra_flood(view, dict.fromkeys(view.nodes, TOP)).tau
    assert set(result.tau.values()) == {TOP}
    assert (result.stats.extractions, result.stats.relaxations) == (0, 0)


def test_core_expanding_flood_chain(chain):
    assert core_expanding_flood(chain.graph, chain.omega).tau == chain.tau


def test_core_expanding_flood_dry_ceiling_returns_the_ground(chain):
    ground = ground_of(chain.graph)
    assert core_expanding_flood(chain.graph, ground).tau == ground


def test_core_expanding_flood_rejects_ceiling_below_ground(chain):
    with pytest.raises(PreconditionError) as err:
        core_expanding_flood(chain.graph, {**chain.omega, "b": 1})
    assert "ceiling below ground at node 'b'" in str(err.value)


@pytest.mark.parametrize("route", ["dijkstra", "berge", "prim"])
def test_edge_routes_reject_ceiling_below_the_derived_ground(route):
    view = derive_edge_graph(build_graph(["a", "b"], [("a", "b")], ground={"a": 1, "b": 2}))
    omega = {"a": BOTTOM, "b": TOP}
    flood = {
        "dijkstra": lambda: dijkstra_flood(view, omega),
        "berge": lambda: berge_flood(view, omega),
        "prim": lambda: prim_flood(view, {"a": BOTTOM}),
    }[route]
    with pytest.raises(PreconditionError) as err:
        flood()
    assert "ceiling below ground at node 'a'" in str(err.value)


def test_core_expanding_flood_settles_plateaus_in_one_extraction():
    names = [f"p{i}" for i in range(8)]
    edges = [(names[i], names[i + 1]) for i in range(7)]
    graph = build_graph(names, edges, ground={n: 0 for n in names})
    omega = {n: TOP for n in names}
    omega["p3"] = 0
    result = core_expanding_flood(graph, omega)
    assert result.tau == {n: 0 for n in names}
    assert result.stats.extractions == 1
    # The item-at-a-time scheduler pays one extraction per plateau node.
    itemized = dijkstra_flood(derive_edge_graph(graph), omega)
    assert itemized.stats.extractions == len(names)


@given(node_graphs())
def test_core_expanding_flood_output_is_a_flooding(graph):
    rng = random.Random(len(graph.nodes) * 31 + len(graph.edges))
    omega = ceiling_above(rng, graph)
    tau = core_expanding_flood(graph, omega).tau
    assert is_node_flooding(graph, tau)
    assert all(tau[node] <= omega[node] for node in graph.nodes)


# -- ceiling minima -----------------------------------------------------------------


def test_ceiling_minima_scan_x(chain):
    assert ceiling_minima(chain.edge_graph, chain.omega) == ("a", "c", "e")


def test_ceiling_minima_on_monotone_and_constant_reliefs(chain):
    increasing = dict(zip(chain.graph.nodes, (0, 1, 2, 3, 4)))
    constant = {node: 7 for node in chain.graph.nodes}
    assert ceiling_minima(chain.graph, increasing) == ("a",)
    assert ceiling_minima(chain.graph, constant) == ("a",)


@given(flood_instances())
def test_ceiling_minima_meet_every_regional_minimum(instance):
    graph, omega = instance
    zones = regional_minima(graph, omega)
    chosen = set(ceiling_minima(graph, omega))
    for zone in zones:
        assert chosen.intersection(zone)


# -- marker segmentation ---------------------------------------------------------------


def test_segmentation_chain(chain):
    result = marker_segmentation(chain.edge_graph, {"a": 1, "e": 2})
    assert result.labels == {"a": 1, "b": 1, "c": 2, "d": 2, "e": 2}
    assert result.tau == {"a": 0, "b": 4, "c": 2, "d": 2, "e": 0}


def test_segmentation_engines_agree_on_ties(chain):
    first = marker_segmentation(chain.edge_graph, {"a": 1, "e": 2}, engine="dijkstra")
    second = marker_segmentation(chain.edge_graph, {"a": 1, "e": 2}, engine="prim")
    assert first.labels == second.labels


def test_segmentation_tie_goes_to_the_earlier_marker(chain):
    # b is at flooding distance 4 from both markers; the first one wins.
    flipped = marker_segmentation(chain.edge_graph, {"e": 2, "a": 1})
    assert flipped.labels["b"] == 2


def test_segmentation_returns_node_values_over_the_graph(chain):
    """tau and labels are lists by node index over the graph passed in, as every solver's tau."""
    graph = chain.edge_graph
    result = marker_segmentation(graph, {"a": 1, "e": 2})
    for values in (result.tau, result.labels):
        assert isinstance(values, NodeValues) and values.graph is graph
    assert result.labels.levels == [1, 1, 2, 2, 2] and result.tau.levels == [0, 4, 2, 2, 0]


def test_segmentation_every_node_its_own_marker(chain):
    markers = {node: i for i, node in enumerate(chain.edge_graph.nodes)}
    result = marker_segmentation(chain.edge_graph, markers)
    assert result.labels == markers
    assert result.tau == {node: 0 for node in chain.edge_graph.nodes}


def test_segmentation_leaves_unreachable_nodes_unlabeled():
    graph = build_graph(["a", "b", "c"], [("a", "b")], edge_weights=[1])
    result = marker_segmentation(graph, {"a": 7})
    assert result.labels == {"a": 7, "b": 7, "c": None}
    assert result.tau["c"] == TOP


def test_segmentation_rejects_bad_markers(chain):
    with pytest.raises(PreconditionError):
        marker_segmentation(chain.edge_graph, {})
    with pytest.raises(PreconditionError):
        marker_segmentation(chain.edge_graph, {"a": 1, "e": 1})
    with pytest.raises(ConstructionError):
        marker_segmentation(chain.edge_graph, {"zzz": 1})
    with pytest.raises(PreconditionError):
        marker_segmentation(chain.edge_graph, {"a": 1, "e": 2}, engine="kruskal")


# -- cross-producer agreement (light; the acceptance suite runs the big pools) ----------


@given(flood_instances())
def test_producers_agree(instance):
    graph, omega = instance
    expected = oracle_flood(graph, omega)
    assert berge_flood(graph, omega).tau == expected
    assert berge_flood(graph, omega, schedule="jacobi").tau == expected
    assert dijkstra_flood(graph, omega).tau == expected
    sources = {node: w for node, w in omega.items() if w != TOP}
    assert prim_flood(graph, sources).tau == expected


def test_a_result_is_a_slots_record_that_compares_field_by_field():
    graph = build_graph(["a", "b"], [("a", "b")], edge_weights=[2])
    result = prim_flood(graph, {"a": 3})
    assert not hasattr(result, "__dict__") and not hasattr(result.tau, "__dict__")
    assert repr(result) == (
        "SolverResult(tau=NodeValues(graph=<Graph: 2 nodes, 1 edges>, levels=[3, 3]), "
        "labels=None, stats=SolverStats(extractions=2, relaxations=1, sweeps=0, "
        "extraction_levels=()))"
    )
    assert result == prim_flood(graph, {"a": 3})
    assert result == SolverResult(result.tau, None, SolverStats(2, 1))
    assert result != SolverResult(result.tau)  # other stats
    assert result != SolverResult(result.tau, result.tau, result.stats)  # other labels
    assert result != (result.tau, None, result.stats)  # not a tuple of its fields
    fresh = SolverResult(result.tau)
    assert fresh.labels is None and fresh.stats == SolverStats()
    assert fresh.stats is not SolverResult(result.tau).stats  # a new record each time
