"""Acceptance gate: twelve end-to-end guarantees, one PASS/FAIL line each.

Every test registers its verdict with the ``acceptance`` fixture so the
terminal summary lists all twelve criteria at a glance.  The verdict is
recorded as FAIL up front and flipped to PASS only after every assertion
has held, so an early abort is reported honestly.
"""

from __future__ import annotations

import itertools
import random
import time

import pytest

from floodgraph import (
    BOTTOM,
    TOP,
    berge_flood,
    build_lake_dendrogram,
    ceiling_minima,
    connected_components,
    contract_close_flood,
    contract_flat_zones,
    core_expanding_flood,
    dendrogram_flood,
    derive_edge_graph,
    dijkstra_flood,
    distance_matrix,
    is_edge_flooding,
    is_node_flooding,
    join,
    lakes,
    local_flood,
    marker_segmentation,
    meet,
    mst,
    oracle_flood,
    prim_flood,
    regional_minima,
    waterfall_flooding,
    weight_succ,
)

from strategies import tau_above_ground


def _prim(graph, omega):
    return prim_flood(graph, {n: omega[n] for n in graph.nodes if omega[n] < TOP}).tau


@pytest.fixture(scope="module")
def edge_floods(edge_instances):
    """Reference flood (dijkstra) for every pooled edge-weighted instance."""
    return [dijkstra_flood(graph, omega).tau for graph, omega in edge_instances]


def test_criterion_01_worked_example_every_producer(acceptance, chain):
    desc = "worked path example: all eight producers exact in under a second"
    acceptance(1, desc, False)
    graph, view, omega, tau = chain.graph, chain.edge_graph, chain.omega, chain.tau
    start = time.perf_counter()
    produced = {
        "berge/gauss_seidel": berge_flood(view, omega).tau,
        "berge/jacobi": berge_flood(view, omega, schedule="jacobi").tau,
        "dijkstra": dijkstra_flood(view, omega).tau,
        "prim": _prim(view, omega),
        "core": core_expanding_flood(graph, omega).tau,
        "dendrogram": dendrogram_flood(build_lake_dendrogram(view), omega),
        "contract+close": contract_close_flood(graph, omega),
        "oracle": oracle_flood(view, omega),
    }
    elapsed = time.perf_counter() - start
    for name, got in produced.items():
        assert got == tau, f"{name} produced {got}"
    assert elapsed < 1.0, f"took {elapsed:.3f}s"
    acceptance(1, desc, True)


def test_criterion_02_worked_dendrogram_example(acceptance, dendro_fixture):
    desc = "worked dendrogram example floods exactly"
    acceptance(2, desc, False)
    got = dendrogram_flood(dendro_fixture.dendro, dendro_fixture.omega)
    assert got == dendro_fixture.tau
    acceptance(2, desc, True)


def test_criterion_03_solver_agreement(acceptance, edge_instances, edge_floods):
    desc = "five solvers match the brute-force flood on 1000 graphs in under 60s"
    acceptance(3, desc, False)
    start = time.perf_counter()
    for i, (graph, omega) in enumerate(edge_instances):
        want = oracle_flood(graph, omega)
        assert edge_floods[i] == want, f"instance {i}: dijkstra"
        assert berge_flood(graph, omega).tau == want, f"instance {i}: gauss_seidel"
        assert (
            berge_flood(graph, omega, schedule="jacobi").tau == want
        ), f"instance {i}: jacobi"
        assert _prim(graph, omega) == want, f"instance {i}: prim"
        assert (
            dendrogram_flood(build_lake_dendrogram(graph), omega) == want
        ), f"instance {i}: dendrogram"
    elapsed = time.perf_counter() - start
    assert len(edge_instances) >= 1000
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    acceptance(3, desc, True)


def test_criterion_04_validity_domination_maximality(
    acceptance, edge_instances, edge_floods
):
    desc = "solver output is a valid flooding, under the ceiling, and bump-maximal"
    acceptance(4, desc, False)
    for i, (graph, omega) in enumerate(edge_instances):
        tau = edge_floods[i]
        assert is_edge_flooding(graph, tau), f"instance {i}: invalid"
        weights = graph.edge_weights
        for p in graph.nodes:
            assert tau[p] <= omega[p], f"instance {i}: {p} above the ceiling"
            if tau[p] == omega[p]:
                continue
            bumped = weight_succ(tau[p])
            assert any(
                bumped > join(tau[q], weights[eid]) for q, eid in graph.neighbors(p)
            ), f"instance {i}: {p} could rise to {bumped}"
    acceptance(4, desc, True)


def test_criterion_05_ultrametric_axioms_and_balls(acceptance, metric_instances):
    desc = "flooding distance is an ultrametric with laminar balls"
    acceptance(5, desc, False)
    for i, (graph, _) in enumerate(metric_instances):
        dm = distance_matrix(graph)
        nodes = graph.nodes
        for x in nodes:
            assert dm[x][x] == BOTTOM, f"instance {i}: d({x},{x})"
            for y in nodes:
                assert dm[x][y] == dm[y][x], f"instance {i}: symmetry {x},{y}"
        for x, y, z in itertools.permutations(nodes, 3):
            assert dm[x][z] <= join(dm[x][y], dm[y][z]), f"instance {i}: {x}{y}{z}"
        for x, y, z in itertools.combinations(nodes, 3):
            sides = sorted((dm[x][y], dm[y][z], dm[x][z]))
            assert sides[1] == sides[2], f"instance {i}: scalene {x}{y}{z}"
        radii = {dm[x][y] for x in nodes for y in nodes if x != y}
        for r in radii:
            ball_of = {x: frozenset(y for y in nodes if dm[x][y] <= r) for x in nodes}
            for x in nodes:
                for y in ball_of[x]:
                    assert ball_of[y] == ball_of[x], f"instance {i}: r={r} {x},{y}"
                assert all(
                    dm[u][v] <= r for u in ball_of[x] for v in ball_of[x]
                ), f"instance {i}: ball({x},{r}) too wide"
    assert len(metric_instances) >= 1000
    acceptance(5, desc, True)


def test_criterion_06_mst_preserves_distances_and_floods(acceptance, metric_instances):
    desc = "minimum spanning tree preserves distances and floodings"
    acceptance(6, desc, False)
    for i, (graph, omega) in enumerate(metric_instances):
        tree = mst(graph)
        assert len(tree.edges) == len(tree.nodes) - 1, f"instance {i}: not a tree"
        assert distance_matrix(tree) == distance_matrix(graph), f"instance {i}"
        assert (
            dijkstra_flood(tree, omega).tau == dijkstra_flood(graph, omega).tau
        ), f"instance {i}: flood changed"
    acceptance(6, desc, True)


def test_criterion_07_node_and_edge_criteria_agree(acceptance, node_instances):
    desc = "node and edge validity criteria agree on 1000 candidate surfaces"
    acceptance(7, desc, False)
    rng = random.Random(31337)
    verdicts = {True: 0, False: 0}
    for i, (graph, omega) in enumerate(node_instances):
        if i % 3 == 0:
            tau = core_expanding_flood(graph, omega).tau
        else:
            tau = tau_above_ground(rng, graph, slack=3)
        node_verdict = bool(is_node_flooding(graph, tau))
        edge_verdict = bool(is_edge_flooding(derive_edge_graph(graph), tau))
        assert node_verdict == edge_verdict, f"instance {i}: criteria disagree"
        verdicts[node_verdict] += 1
    assert sum(verdicts.values()) >= 1000
    assert verdicts[True] and verdicts[False], "pool never exercised both verdicts"
    acceptance(7, desc, True)


def test_criterion_08_contraction_invariance(acceptance, plateau_instances):
    desc = "flooding commutes with flat-zone contraction on 500 plateau graphs"
    acceptance(8, desc, False)
    shrunk = 0
    for i, (graph, omega) in enumerate(plateau_instances):
        want = core_expanding_flood(graph, omega).tau
        contracted, mapping, contracted_omega = contract_flat_zones(graph, omega)
        assert contracted_omega is not None
        inner = core_expanding_flood(contracted, contracted_omega).tau
        assert mapping.expand(inner) == want, f"instance {i}"
        shrunk += len(contracted.nodes) < len(graph.nodes)
    assert len(plateau_instances) >= 500
    assert shrunk > len(plateau_instances) // 2, "pool is not plateau-rich"
    acceptance(8, desc, True)


def test_criterion_09_minima_containment_and_ceiling_reduction(
    acceptance, node_instances
):
    desc = "each regional-minimum lake holds a ceiling minimum; keeping one such node per minimum refloods identically"
    acceptance(9, desc, False)
    for i, (graph, omega) in enumerate(node_instances):
        tau = core_expanding_flood(graph, omega).tau
        minima = regional_minima(graph, values=omega)
        zone_sets = [frozenset(zone) for zone in minima]
        part = lakes(graph, tau)
        for nodes, out in zip(part.members, part.exhaust):
            if out:  # an exhaust edge: a full lake, not a regional minimum
                continue
            members = set(nodes)
            assert any(
                zone <= members for zone in zone_sets
            ), f"instance {i}: lake {nodes} holds no ceiling minimum"
        kept = set(ceiling_minima(graph, omega))
        reduced = {n: TOP for n in graph.nodes}
        for zone in minima:
            picks = [n for n in zone if n in kept]
            assert picks, f"instance {i}: scan missed the minimum {zone}"
            reduced[picks[0]] = omega[picks[0]]
        assert (
            core_expanding_flood(graph, reduced).tau == tau
        ), f"instance {i}: reduced ceiling floods differently"
    acceptance(9, desc, True)


def test_criterion_10_waterfall_lift(acceptance, edge_instances, edge_floods):
    desc = "lifting the ceiling by the waterfall shifts the flood by exactly the waterfall"
    acceptance(10, desc, False)
    for i, (graph, omega) in enumerate(edge_instances):
        eta = waterfall_flooding(graph)
        base = edge_floods[i]
        lifted_omega = {n: join(omega[n], eta[n]) for n in graph.nodes}
        lifted = dijkstra_flood(graph, lifted_omega).tau
        assert lifted == {
            n: join(base[n], eta[n]) for n in graph.nodes
        }, f"instance {i}: lift"
        assert {
            n: meet(lifted[n], omega[n]) for n in graph.nodes
        } == base, f"instance {i}: cap"
    acceptance(10, desc, True)


def test_criterion_11_segmentation(acceptance, marker_instances):
    desc = "segmentation engines agree; regions are connected around their own marker"
    acceptance(11, desc, False)
    for i, (graph, markers) in enumerate(marker_instances):
        result = marker_segmentation(graph, markers, engine="dijkstra", want_tau=True)
        other = marker_segmentation(graph, markers, engine="prim")
        labels = result.labels
        assert labels == other.labels, f"instance {i}: engines disagree"
        assert set(labels) == set(graph.nodes), f"instance {i}: unlabeled nodes"
        dm = distance_matrix(graph)
        for q in graph.nodes:
            want = min(join(0, dm[m][q]) for m in markers)
            assert result.tau[q] == want, f"instance {i}: tau at {q}"
        for label in set(markers.values()):
            inside = {m for m in markers if labels[m] == label}
            assert inside == {
                m for m in markers if markers[m] == label
            }, f"instance {i}: label {label} captured foreign markers"
        # Every node is labelled and every label holds its markers, so the
        # components of the same-label edges number one per label exactly
        # when each label's region is connected.
        same = [labels[u] == labels[v] for u, v in graph.edges]
        assert len(connected_components(graph, same)[1]) == len(
            set(markers.values())
        ), f"instance {i}: a label's region is split"
    assert len(marker_instances) >= 200
    acceptance(11, desc, True)


def test_criterion_12_local_queries_match_global_flood(acceptance, node_instances):
    desc = "single-node flood queries match the global flood at every node"
    acceptance(12, desc, False)
    pool = node_instances[:300]
    for i, (graph, omega) in enumerate(pool):
        tau = core_expanding_flood(graph, omega).tau
        for node in graph.nodes:
            assert (
                local_flood(graph, omega, node) == tau[node]
            ), f"instance {i}: node {node}"
    assert len(pool) >= 300
    acceptance(12, desc, True)
