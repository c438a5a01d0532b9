#!/usr/bin/env python3
"""Recompute every worked example shipped with the test suite and print it.

Runs the five-node path, the six-tank pipe network, the eleven-leaf
dendrogram, and the 1x6 raster end to end: derived edge weights, floods
from every producer, lake decomposition, distances, and the flat-zone
contraction.  All values are computed fresh; nothing is hard-coded except
the inputs, so the output doubles as a quick regression check by eye.
"""

from __future__ import annotations

from floodgraph import (
    berge_flood,
    build_dendrogram,
    build_graph,
    build_lake_dendrogram,
    contract_close_flood,
    contract_flat_zones,
    core_expanding_flood,
    dendrogram_flood,
    derive_edge_graph,
    dijkstra_flood,
    distance_matrix,
    grid_graph,
    is_edge_flooding,
    lakes,
    oracle_flood,
    prim_flood,
    waterfall_flooding,
    TOP,
)


def kind(exhaust):
    """A lake with an exhaust edge is full; one without is a regional minimum."""
    return "full" if exhaust else "regmin"


def show(name, values, order):
    body = "  ".join(f"{n}={values[n]}" for n in order)
    print(f"  {name:<18} {body}")


def walk_chain():
    print("== five-node path ==")
    graph = build_graph(
        "abcde",
        (("a", "b"), ("b", "c"), ("c", "d"), ("d", "e")),
        ground={"a": 0, "b": 4, "c": 1, "d": 2, "e": 0},
    )
    omega = {"a": 0, "b": 5, "c": 3, "d": 3, "e": 1}
    view = derive_edge_graph(graph)
    print("  derived edge weights:", view.edge_weights)
    show("ceiling", omega, graph.nodes)
    producers = {
        "berge/gs": berge_flood(view, omega).tau,
        "berge/jacobi": berge_flood(view, omega, schedule="jacobi").tau,
        "dijkstra": dijkstra_flood(view, omega).tau,
        "prim": prim_flood(view, omega).tau,
        "core": core_expanding_flood(graph, omega).tau,
        "dendrogram": dendrogram_flood(build_lake_dendrogram(view), omega),
        "contract+close": contract_close_flood(graph, omega),
        "oracle": oracle_flood(view, omega),
    }
    for name, tau in producers.items():
        show(f"flood [{name}]", tau, graph.nodes)
    agreed = len({tuple(tau[n] for n in graph.nodes) for tau in producers.values()})
    print(f"  producers agree: {'yes' if agreed == 1 else 'NO'}")
    tau = producers["core"]
    part = lakes(graph, tau)
    for index, (nodes, level, out) in enumerate(zip(part.members, part.levels, part.exhaust)):
        print(f"  lake {index}: nodes={','.join(nodes)} level={level} kind={kind(out)}")
    print()


def walk_tank():
    print("== six-tank pipe network ==")
    graph = build_graph(
        "ABCDEF",
        (("A", "B"), ("B", "C"), ("C", "D"), ("D", "E"), ("E", "F")),
        edge_weights=(1, 5, 3, 2, 6),
    )
    tau = {"A": 2, "B": 2, "C": 1, "D": 3, "E": 3, "F": 3}
    show("water levels", tau, graph.nodes)
    print(f"  valid flooding: {'yes' if is_edge_flooding(graph, tau) else 'NO'}")
    part = lakes(graph, tau)
    for index, (nodes, level, out) in enumerate(zip(part.members, part.levels, part.exhaust)):
        exhausts = ",".join("-".join(graph.edges[eid]) for eid in out)
        print(
            f"  lake {index}: nodes={','.join(nodes)} level={level} kind={kind(out)}"
            + (f" exhaust={exhausts}" if exhausts else "")
        )
    show("waterfall", waterfall_flooding(graph), graph.nodes)
    row = distance_matrix(graph)["A"]
    show("distance from A", row, graph.nodes)
    print()


def walk_dendrogram():
    print("== eleven-leaf dendrogram ==")
    leaves = tuple("abcdefghijk")
    groups = (
        (tuple("bcde"), 4),
        (tuple("bcdef"), 7),
        (tuple("abcdef"), 9),
        (tuple("gh"), 1),
        (tuple("ghi"), 6),
        (tuple("jk"), 3),
        (tuple("ghijk"), 8),
        (leaves, 10),
    )
    dendro = build_dendrogram(leaves, groups)
    for diam, members in zip(dendro.diam, dendro.all_members()):
        if len(members) > 1:
            print(f"  cluster {''.join(members)} diam={diam}")
    omega = {name: TOP for name in leaves}
    omega["c"] = 6
    omega["h"] = 1
    show("ceiling", omega, leaves)
    show("flood", dendrogram_flood(dendro, omega), leaves)
    print()


def walk_strip():
    print("== 1x6 raster and its contraction ==")
    graph = grid_graph([[0, 0, 4, 1, 2, 0]])
    omega = dict(zip(graph.nodes, (0, TOP, 5, 3, 3, 1)))
    show("ceiling", omega, graph.nodes)
    show("flood", core_expanding_flood(graph, omega).tau, graph.nodes)
    contracted, mapping, contracted_omega = contract_flat_zones(graph, omega)
    print("  contracted nodes:", " ".join(contracted.nodes))
    for rep, members in mapping.blocks.items():
        if len(members) > 1:
            print(f"  block {rep} <- {' '.join(members)}")
    show("contracted flood", core_expanding_flood(contracted, contracted_omega).tau, contracted.nodes)
    print()


def main() -> int:
    walk_chain()
    walk_tank()
    walk_dendrogram()
    walk_strip()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
