#!/usr/bin/env python3
"""Standalone cross-check: all flood solvers against the brute-force oracle.

Generates seeded random connected edge-weighted graphs with part-finite
ceilings, floods each by six routes (berge by both schedules, dijkstra,
prim, the lake dendrogram, and the flooding distance from the reservoir
that augment_with_dummy joins to each finite-ceiling node, read at the
original nodes), and compares them against the closed formula (min over
sources of ceiling-join-distance).  On each instance it also checks the
single-source flooding distance from every node against the all-pairs
(Floyd-Warshall) distance matrix, and segments the graph from a few
seeded markers with both engines.  The engines must agree, each marker
must keep its label, and each node must get its least distance to a
marker by that matrix, floored at zero, the label of a marker at that
distance, and the least (distance, marker rank) pair its neighbors offer.
As many node-weighted instances follow, with a ground drawn from 0..3, so
that flat zones and parallel edges between two zones occur, and a ceiling
on or above it: core_expanding_flood, contract_close_flood and local_flood
at every node must each equal the oracle on the derived edge view.
Prints one summary line;
exits nonzero on the first disagreement, dumping the instance so it can
be replayed.

usage: python3 scripts/random_agreement_sweep.py [--count N] [--max-nodes N]
                                                 [--max-weight W] [--seed S]
"""

from __future__ import annotations

import argparse
import random
import sys

from floodgraph import (
    augment_with_dummy,
    berge_flood,
    build_graph,
    build_lake_dendrogram,
    contract_close_flood,
    core_expanding_flood,
    dendrogram_flood,
    derive_edge_graph,
    dijkstra_flood,
    distance_matrix,
    flooding_distance_all,
    local_flood,
    marker_segmentation,
    oracle_flood,
    prim_flood,
    serialize_graph,
    TOP,
)


def random_skeleton(rng: random.Random, max_nodes: int):
    """A random spanning tree plus up to n more distinct edges."""
    count = rng.randint(2, max_nodes)
    names = [f"n{i}" for i in range(count)]
    edges = [(names[rng.randrange(i)], names[i]) for i in range(1, count)]
    seen = {tuple(sorted(e)) for e in edges}
    for _ in range(count):
        i, j = rng.randrange(count), rng.randrange(count)
        key = tuple(sorted((names[i], names[j])))
        if i != j and key not in seen:
            seen.add(key)
            edges.append((names[i], names[j]))
    return names, edges


def random_instance(rng: random.Random, max_nodes: int, max_weight: int):
    names, edges = random_skeleton(rng, max_nodes)
    weights = [rng.randint(0, max_weight) for _ in edges]
    omega = {
        name: rng.randint(0, max_weight) if rng.random() < 0.5 else TOP
        for name in names
    }
    return build_graph(names, edges, edge_weights=weights), omega


def random_node_instance(rng: random.Random, max_nodes: int):
    """A ground from 0..3 and a ceiling of ground + 0..3 at about half of the nodes."""
    names, edges = random_skeleton(rng, max_nodes)
    ground = {name: rng.randint(0, 3) for name in names}
    omega = {name: level + rng.randint(0, 3) if rng.random() < 0.5 else TOP
             for name, level in ground.items()}
    return build_graph(names, edges, ground=ground), omega


def node_flood_all(graph, omega):
    return {
        "core": core_expanding_flood(graph, omega).tau,
        "contract_close_flood": contract_close_flood(graph, omega),
        "local_flood": {node: local_flood(graph, omega, node) for node in graph.nodes},
    }


def flood_all(graph, omega):
    augmented, reservoir = augment_with_dummy(graph, omega)
    from_reservoir = flooding_distance_all(augmented, reservoir)
    return {
        "berge/gs": berge_flood(graph, omega).tau,
        "berge/jacobi": berge_flood(graph, omega, schedule="jacobi").tau,
        "dijkstra": dijkstra_flood(graph, omega).tau,
        "prim": prim_flood(graph, omega).tau,
        "dendrogram": dendrogram_flood(build_lake_dendrogram(graph), omega),
        "reservoir": {node: from_reservoir[node] for node in graph.nodes},
    }


def random_markers(rng: random.Random, graph) -> dict[str, int]:
    """One to four distinct nodes, in a seeded order, with distinct labels."""
    chosen = rng.sample(graph.nodes, rng.randint(1, min(4, len(graph.nodes))))
    return dict(zip(chosen, rng.sample(range(1, 100), len(chosen))))


def segmentation_faults(graph, matrix, markers: dict[str, int], result) -> list[str]:
    """What is wrong with a segmentation of a connected graph, by brute force over
    ``matrix``.  Each marker keeps its label.  Each node's tau is its least distance
    to a marker, floored at zero, and its label is that of a marker at that distance.
    Each other node takes the least (distance, marker rank) pair that its neighbors
    offer, a neighbor p across an edge of weight w offering (d_p v w, rank of p)."""
    label_of = {label: marker for marker, label in markers.items()}
    rank_of = {label: rank for rank, label in enumerate(markers.values())}
    least = {node: min(matrix[marker][node] for marker in markers) for node in graph.nodes}
    faults = [f"marker {marker} lost its label" for marker, label in markers.items()
              if result.labels[marker] != label]
    for node in graph.nodes:
        label = result.labels[node]
        if result.tau[node] != max(least[node], 0):
            faults.append(f"tau at {node} is {result.tau[node]}, not {max(least[node], 0)}")
        elif matrix[label_of[label]][node] != least[node]:
            faults.append(f"label {label} at {node} is no closest marker's")
        elif node not in markers and min(
            (max(least[p], graph.edge_weights[edge]), rank_of[result.labels[p]])
            for p, edge in graph.neighbors(node)
        ) != (least[node], rank_of[label]):
            faults.append(f"label {label} at {node} is not the least its neighbors offer")
    return faults


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--max-nodes", type=int, default=12)
    parser.add_argument("--max-weight", type=int, default=15)
    parser.add_argument("--seed", type=int, default=31415)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    marker_rng = random.Random(~args.seed)  # so the instances stay those of the seed
    for index in range(args.count):
        graph, omega = random_instance(rng, args.max_nodes, args.max_weight)
        want = oracle_flood(graph, omega)
        for name, got in flood_all(graph, omega).items():
            if got != want:
                print(f"instance {index}: route {name} disagrees", file=sys.stderr)
                print("".join(serialize_graph(graph, omega)), file=sys.stderr)
                print(f"want {want}\ngot  {got}", file=sys.stderr)
                return 1
        matrix = distance_matrix(graph)
        for source in graph.nodes:
            got = flooding_distance_all(graph, source)
            if got != matrix[source]:
                print(f"instance {index}: flooding_distance_all from {source} "
                      "disagrees with distance_matrix", file=sys.stderr)
                print("".join(serialize_graph(graph, omega)), file=sys.stderr)
                print(f"want {matrix[source]}\ngot  {got}", file=sys.stderr)
                return 1
        markers = random_markers(marker_rng, graph)
        results = [marker_segmentation(graph, markers, engine=engine)
                   for engine in ("dijkstra", "prim")]
        faults = segmentation_faults(graph, matrix, markers, results[0])
        if results[0].labels != results[1].labels or results[0].tau != results[1].tau:
            faults.append("the dijkstra and prim engines differ")
        if faults:
            print(f"instance {index}: marker_segmentation from {markers}: {faults[0]}",
                  file=sys.stderr)
            print("".join(serialize_graph(graph, omega)), file=sys.stderr)
            return 1
    node_rng = random.Random(2 * args.seed + 1)
    for index in range(args.count):
        graph, omega = random_node_instance(node_rng, args.max_nodes)
        want = oracle_flood(derive_edge_graph(graph), omega)
        for name, got in node_flood_all(graph, omega).items():
            if got != want:
                print(f"node-weighted instance {index}: {name} disagrees", file=sys.stderr)
                print("".join(serialize_graph(graph, omega)), file=sys.stderr)
                print(f"want {want}\ngot  {got}", file=sys.stderr)
                return 1
    print(
        f"{args.count} instances, 6 edge routes, the distance from every node and "
        "segmentation by both engines against distance_matrix, and as many "
        "node-weighted instances, 3 node routes against the oracle, 0 disagreements "
        f"(seed {args.seed}, n <= {args.max_nodes}, weights <= {args.max_weight})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
