#!/usr/bin/env python3
"""Standalone cross-check: all flood solvers against the brute-force oracle.

Generates seeded random connected edge-weighted graphs with part-finite
ceilings, floods each with every solver, and compares against the closed
formula (min over sources of ceiling-join-distance).  On each instance it
also checks the single-source flooding distance from every node against
the all-pairs (Floyd-Warshall) distance matrix.  Prints one summary line;
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
    berge_flood,
    build_graph,
    build_lake_dendrogram,
    dendrogram_flood,
    dijkstra_flood,
    distance_matrix,
    flooding_distance_all,
    oracle_flood,
    prim_flood,
    serialize_graph,
    TOP,
)


def random_instance(rng: random.Random, max_nodes: int, max_weight: int):
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
    weights = [rng.randint(0, max_weight) for _ in edges]
    omega = {
        name: rng.randint(0, max_weight) if rng.random() < 0.5 else TOP
        for name in names
    }
    return build_graph(names, edges, edge_weights=weights), omega


def flood_all(graph, omega):
    return {
        "berge/gs": berge_flood(graph, omega).tau,
        "berge/jacobi": berge_flood(graph, omega, schedule="jacobi").tau,
        "dijkstra": dijkstra_flood(graph, omega).tau,
        "prim": prim_flood(graph, omega).tau,
        "dendrogram": dendrogram_flood(build_lake_dendrogram(graph), omega),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=2000)
    parser.add_argument("--max-nodes", type=int, default=12)
    parser.add_argument("--max-weight", type=int, default=15)
    parser.add_argument("--seed", type=int, default=31415)
    args = parser.parse_args()

    rng = random.Random(args.seed)
    for index in range(args.count):
        graph, omega = random_instance(rng, args.max_nodes, args.max_weight)
        want = oracle_flood(graph, omega)
        for name, got in flood_all(graph, omega).items():
            if got != want:
                print(f"instance {index}: solver {name} disagrees", file=sys.stderr)
                print(serialize_graph(graph, omega), file=sys.stderr)
                print(f"want {want}\ngot  {got}", file=sys.stderr)
                return 1
        matrix = distance_matrix(graph)
        for source in graph.nodes:
            got = flooding_distance_all(graph, source)
            if got != matrix[source]:
                print(f"instance {index}: flooding_distance_all from {source} "
                      "disagrees with distance_matrix", file=sys.stderr)
                print(serialize_graph(graph, omega), file=sys.stderr)
                print(f"want {matrix[source]}\ngot  {got}", file=sys.stderr)
                return 1
    print(
        f"{args.count} instances, 5 solvers and the distance from every node "
        "against distance_matrix, 0 disagreements "
        f"(seed {args.seed}, n <= {args.max_nodes}, weights <= {args.max_weight})"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
