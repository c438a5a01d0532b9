"""Scaling guards for adversarial shapes: deep dendrograms, many flat zones."""

from __future__ import annotations

import time
import tracemalloc

from floodgraph import (
    build_graph,
    build_lake_dendrogram,
    diameter,
    flat_zones,
    grid_graph,
    lake_growth_sequence,
)


def increasing_path(n):
    names = [f"p{i}" for i in range(n)]
    return build_graph(
        names, [(names[i], names[i + 1]) for i in range(n - 1)], edge_weights=range(n - 1)
    )


def test_deep_path_dendrogram_memory_is_linear():
    """An increasing-weight path nests every cluster in the next one."""
    n = 4000
    path = increasing_path(n)
    tracemalloc.start()
    try:
        dendro = build_lake_dendrogram(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(dendro.clusters) == 2 * n - 1
    assert peak / n < 4096


def test_checkerboard_flat_zones_are_fast():
    """Every pixel of a 128x128 checkerboard is its own flat zone."""
    size = 128
    board = grid_graph([[(r + c) % 2 for c in range(size)] for r in range(size)])
    start = time.perf_counter()
    zones = flat_zones(board)
    elapsed = time.perf_counter() - start
    assert len(zones) == size * size
    assert elapsed < 1.0


def test_deep_path_lake_growth_is_one_distance_pass():
    """From the low end of an increasing path every edge opens a new stage."""
    path = increasing_path(2000)
    start = time.perf_counter()
    stages = lake_growth_sequence(path, path.nodes[0])
    elapsed = time.perf_counter() - start
    assert len(stages) == 2 * 1999
    assert elapsed < 2.0


def test_deep_path_diameter_is_one_distance_pass():
    path = increasing_path(2000)
    start = time.perf_counter()
    widest = diameter(path, path.nodes)
    elapsed = time.perf_counter() - start
    assert widest == 1998
    assert elapsed < 0.5
