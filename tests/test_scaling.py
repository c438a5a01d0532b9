"""Scaling guards for adversarial shapes: deep dendrograms, many flat zones."""

from __future__ import annotations

import time
import tracemalloc

from floodgraph import build_graph, build_lake_dendrogram, flat_zones, grid_graph


def test_deep_path_dendrogram_memory_is_linear():
    """An increasing-weight path nests every cluster in the next one."""
    n = 4000
    names = [f"p{i}" for i in range(n)]
    path = build_graph(
        names, [(names[i], names[i + 1]) for i in range(n - 1)], edge_weights=range(n - 1)
    )
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
