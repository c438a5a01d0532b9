"""Seeded input generators for the benchmark.

Every generator takes a ``random.Random`` and returns plain data (rows of
ints, node lists, text), so the program under test sees only generated
files and objects.  The same seed gives the same inputs byte for byte.
"""

from __future__ import annotations

import random


def random_raster(rng: random.Random, size: int, top: int = 50) -> list[list[int]]:
    """Independent uniform levels 0..top: many small basins and flat zones."""
    return [[rng.randint(0, top) for _ in range(size)] for _ in range(size)]


def terraced_raster(rng: random.Random, size: int) -> list[list[int]]:
    """Horizontal terraces 4 rows wide and 3 levels apart: few, wide flat zones.

    The seed moves only the base level, so every seed costs the same.
    """
    base = rng.randint(0, 20)
    return [[base + (r // 4) * 3 for _ in range(size)] for r in range(size)]


def flat_raster(rng: random.Random, size: int) -> list[list[int]]:
    """One level everywhere: a single flat zone covering the raster."""
    level = rng.randint(0, 50)
    return [[level] * size for _ in range(size)]


def checkerboard_raster(rng: random.Random, size: int) -> list[list[int]]:
    """Two alternating levels: every pixel is its own flat zone."""
    low = rng.randint(0, 25)
    high = low + rng.randint(1, 25)
    return [[high if (r + c) % 2 else low for c in range(size)] for r in range(size)]


RASTERS = {
    "random": random_raster,
    "terraced": terraced_raster,
    "flat": flat_raster,
    "checkerboard": checkerboard_raster,
}


def pgm_bytes(raster: list[list[int]]) -> bytes:
    """Binary P5 encoding with 8-bit samples (every level here is <= 255)."""
    width, height = len(raster[0]), len(raster)
    header = f"P5\n{width} {height}\n255\n".encode("ascii")
    return header + bytes(value for row in raster for value in row)


def pixel(row: int, col: int) -> str:
    return f"{row},{col}"


def sparse_ceiling(
    rng: random.Random, raster: list[list[int]], share: float = 0.1, slack: int = 5
) -> dict[str, int]:
    """A ceiling on about ``share`` of the pixels, set at ground + 0..slack."""
    return {
        pixel(r, c): value + rng.randint(0, slack)
        for r, row in enumerate(raster)
        for c, value in enumerate(row)
        if rng.random() < share
    }


def distinct_markers(rng: random.Random, size: int, count: int) -> dict[str, int]:
    """``count`` distinct pixels labelled 1..count in a seeded order."""
    cells = rng.sample(range(size * size), count)
    labels = rng.sample(range(1, count + 1), count)
    return {pixel(cell // size, cell % size): label for cell, label in zip(cells, labels)}


def node_values_text(values: dict[str, int]) -> str:
    return "".join(f"{node} {value}\n" for node, value in values.items())


def increasing_path(rng: random.Random, nodes: int) -> tuple[list[str], list[int], dict[str, int | None]]:
    """A path whose edge weights strictly increase along it.

    Every merge of the lake dendrogram adds one leaf to the growing
    cluster, so the tree is as deep as the path is long.  Returns the node
    names, the edge weights and a ceiling on about 10% of the nodes (None
    stands for the top value).
    """
    names = [f"p{i}" for i in range(nodes)]
    weights: list[int] = []
    level = rng.randint(0, 3)
    for _ in range(nodes - 1):
        level += rng.randint(1, 3)
        weights.append(level)
    omega = {
        name: rng.randint(0, weights[-1]) if rng.random() < 0.1 else None
        for name in names
    }
    return names, weights, omega


def _random_tree_plus_chords(rng: random.Random, count: int) -> list[tuple[int, int]]:
    edges = [(rng.randrange(i), i) for i in range(1, count)]
    seen = {tuple(sorted(edge)) for edge in edges}
    for _ in range(count):
        i, j = rng.randrange(count), rng.randrange(count)
        key = tuple(sorted((i, j)))
        if i != j and key not in seen:
            seen.add(key)
            edges.append((i, j))
    return edges


def plateau_graph_text(rng: random.Random, nodes: int = 60) -> str:
    """Low-relief node-weighted graph: ground 0..2, ceiling on ~70% of nodes.

    Broad plateaus separate the flat-zone solver from the per-node ones.
    """
    edges = _random_tree_plus_chords(rng, nodes)
    ground = [rng.randint(0, 2) for _ in range(nodes)]
    lines = ["floodgraph v1"]
    for i, level in enumerate(ground):
        if rng.random() < 0.3:
            lines.append(f"node n{i} f={level}")
        else:
            lines.append(f"node n{i} f={level} omega={level + rng.randint(0, 4)}")
    lines.extend(f"edge n{u} n{v}" for u, v in edges)
    return "\n".join(lines) + "\n"


def tanks_graph_text(rng: random.Random, max_nodes: int = 12, max_weight: int = 15) -> str:
    """Tanks joined by pipes: edge weights 0..max_weight, half the ceilings finite."""
    count = rng.randint(2, max_nodes)
    edges = _random_tree_plus_chords(rng, count)
    lines = ["floodgraph v1"]
    for i in range(count):
        if rng.random() < 0.5:
            lines.append(f"node n{i} omega={rng.randint(0, max_weight)}")
        else:
            lines.append(f"node n{i}")
    lines.extend(f"edge n{u} n{v} w={rng.randint(0, max_weight)}" for u, v in edges)
    return "\n".join(lines) + "\n"
