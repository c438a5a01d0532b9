"""Scaling guards for adversarial shapes: deep dendrograms, many flat zones."""

from __future__ import annotations

import gc
import hashlib
import os
import random
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest

from floodgraph import (
    berge_flood,
    build_graph,
    build_lake_dendrogram,
    contract_flat_zones,
    flat_zones,
    grid_graph,
    is_dendrogram,
    lake_growth_sequence,
    serialize_graph,
    write_pgm,
)
from floodgraph.cli import main

from strategies import shuffled_path

SRC = Path(__file__).resolve().parent.parent / "src"


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
    assert peak / n < 400


# sha256 of `floodgraph dendro` on the 6,000-node increasing path, as the
# command wrote it when it still joined its whole output into one string
DEEP_PATH_DENDRO_SHA256 = "acf0c72d7dc6ed51dfe0f161da959a13e5598290127d8213fe2ebf6da712287c"

# The child reports its own peak RSS in bytes.  On Linux, ru_maxrss keeps the
# high-water mark of the process it was forked from across exec, so a child
# of a large test process reads that process's peak; VmHWM is the child's.
CLI_CHILD = """\
import os, resource, sys
from floodgraph.cli import main
code = main(sys.argv[1:])
sys.stdout.flush()
if os.path.exists("/proc/self/status"):
    with open("/proc/self/status") as status:
        line = next(line for line in status if line.startswith("VmHWM:"))
    peak = int(line.split()[1]) * 1024  # kB
else:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss  # KiB, bytes on macOS
    peak = peak if sys.platform == "darwin" else peak * 1024
print(peak, file=sys.stderr)
sys.exit(code)
"""


def test_deep_path_dendro_output_streams(tmp_path):
    """102 MB of `dendro` lines leave the process in chunks, never held whole."""
    pytest.importorskip("resource")
    graph = tmp_path / "path.fg"
    graph.write_text(serialize_graph(increasing_path(6000)))
    child = subprocess.Popen(
        [sys.executable, "-c", CLI_CHILD, "dendro", "--graph", str(graph)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    digest = hashlib.sha256()
    for block in iter(lambda: child.stdout.read(1 << 20), b""):
        digest.update(block)
    peak = int(child.stderr.read())
    assert child.wait() == 0
    assert digest.hexdigest() == DEEP_PATH_DENDRO_SHA256
    assert peak < 100 * 2**20


def raster_child_peak(tmp_path, *argv):
    """The child's peak RSS in MB for one CLI call on a seeded 512x512 raster.

    Levels 0..50, a ceiling of ground + 0..5 on about 10% of the pixels in
    ``ceiling.txt``, and 20 markers labelled 1..20 in ``markers.txt``; the
    output goes to stdout, read by nobody.
    """
    rng = random.Random(1)
    size = 512
    ground = [[rng.randint(0, 50) for _ in range(size)] for _ in range(size)]
    (tmp_path / "ground.pgm").write_bytes(write_pgm(ground))
    (tmp_path / "ceiling.txt").write_text("".join(
        f"{r},{c} {level + rng.randint(0, 5)}\n"
        for r, row in enumerate(ground) for c, level in enumerate(row) if rng.random() < 0.1
    ))
    (tmp_path / "markers.txt").write_text("".join(
        f"{cell // size},{cell % size} {label}\n"
        for label, cell in enumerate(rng.sample(range(size * size), 20), start=1)
    ))
    child = subprocess.run(
        [sys.executable, "-c", CLI_CHILD, *argv, "--graph", "ground.pgm"],
        cwd=tmp_path,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)},
        check=True,
    )
    return int(child.stderr) / 2**20


@pytest.mark.parametrize("argv, limit", [
    (["flood", "--algo", "dijkstra", "--derive-edges", "--ceiling", "ceiling.txt"], 85),
    (["flood", "--algo", "prim", "--derive-edges", "--ceiling", "ceiling.txt"], 85),
    (["fldist", "--derive-edges", "--from", "0,0"], 90),
])
def test_raster_flood_and_fldist_peaks_hold_node_functions_by_index(tmp_path, argv, limit):
    """The ceiling and the result stay lists by node index, written slice by slice:
    no dict keyed by name over every pixel, no list of every output line."""
    pytest.importorskip("resource")
    assert raster_child_peak(tmp_path, *argv) < limit


def test_raster_segment_peak_holds_labels_and_tau_by_index(tmp_path):
    """Labels and tau stay lists by node index: the lines are written slice by slice
    and the PGM rows are slices of the labels, with no dict keyed by name."""
    pytest.importorskip("resource")
    argv = ["segment", "--derive-edges", "--markers", "markers.txt", "--tau",
            "--label-pgm", "labels.pgm"]
    assert raster_child_peak(tmp_path, *argv) < 112


# The sweep counts of full Berge sweeps on shuffled_path(random.Random(3), 20_000),
# taken from the loop that scanned every node in every sweep.
SHUFFLED_PATH_SWEEPS = {"gauss_seidel": 13448, "jacobi": 20000}


@pytest.mark.parametrize("schedule", sorted(SHUFFLED_PATH_SWEEPS))
def test_berge_on_a_shuffled_path_is_not_quadratic(tmp_path, capsys, schedule):
    """Full sweeps would visit 20,000 nodes in each of thousands of sweeps."""
    graph = tmp_path / "path.fg"
    graph.write_text(serialize_graph(*shuffled_path(random.Random(3), 20_000)))
    argv = ["flood", "--algo", "berge", "--schedule", schedule, "--stats", "--graph", str(graph)]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    assert code == 0
    sweeps = SHUFFLED_PATH_SWEEPS[schedule]
    assert capsys.readouterr().err == f"stats: extractions=0 relaxations=19999 sweeps={sweeps}\n"
    assert elapsed < 1.0


@pytest.mark.parametrize("schedule", sorted(SHUFFLED_PATH_SWEEPS))
def test_berge_on_a_shuffled_path_quadruples_its_time_with_its_size(schedule):
    """n and 4n nodes, interleaved, best of 3: quasi-linear work reads about 4.5, and
    full sweeps about 12-16.  A ratio, so the host's speed does not move it."""
    sizes = (5000, 20_000)
    instances = [shuffled_path(random.Random(3), n) for n in sizes]
    best = [float("inf")] * len(sizes)
    for _ in range(3):
        for at, (n, (graph, omega)) in enumerate(zip(sizes, instances)):
            start = time.perf_counter()
            result = berge_flood(graph, omega, schedule=schedule)
            best[at] = min(best[at], time.perf_counter() - start)
            assert result.stats.relaxations == n - 1
    assert best[1] / best[0] < 8


def test_is_dendrogram_on_a_deep_chain_is_linear():
    """1,999 nested groups: a pairwise check compares about two million pairs of sets."""
    leaves = [f"l{i}" for i in range(2000)]
    family = [leaves[: k + 1] for k in range(1, len(leaves))]
    start = time.perf_counter()
    verdict = is_dendrogram(family)
    elapsed = time.perf_counter() - start
    assert verdict == (True, None)
    assert elapsed < 2.0


def test_is_dendrogram_names_a_culprit_in_linear_time():
    """A pairwise search for the culprit compares about half a million pairs of sets."""
    leaves = [f"l{i}" for i in range(1000)]
    family = [leaves[: k + 1] for k in range(len(leaves))] + [("x", "y"), ("y", "z")]
    start = time.perf_counter()
    verdict = is_dendrogram(family)
    elapsed = time.perf_counter() - start
    assert verdict == (False, (("x", "y"), ("y", "z")))
    assert elapsed < 1.0


def test_star_lake_dendrogram_is_linear():
    """Edges declared leaf-first make each merge's survivor the new leaf."""
    leaves = [f"s{i}" for i in range(40000)]
    star = build_graph(
        ["hub", *leaves], [(leaf, "hub") for leaf in leaves], edge_weights=[1] * len(leaves)
    )
    start = time.perf_counter()
    dendro = build_lake_dendrogram(star)
    elapsed = time.perf_counter() - start
    assert len(dendro.diam) == len(leaves) + 2
    assert len(dendro.members(len(dendro.diam) - 1)) == len(leaves) + 1  # the summit
    assert elapsed < 1.0


def test_checkerboard_flat_zones_are_fast():
    """Every pixel of a 128x128 checkerboard is its own flat zone."""
    size = 128
    board = grid_graph([[(r + c) % 2 for c in range(size)] for r in range(size)])
    ground = dict(zip(board.nodes, board.ground_values))
    start = time.perf_counter()
    _, first = flat_zones(board, ground)
    elapsed = time.perf_counter() - start
    assert len(first) == size * size
    assert elapsed < 1.0


def test_deep_path_lake_growth_is_one_distance_pass():
    """From the low end of an increasing path every edge opens a new stage."""
    path = increasing_path(2000)
    start = time.perf_counter()
    stages = lake_growth_sequence(path, path.nodes[0])
    elapsed = time.perf_counter() - start
    assert len(stages) == 2 * 1999
    assert elapsed < 2.0


@pytest.mark.parametrize("connectivity,limit", [(4, 300), (8, 350)])
def test_grid_graph_peak_is_array_sized(connectivity, limit):
    """The grid's topology is written into int arrays, not Python int lists."""
    size = 512
    raster = [[(7 * r + c) % 50 for c in range(size)] for r in range(size)]
    tracemalloc.start()
    try:
        grid = grid_graph(raster, connectivity)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grid.nodes) == size * size
    assert peak / (size * size) < limit


def test_contract_flat_zones_peak_is_label_sized():
    """Zone labels in an int array, zone pairs as int keys, ``blocks`` unbuilt."""
    size = 512
    rng = random.Random(3)
    grid = grid_graph([[rng.randint(0, 50) for _ in range(size)] for _ in range(size)])
    gc.collect()
    tracemalloc.start()
    try:
        contracted, _, _ = contract_flat_zones(grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(grid.nodes) > len(contracted.nodes) > size * size // 2
    assert peak / (size * size) < 400
