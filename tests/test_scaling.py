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
    TOP,
    GraphFormatError,
    PreconditionError,
    berge_flood,
    build_graph,
    build_lake_dendrogram,
    contract_close_flood,
    contract_flat_zones,
    core_expanding_flood,
    derive_edge_graph,
    dijkstra_flood,
    flat_zones,
    grid_graph,
    is_dendrogram,
    serialize_graph,
    write_pgm,
)
from floodgraph.cli import main
from floodgraph.formats import HEADER
from floodgraph.graphs import index_graph, values_by_index

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


def test_deep_path_lake_growth_is_one_dendrogram_build():
    """From the low end of an increasing path every edge opens a new lake: the
    clusters above its leaf, read off one build and one pass over the members."""
    n = 2000
    path = increasing_path(n)
    start = time.perf_counter()
    dendro = build_lake_dendrogram(path)
    chain = [0]
    while dendro.father[chain[-1]] is not None:
        chain.append(dendro.father[chain[-1]])
    on_chain = set(chain)
    lakes = [members for cluster, members in enumerate(dendro.all_members()) if cluster in on_chain]
    elapsed = time.perf_counter() - start
    assert [dendro.diam[cluster] for cluster in chain[1:]] == list(range(n - 1))
    assert [len(members) for members in lakes] == list(range(1, n + 1))
    assert lakes[-1] == path.nodes
    assert elapsed < 2.0


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
    graph.write_text("".join(serialize_graph(increasing_path(6000))))
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


def raster_child_peak(tmp_path, *argv, size=512):
    """The child's peak RSS in MB for one CLI call on a seeded ``size`` x ``size`` raster.

    Levels 0..50, a ceiling of ground + 0..5 on about 10% of the pixels in
    ``ceiling.txt``, and 20 markers labelled 1..20 in ``markers.txt``; the
    output goes to stdout, read by nobody.
    """
    rng = random.Random(1)
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
    (["flood", "--algo", "dijkstra", "--derive-edges", "--ceiling", "ceiling.txt"], 75),
    (["flood", "--algo", "prim", "--derive-edges", "--ceiling", "ceiling.txt"], 76),
    (["fldist", "--derive-edges", "--from", "0,0"], 71),
    (["localflood", "--ceiling", "ceiling.txt", "--node", "256,256"], 65),
])
def test_raster_flood_and_fldist_peaks_hold_node_functions_by_index(tmp_path, argv, limit):
    """The ceiling and the result stay lists by node index, written slice by slice:
    no dict keyed by name over every pixel, no list of every output line, and no
    name index built to find the one node ``--from`` or ``--node`` names."""
    pytest.importorskip("resource")
    assert raster_child_peak(tmp_path, *argv) < limit


def test_raster_localflood_peak_builds_the_incidences_after_their_count(tmp_path):
    """A grid builds its incidences at solve time, before ``local_flood`` lists the
    ceiling by index: the counting array they are copied from is made, and its
    bytearray freed, before the three target arrays, so that at 1024x1024 no step of
    about 17 MB is stacked on them, and no ceiling copy of 8 MB either."""
    pytest.importorskip("resource")
    argv = ["localflood", "--ceiling", "ceiling.txt", "--node", "500,500"]
    assert raster_child_peak(tmp_path, *argv, size=1024) < 183


def test_raster_segment_peak_holds_labels_and_tau_by_index(tmp_path):
    """Labels and tau stay lists by node index: the lines are written slice by slice
    and the PGM rows are slices of the labels, with no dict keyed by name, no name
    index built to find the markers and no tuple per queued node."""
    pytest.importorskip("resource")
    argv = ["segment", "--derive-edges", "--markers", "markers.txt", "--tau",
            "--label-pgm", "labels.pgm"]
    assert raster_child_peak(tmp_path, *argv) < 80


@pytest.mark.parametrize("argv, limit", [
    (["mst", "--derive-edges"], 95),
    (["contract", "--ceiling", "ceiling.txt"], 145),
])
def test_raster_tree_and_contraction_peaks_write_the_graph_text_by_slices(tmp_path, argv, limit):
    """The graph text leaves in chunks of 65,536 node or edge lines, never as one list
    of every line beside the whole text, and the tree is gathered by one flag per edge."""
    pytest.importorskip("resource")
    assert raster_child_peak(tmp_path, *argv) < limit


@pytest.mark.parametrize("command, limit", [("validate", 76), ("lakes", 100)])
def test_raster_tau_reads_place_each_line_by_node_index(tmp_path, command, limit):
    """A tau that ``flood`` wrote lists the nodes in their order, so each line is placed
    by index as it is read, with no dict keyed by name over every pixel; and ``lakes``
    frees the lists its members are grouped in before it makes the exhaust lists."""
    pytest.importorskip("resource")
    flood = ["flood", "--algo", "dijkstra", "--derive-edges", "--ceiling", "ceiling.txt"]
    raster_child_peak(tmp_path, *flood, "-o", "tau.txt")
    assert raster_child_peak(tmp_path, command, "--tau", "tau.txt") < limit


def reference_serialize_graph(graph, omega=None):
    """The writer as it was when it joined every line into one string."""
    names, ground, weights = graph.nodes, graph.ground_values, graph.edge_weights
    if ground is None:
        nodes = [f"node {node}" for node in names]
    else:
        nodes = [f"node {node} f={level}" for node, level in zip(names, ground)]
    if omega is not None:
        for index, level in enumerate(values_by_index(graph, omega, "omega", TOP)):
            if level != TOP:
                nodes[index] += f" omega={level}"
    ends = graph.edge_u, graph.edge_v
    if weights is None:
        edges = [f"edge {names[u]} {names[v]}" for u, v in zip(*ends)]
    else:
        edges = [f"edge {names[u]} {names[v]} w={w}" for u, v, w in zip(*ends, weights)]
    return "\n".join([HEADER, *nodes, *edges]) + "\n"


def chunked_grid():
    """A 257x257 grid: 66,049 nodes and 131,584 edges, past one and two chunks."""
    rng = random.Random(4)
    grid = grid_graph([[rng.randint(0, 50) for _ in range(257)] for _ in range(257)])
    omega = {node: level + 1 for node, level in zip(grid.nodes, grid.ground_values)
             if rng.random() < 0.1}
    return grid, omega


@pytest.mark.parametrize("form", ["ground", "ground and weights", "weights"])
def test_serialize_graph_chunks_join_to_the_one_string_writer(form):
    grid, omega = chunked_grid()
    view = derive_edge_graph(grid)
    graph = {
        "ground": grid,
        "ground and weights": view,
        "weights": index_graph(grid.nodes, grid.edge_u, grid.edge_v, None, view.edge_weights),
    }[form]
    assert (len(graph.nodes), len(graph.edge_u)) == (66049, 131584)
    for ceiling in (omega, None):
        chunks = list(serialize_graph(graph, ceiling))
        assert len(chunks) == 1 + 2 + 3 and all(chunk.endswith("\n") for chunk in chunks)
        assert "".join(chunks) == reference_serialize_graph(graph, ceiling), ceiling is None


def test_serialize_graph_checks_every_slice_before_the_first_chunk():
    """An id that cannot be written, or an unknown omega node, in no first slice still
    raises at the call, before any chunk is made."""
    grid, omega = chunked_grid()
    names = list(grid.nodes)
    names[66000] = "a#b"
    bad = index_graph(names, grid.edge_u, grid.edge_v, grid.ground_values)
    with pytest.raises(GraphFormatError, match="cannot write node id 'a#b'"):
        serialize_graph(bad)
    with pytest.raises(PreconditionError, match="omega defined on unknown node 'z'"):
        serialize_graph(grid, {**omega, "z": 3})


# The sweep counts of full Berge sweeps on shuffled_path(random.Random(3), 20_000),
# taken from the loop that scanned every node in every sweep.
SHUFFLED_PATH_SWEEPS = {"gauss_seidel": 13448, "jacobi": 20000}


@pytest.mark.parametrize("schedule", sorted(SHUFFLED_PATH_SWEEPS))
def test_berge_on_a_shuffled_path_is_not_quadratic(tmp_path, capsys, schedule):
    """Full sweeps would visit 20,000 nodes in each of thousands of sweeps."""
    graph = tmp_path / "path.fg"
    graph.write_text("".join(serialize_graph(*shuffled_path(random.Random(3), 20_000))))
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


def falling_staircase(n):
    """``shuffled_path(random.Random(3), n)`` with every edge at 0 and the ceiling
    n - i at p_i.  Every node floods to 1, the ceiling at the far end; under jacobi
    the water moves one node a sweep, so p_i drops in each of n - 1 - i sweeps."""
    graph, _ = shuffled_path(random.Random(3), n)
    names = graph.nodes
    edges = [(names[u], names[v]) for u, v in zip(graph.edge_u, graph.edge_v)]
    flat = build_graph(names, edges, edge_weights=[0] * len(edges))
    return flat, {name: n - int(name[1:]) for name in names}


def ramp_raster(side):
    """An all-zero 4-connected side x side raster under the ceiling 2 * side - (r + c)."""
    graph = derive_edge_graph(grid_graph([[0] * side for _ in range(side)], 4))
    return graph, {f"{r},{c}": 2 * side - (r + c) for r in range(side) for c in range(side)}


@pytest.mark.parametrize("shape, size, schedule, relaxations, sweeps", [
    # Jacobi on the staircase: n(n - 1)/2 drops, the O(n * m) worst case reached
    (falling_staircase, 500, "jacobi", 500 * 499 // 2, 500),
    # Gauss-Seidel on the staircase: about n^2/6 drops at this seed
    (falling_staircase, 500, "gauss_seidel", 41443, 329),
    # Jacobi on the ramp: n(s - 1) drops in 2s - 1 sweeps, the last one finding none
    (ramp_raster, 32, "jacobi", 32 * 32 * 31, 2 * 32 - 1),
    (ramp_raster, 32, "gauss_seidel", 2044, 3),
])
def test_berge_worst_cases_are_pinned_by_count(shape, size, schedule, relaxations, sweeps):
    """Berge's counters are those of full sweeps: each sweep drops a node at most once
    and there are at most n sweeps, so its work is O(n * m), and these shapes reach
    the quadratic end of that bound, where `dijkstra_flood` stays O(m log m)."""
    graph, omega = shape(size)
    result = berge_flood(graph, omega, schedule=schedule)
    assert (result.stats.relaxations, result.stats.sweeps) == (relaxations, sweeps)
    assert result.tau == dijkstra_flood(graph, omega).tau


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
    *_, summit = dendro.all_members()
    assert len(summit) == len(leaves) + 1
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


def test_core_expanding_flood_peak_sorts_only_the_fed_nodes():
    """The raster recipe of ``raster_child_peak`` at 256x256: only the finite-ceiling
    nodes, about one in ten, are sorted into core order.  The grid's incidences are
    built before the trace, so the peak is core's own (about 99 B/node when every
    node was sorted)."""
    size = 256
    rng = random.Random(1)
    grid = grid_graph([[rng.randint(0, 50) for _ in range(size)] for _ in range(size)])
    omega = {
        node: level + rng.randint(0, 5) if rng.random() < 0.1 else TOP
        for node, level in zip(grid.nodes, grid.ground_values)
    }
    grid.incidences()
    gc.collect()
    tracemalloc.start()
    try:
        core_expanding_flood(grid, omega)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / (size * size) < 80


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


def test_contract_close_flood_peak_is_list_sized():
    """Every pixel of a 256x256 checkerboard is its own flat zone, so ccf's per-zone
    structures are as large as they get: a neighbour list per zone, with no zone
    graph, its incidences or its edge weights beside them."""
    size = 256
    rng = random.Random(1)
    board = grid_graph([[(r + c) % 2 for c in range(size)] for r in range(size)])
    omega = {
        node: level + rng.randint(0, 5) if rng.random() < 0.1 else TOP
        for node, level in zip(board.nodes, board.ground_values)
    }
    gc.collect()
    tracemalloc.start()
    try:
        tau = contract_close_flood(board, omega)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert tau == core_expanding_flood(board, omega).tau
    assert peak / (size * size) < 300
