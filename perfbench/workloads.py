"""The benchmark's workloads: seeded inputs, one round's op list, the checks.

An op is one user-visible unit of work: one in-process ``cli.main`` call
writing with ``-o`` into the work directory, or one graph's library calls.
``run`` is the timed part; ``check`` runs outside the timed region,
raises ``Mismatch`` on a wrong answer and returns the bytes whose digest
must be the same in every round.  Ops look floodgraph functions up on the
module at call time, so wrappers swapped in by ``spans.patched`` are seen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType
from typing import Callable

import inputs


class Mismatch(Exception):
    """An op's output failed verification."""


class SetupError(Exception):
    """A program call that prepares inputs failed."""


@dataclass(frozen=True)
class Program:
    fg: ModuleType
    cli: ModuleType


@dataclass(frozen=True)
class Op:
    name: str
    nodes: int
    run: Callable[[], object]
    check: Callable[[object], bytes]


def _weight_text(value) -> str:
    if value == float("inf"):
        return "inf"
    if value == float("-inf"):
        return "-inf"
    return str(value)


def tau_text(tau: dict) -> bytes:
    """A node function in the CLI's ``<node> <value>`` line format.

    Written here rather than with floodgraph's formatter, so a formatting
    bug cannot hide by showing up on both sides of a comparison.
    """
    return "".join(f"{node} {_weight_text(value)}\n" for node, value in tau.items()).encode()


def _take(path: Path) -> bytes:
    """Read an output file and remove it, so a later op cannot pass on stale output."""
    try:
        data = path.read_bytes()
    except FileNotFoundError:
        raise Mismatch(f"{path.name} was not written") from None
    path.unlink()
    return data


def _cli_op(program: Program, name: str, nodes: int, argv: list[str],
            outputs: list[Path], verify: Callable[..., None]) -> Op:
    def run():
        return program.cli.main(argv)

    def check(code) -> bytes:
        if code != 0:
            raise Mismatch(f"exit code {code}")
        data = [_take(path) for path in outputs]
        verify(*data)
        return b"".join(data)

    return Op(name, nodes, run, check)


def _call(program: Program, args: list[str]) -> None:
    code = program.cli.main(args)
    if code != 0:
        raise SetupError(f"floodgraph {' '.join(args)} exited with {code}")


def _covers_once(members: list[str], nodes: set[str], what: str) -> None:
    if len(members) != len(nodes) or set(members) != nodes:
        raise Mismatch(f"{what} do not list every node exactly once")


def raster_cli(program: Program, rng: random.Random, workdir: Path,
               size: int = 96, markers: int = 20, rasters: int = 6) -> list[Op]:
    """The CLI path on ``rasters`` rasters: ingest, grid, derive, ceiling, solve, emit.

    One raster's cost depends on its seed: berge's sweep count and the
    basin ``localflood`` explores vary with the geometry.  A round runs
    every op on each of several rasters, so a run's figures average over
    them.
    """
    ops: list[Op] = []
    for index in range(rasters):
        ops += _raster_ops(program, rng, workdir, f"r{index}", size, markers)
    return ops


def _raster_ops(program: Program, rng: random.Random, workdir: Path, tag: str,
                size: int, markers: int) -> list[Op]:
    """One raster's op list; its files and op names start with ``tag``."""
    raster = inputs.random_raster(rng, size)
    marks = inputs.distinct_markers(rng, size, markers)
    probe = rng.randrange(size * size)
    probe_node = inputs.pixel(probe // size, probe % size)
    ground, ceiling, marker_file = (workdir / f"{tag}-ground.pgm", workdir / f"{tag}-ceiling.txt",
                                    workdir / f"{tag}-markers.txt")
    ground.write_bytes(inputs.pgm_bytes(raster))
    ceiling.write_text(inputs.node_values_text(inputs.sparse_ceiling(rng, raster)))
    marker_file.write_text(inputs.node_values_text(marks))
    nodes = size * size
    graph = ["--graph", str(ground), "--connectivity", "4"]
    expected: dict[str, bytes] = {}

    def flood(algo: str, *extra: str) -> Op:
        out = workdir / f"{tag}-flood-{algo}.txt"

        def verify(data: bytes) -> None:
            if algo == "core":
                expected["flood"] = data
            elif data != expected.get("flood"):
                raise Mismatch(f"flood --algo {algo} differs from --algo core")

        argv = ["flood", *graph, "--derive-edges", "--algo", algo, "--ceiling", str(ceiling),
                *extra, "-o", str(out)]
        return _cli_op(program, f"{tag}/flood-{algo}", nodes, argv, [out], verify)

    def verify_segment(text: bytes, _labels_pgm: bytes) -> None:
        labels = dict(line.split(" ") for line in text.decode().splitlines())
        if len(labels) != nodes:
            raise Mismatch("segment did not label every node")
        for node, label in marks.items():
            if labels.get(node) != str(label):
                raise Mismatch(f"marker {node} lost its label {label}")

    def verify_lines(data: bytes) -> None:
        if data.count(b"\n") != nodes:
            raise Mismatch(f"expected {nodes} lines")

    def verify_mst(data: bytes) -> None:
        edges = sum(1 for line in data.splitlines() if line.startswith(b"edge "))
        if edges != nodes - 1:
            raise Mismatch(f"mst has {edges} edges, not {nodes - 1}")

    def verify_local(data: bytes) -> None:
        if data != expected["flood"].split(b"\n")[probe] + b"\n":
            raise Mismatch(f"localflood at {probe_node} differs from the flood file")

    segment_out, labels_out = workdir / f"{tag}-segment.txt", workdir / f"{tag}-labels.pgm"
    fldist_out, mst_out, local_out = (workdir / f"{tag}-fldist.txt", workdir / f"{tag}-mst.txt",
                                      workdir / f"{tag}-local.txt")
    return [
        flood("core"),
        flood("dijkstra", "--validate-after"),
        flood("prim"),
        flood("berge"),
        _cli_op(program, f"{tag}/segment", nodes,
                ["segment", *graph, "--derive-edges", "--markers", str(marker_file),
                 "--label-pgm", str(labels_out), "-o", str(segment_out)],
                [segment_out, labels_out], verify_segment),
        _cli_op(program, f"{tag}/fldist", nodes,
                ["fldist", *graph, "--derive-edges", "--from", probe_node, "-o", str(fldist_out)],
                [fldist_out], verify_lines),
        _cli_op(program, f"{tag}/mst", nodes,
                ["mst", *graph, "--derive-edges", "-o", str(mst_out)], [mst_out], verify_mst),
        _cli_op(program, f"{tag}/localflood", nodes,
                ["localflood", *graph, "--node", probe_node, "--ceiling", str(ceiling),
                 "-o", str(local_out)],
                [local_out], verify_local),
    ]


def hierarchy(program: Program, rng: random.Random, workdir: Path,
              size: int = 64, path_nodes: int = 2000) -> list[Op]:
    """Lakes, the lake dendrogram and contraction on four raster shapes plus a deep path."""
    fg = program.fg
    nodes = size * size
    all_nodes = {inputs.pixel(r, c) for r in range(size) for c in range(size)}
    ops: list[Op] = []

    def verify_lakes(data: bytes) -> None:
        members = []
        for line in data.decode().splitlines():
            members += line.split(" nodes=", 1)[1].split(" exhaust=", 1)[0].split(" ")
        _covers_once(members, all_nodes, "lakes")

    def verify_contract(data: bytes) -> None:
        members = []
        for line in data.decode().splitlines():
            if line.startswith("# block "):
                members += line.split(" ")[3:]
        _covers_once(members, all_nodes, "contraction blocks")

    for kind, make in inputs.RASTERS.items():
        raster = make(rng, size)
        ceiling_values = inputs.sparse_ceiling(rng, raster)
        ground, ceiling, tau = (workdir / f"{kind}.pgm", workdir / f"{kind}-ceiling.txt",
                                workdir / f"{kind}-tau.txt")
        ground.write_bytes(inputs.pgm_bytes(raster))
        ceiling.write_text(inputs.node_values_text(ceiling_values))
        graph_args = ["--graph", str(ground), "--connectivity", "4"]
        _call(program, ["flood", *graph_args, "--algo", "core", "--ceiling", str(ceiling),
                        "-o", str(tau)])
        reference = tau.read_bytes()
        graph = fg.grid_graph(raster, 4)
        omega = {node: ceiling_values.get(node, fg.TOP) for node in graph.nodes}

        def verify_dendro(data: bytes, reference=reference, kind=kind) -> None:
            tail = b"".join(data.splitlines(keepends=True)[-nodes:])
            if tail != reference:
                raise Mismatch(f"{kind}: dendro --flood differs from core_expanding_flood")

        def contract_close(graph=graph, omega=omega):
            return fg.contract_close_flood(graph, omega)

        def check_close(tau_values, reference=reference, kind=kind) -> bytes:
            text = tau_text(tau_values)
            if text != reference:
                raise Mismatch(f"{kind}: contract_close_flood differs from core_expanding_flood")
            return text

        outputs = [workdir / f"{kind}-{name}.txt" for name in ("dendro", "lakes", "contract")]
        ops += [
            _cli_op(program, f"{kind}/dendro", nodes,
                    ["dendro", *graph_args, "--derive-edges", "--flood", "--ceiling", str(ceiling),
                     "-o", str(outputs[0])],
                    [outputs[0]], verify_dendro),
            _cli_op(program, f"{kind}/lakes", nodes,
                    ["lakes", *graph_args, "--tau", str(tau), "-o", str(outputs[1])],
                    [outputs[1]], verify_lakes),
            _cli_op(program, f"{kind}/contract", nodes,
                    ["contract", *graph_args, "--ceiling", str(ceiling), "-o", str(outputs[2])],
                    [outputs[2]], verify_contract),
            Op(f"{kind}/contract_close_flood", nodes, contract_close, check_close),
        ]

    names, weights, ceiling_values = inputs.increasing_path(rng, path_nodes)
    path = fg.build_graph(names, list(zip(names, names[1:])), edge_weights=weights)
    path_omega = {name: fg.TOP if value is None else value for name, value in ceiling_values.items()}
    path_reference = tau_text(fg.dijkstra_flood(path, path_omega).tau)

    def path_flood():
        return fg.dendrogram_flood(fg.build_lake_dendrogram(path), path_omega)

    def check_path(tau_values) -> bytes:
        text = tau_text(tau_values)
        if text != path_reference:
            raise Mismatch("path: dendrogram_flood differs from dijkstra_flood")
        return text

    ops.append(Op("path/dendrogram_flood", path_nodes, path_flood, check_path))
    return ops


def _edge_routes(fg: ModuleType, view, omega: dict) -> dict[str, dict]:
    sources = {node: omega[node] for node in view.nodes if omega[node] < fg.TOP}
    return {
        "berge": fg.berge_flood(view, omega).tau,
        "dijkstra": fg.dijkstra_flood(view, omega).tau,
        "prim": fg.prim_flood(view, sources).tau if sources else dict.fromkeys(view.nodes, fg.TOP),
        "dendrogram": fg.dendrogram_flood(fg.build_lake_dendrogram(view), omega),
    }


def _check_routes(result) -> bytes:
    taus, report = result
    if not report:
        raise Mismatch(f"invalid flooding: {report.violations[0]}")
    reference = taus["dijkstra"]
    for route, tau in taus.items():
        if tau != reference:
            raise Mismatch(f"{route} disagrees with dijkstra")
    return tau_text(reference)


def small_graphs(program: Program, rng: random.Random, workdir: Path,
                 plateau: int = 200, tanks: int = 2000) -> list[Op]:
    """Thousands of tiny graphs through the library, every applicable route each."""
    fg = program.fg
    families = ["plateau"] * plateau + ["tanks"] * tanks
    rng.shuffle(families)
    ops: list[Op] = []
    for index, family in enumerate(families):
        if family == "plateau":
            text = inputs.plateau_graph_text(rng)
        else:
            text = inputs.tanks_graph_text(rng)

        def run(text=text, node_weighted=family == "plateau"):
            graph, omega = fg.parse_graph(text)
            if omega is None:
                omega = dict.fromkeys(graph.nodes, fg.TOP)
            view = fg.derive_edge_graph(graph) if node_weighted else graph
            taus = _edge_routes(fg, view, omega)
            if node_weighted:
                taus["core"] = fg.core_expanding_flood(graph, omega).tau
            else:
                taus["oracle"] = fg.oracle_flood(graph, omega)
            return taus, fg.is_edge_flooding(view, taus["dijkstra"])

        ops.append(Op(f"{family}/{index}", text.count("\nnode "), run, _check_routes))
    return ops


@dataclass(frozen=True)
class Workload:
    build: Callable[..., list[Op]]
    round_s: float


# round_s is about one round's wall time at the commit that defined the
# benchmark (2 vCPU, Python 3.11).  A run measures round(seconds / round_s)
# whole rounds, so every run of a workload times the same op sequence and
# the tail percentile always sits on the same rank.  raster-cli's round is
# six rasters, so that with four rounds its slowest op (berge) has 24
# samples and the tail rank falls in their middle rather than at their edge.
WORKLOADS = {
    "raster-cli": Workload(raster_cli, 6.25),
    "hierarchy": Workload(hierarchy, 4.0),
    "small-graphs": Workload(small_graphs, 1.1),
}
