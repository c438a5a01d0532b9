"""Command-line interface: flood, segment, measure, and report.

Commands:
    flood       dominated flooding under a ceiling (five algorithms)
    segment     marker-based segmentation
    fldist      flooding distances from one node
    mst         minimum spanning tree of the edge weights
    dendro      lake dendrogram, optionally with a flooding
    lakes       lake partition of a given flooding
    validate    check a flooding against the criterion of the input kind
    contract    flat-zone contraction
    localflood  flooding level at a single node

Graphs are read from the text format or from PGM rasters (P2/P5, told
apart by the magic number; pixel values become the ground).  The ceiling
may be a second raster of the same dimensions, a node-values file, or a
graph file carrying omega attributes.  Output is plain text in node
declaration order, byte-identical across runs.

Exit codes: 0 success, 1 domain error (precondition violated, invalid
flooding), 2 usage or parse error.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

from .errors import ConstructionError, GraphFormatError, PreconditionError
from .formats import (
    HEADER,
    parse_graph,
    parse_node_values,
    read_pgm,
    serialize_graph,
    write_pgm,
)
from .graphs import Graph, NodeFunction, check_ceiling, grid_graph, grid_node, values_by_index
from .hydro import derive_edge_graph, is_edge_flooding, is_node_flooding, lakes
from .dendrogram import build_lake_dendrogram, dendrogram_flood
from .reductions import contract_flat_zones, local_flood
from .solvers import (
    SolverResult,
    SolverStats,
    berge_flood,
    core_expanding_flood,
    dijkstra_flood,
    marker_segmentation,
    prim_flood,
)
from .ultrametric import flooding_distance_all, mst
from .weights import TOP, format_weight


@dataclass(frozen=True)
class Ingested:
    graph: Graph
    file_omega: NodeFunction | None
    raster_shape: tuple[int, int] | None


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _decode(data: bytes, path: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not UTF-8 text and not a PGM raster") from exc


def _connectivity(args: argparse.Namespace) -> int:
    if getattr(args, "connectivity", None) is not None:
        return args.connectivity
    raw = os.environ.get("FLOODGRAPH_CONNECTIVITY")
    if raw is None:
        return 4
    if raw not in ("4", "8"):
        raise GraphFormatError(f"FLOODGRAPH_CONNECTIVITY must be 4 or 8, got {raw!r}")
    return int(raw)


def ingest_graph(path: str, connectivity: int) -> Ingested:
    data = _read_bytes(path)
    if data[:2] in (b"P2", b"P5"):
        raster = read_pgm(data)
        return Ingested(
            graph=grid_graph(raster, connectivity),
            file_omega=None,
            raster_shape=(len(raster), len(raster[0])),
        )
    graph, omega = parse_graph(_decode(data, path))
    return Ingested(graph=graph, file_omega=omega, raster_shape=None)


def _ceiling_from_file(path: str, ingested: Ingested) -> NodeFunction:
    data = _read_bytes(path)
    graph = ingested.graph
    if data[:2] in (b"P2", b"P5"):
        if ingested.raster_shape is None:
            raise GraphFormatError(
                f"{path}: raster ceiling requires a raster graph input"
            )
        rows = read_pgm(data)
        shape = (len(rows), len(rows[0]))
        if shape != ingested.raster_shape:
            raise GraphFormatError(
                f"{path}: ceiling is {shape[0]}x{shape[1]} but the ground is "
                f"{ingested.raster_shape[0]}x{ingested.raster_shape[1]}"
            )
        return {
            grid_node(r, c): value
            for r, row in enumerate(rows)
            for c, value in enumerate(row)
        }
    text = _decode(data, path)
    meaningful = next(
        (line.split("#", 1)[0].strip() for line in text.splitlines()
         if line.split("#", 1)[0].strip()),
        "",
    )
    if meaningful == HEADER:
        other, omega = parse_graph(text)
        if other.nodes != graph.nodes:
            raise GraphFormatError(f"{path}: ceiling graph has a different node set")
        return omega if omega is not None else dict.fromkeys(graph.nodes, TOP)
    values = parse_node_values(text)
    for node in values:
        if node not in graph:
            raise GraphFormatError(f"{path}: ceiling names unknown node {node!r}")
    ceiling = dict.fromkeys(graph.nodes, TOP)
    ceiling.update(values)  # every key is a node, so the order stays the graph's
    return ceiling


def resolve_ceiling(args: argparse.Namespace, ingested: Ingested) -> NodeFunction:
    """Ceiling precedence: --ceiling file, then graph-file omega, then top."""
    if getattr(args, "ceiling", None) is not None:
        return _ceiling_from_file(args.ceiling, ingested)
    if ingested.file_omega is not None:
        return dict(ingested.file_omega)
    return dict.fromkeys(ingested.graph.nodes, TOP)


def edge_view(ingested: Ingested, args: argparse.Namespace, operation: str) -> Graph:
    graph = ingested.graph
    if graph.has_edge_weights:
        return graph
    if not graph.has_ground:
        raise PreconditionError(
            f"{operation} needs edge weights and the input carries none"
        )
    if not getattr(args, "derive_edges", False):
        raise PreconditionError(
            f"{operation} needs edge weights; pass --derive-edges to compute "
            "them from the ground"
        )
    return derive_edge_graph(graph)


def _emit(args: argparse.Namespace, lines: list[str]) -> None:
    _write(args, "".join(line + "\n" for line in lines))


def _write(args: argparse.Namespace, text: str) -> None:
    output = getattr(args, "output", None)
    if output:
        with open(output, "w", newline="\n") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _solver_counters(stats: SolverStats) -> str:
    return f"extractions={stats.extractions} relaxations={stats.relaxations} sweeps={stats.sweeps}"


def _emit_stats(args: argparse.Namespace, counters: str) -> None:
    if getattr(args, "stats", False):
        print(f"stats: {counters}", file=sys.stderr)


_SCHEDULES = {"gauss_seidel": "gauss_seidel_alternating", "jacobi": "jacobi"}


def cmd_flood(args: argparse.Namespace) -> int:
    ingested = ingest_graph(args.graph, _connectivity(args))
    graph = ingested.graph
    omega = resolve_ceiling(args, ingested)
    counters = None  # the solver's counters unless the route measures others

    if args.algo == "core":
        graph.require_ground_values("the core algorithm")
        result = core_expanding_flood(graph, omega)
        view = graph
    else:
        view = edge_view(ingested, args, f"the {args.algo} algorithm")
        if args.algo == "berge":
            result = berge_flood(view, omega, schedule=_SCHEDULES[args.schedule])
        elif args.algo == "dijkstra":
            result = dijkstra_flood(view, omega)
        elif args.algo == "prim":
            sources = {n: omega[n] for n in view.nodes if omega[n] < TOP}
            if sources:
                result = prim_flood(view, sources)
            else:
                result = SolverResult(tau={n: TOP for n in view.nodes})
        else:
            check_ceiling(view, values_by_index(view, omega, "omega"))
            dendrogram = build_lake_dendrogram(view)
            result = SolverResult(tau=dendrogram_flood(dendrogram, omega))
            counters = f"clusters={len(dendrogram.clusters)}"

    if args.validate_after:
        if args.algo == "core":
            report = is_node_flooding(graph, result.tau)
        else:
            report = is_edge_flooding(view, result.tau)
        if not report:
            print(f"validate: invalid: {report.violations[0]}", file=sys.stderr)
            return 1
        print("validate: valid", file=sys.stderr)

    _emit_stats(args, counters or _solver_counters(result.stats))
    _emit(args, [f"{n} {format_weight(result.tau[n])}" for n in graph.nodes])
    return 0


def cmd_segment(args: argparse.Namespace) -> int:
    ingested = ingest_graph(args.graph, _connectivity(args))
    graph = ingested.graph
    view = edge_view(ingested, args, "segmentation")
    markers = parse_node_values(_decode(_read_bytes(args.markers), args.markers))
    if not markers:
        raise PreconditionError(f"{args.markers}: no markers found")
    for node in markers:
        if node not in graph:
            raise PreconditionError(f"marker names unknown node {node!r}")
    result = marker_segmentation(view, markers, engine=args.engine, want_tau=args.tau)
    labels = result.labels
    assert labels is not None
    for node in graph.nodes:
        if node not in labels:
            raise PreconditionError(f"node {node!r} is unreachable from every marker")

    if args.label_pgm:
        if ingested.raster_shape is None:
            raise PreconditionError("--label-pgm requires a raster graph input")
        height, width = ingested.raster_shape
        for node, label in labels.items():
            if not isinstance(label, int) or not 0 <= label <= 65535:
                raise PreconditionError(
                    f"label {format_weight(label)} at node {node!r} does not fit "
                    "in a PGM gray value"
                )
        raster = [
            [labels[grid_node(r, c)] for c in range(width)] for r in range(height)
        ]
        with open(args.label_pgm, "wb") as handle:
            handle.write(write_pgm(raster))

    _emit_stats(args, _solver_counters(result.stats))
    if args.tau:
        lines = [
            f"{n} {format_weight(labels[n])} {format_weight(result.tau[n])}"
            for n in graph.nodes
        ]
    else:
        lines = [f"{n} {format_weight(labels[n])}" for n in graph.nodes]
    _emit(args, lines)
    return 0


def cmd_fldist(args: argparse.Namespace) -> int:
    ingested = ingest_graph(args.graph, _connectivity(args))
    view = edge_view(ingested, args, "fldist")
    view.node_index(args.source)
    distances = flooding_distance_all(view, args.source)
    _emit(args, [f"{n} {format_weight(distances[n])}" for n in view.nodes])
    return 0


def cmd_mst(args: argparse.Namespace) -> int:
    ingested = ingest_graph(args.graph, _connectivity(args))
    view = edge_view(ingested, args, "mst")
    tree = mst(view)
    _write(args, serialize_graph(tree))
    return 0


def cmd_dendro(args: argparse.Namespace) -> int:
    ingested = ingest_graph(args.graph, _connectivity(args))
    view = edge_view(ingested, args, "dendro")
    dendro = build_lake_dendrogram(view)
    lines = []
    for cluster in dendro.clusters:
        father = "none" if cluster.father is None else str(cluster.father)
        leaves = " ".join(cluster.members)
        lines.append(
            f"cluster {cluster.index} diam={format_weight(cluster.diam)} "
            f"father={father} leaves={leaves}"
        )
    if args.flood:
        omega = resolve_ceiling(args, ingested)
        check_ceiling(view, values_by_index(view, omega, "omega"))
        tau = dendrogram_flood(dendro, omega)
        lines.extend(f"{n} {format_weight(tau[n])}" for n in view.nodes)
    _emit(args, lines)
    return 0


def cmd_lakes(args: argparse.Namespace) -> int:
    ingested = ingest_graph(args.graph, _connectivity(args))
    graph = ingested.graph
    tau = parse_node_values(_decode(_read_bytes(args.tau), args.tau))
    partition = lakes(graph, tau)
    lines = []
    for index, lake in enumerate(partition.lakes):
        exhaust = " ".join(
            f"{graph.nodes[graph.edge_u[eid]]}-{graph.nodes[graph.edge_v[eid]]}"
            for eid in lake.exhaust_edges
        )
        lines.append(
            f"lake {index} level={format_weight(lake.level)} kind={lake.kind.value} "
            f"nodes={' '.join(lake.nodes)} exhaust={exhaust}"
        )
    _emit(args, lines)
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    ingested = ingest_graph(args.graph, _connectivity(args))
    graph = ingested.graph
    tau = parse_node_values(_decode(_read_bytes(args.tau), args.tau))
    if graph.has_edge_weights:
        report = is_edge_flooding(graph, tau)
    else:
        graph.require_ground_values("validate")
        report = is_node_flooding(graph, tau)
    if report:
        _emit(args, ["valid"])
        return 0
    _emit(args, ["invalid", *report.violations])
    return 1


def cmd_contract(args: argparse.Namespace) -> int:
    ingested = ingest_graph(args.graph, _connectivity(args))
    graph = ingested.graph
    graph.require_ground_values("contract")
    omega: NodeFunction | None = None
    if args.ceiling is not None or ingested.file_omega is not None:
        omega = resolve_ceiling(args, ingested)
    contracted, mapping, contracted_omega = contract_flat_zones(graph, omega)
    blocks = "".join(
        f"# block {rep} {' '.join(members)}\n" for rep, members in mapping.blocks.items()
    )
    _write(args, serialize_graph(contracted, contracted_omega) + blocks)
    return 0


def cmd_localflood(args: argparse.Namespace) -> int:
    ingested = ingest_graph(args.graph, _connectivity(args))
    graph = ingested.graph
    graph.require_ground_values("localflood")
    omega = resolve_ceiling(args, ingested)
    graph.node_index(args.node)
    level = local_flood(graph, omega, args.node)
    _emit(args, [f"{args.node} {format_weight(level)}"])
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floodgraph",
        description="Flooding of node- and edge-weighted graphs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def common(sub: argparse.ArgumentParser, derive: bool = False) -> None:
        sub.add_argument("--graph", required=True, help="graph file or PGM raster")
        sub.add_argument(
            "--connectivity",
            type=int,
            choices=(4, 8),
            help="grid connectivity for raster inputs (default: env or 4)",
        )
        sub.add_argument("-o", "--output", help="write the report here, not stdout")
        if derive:
            sub.add_argument(
                "--derive-edges",
                action="store_true",
                help="derive edge weights from the ground (max of endpoints)",
            )

    flood = commands.add_parser("flood", help="dominated flooding under a ceiling")
    common(flood, derive=True)
    flood.add_argument(
        "--algo",
        required=True,
        choices=("berge", "dijkstra", "prim", "core", "dendro"),
    )
    flood.add_argument("--ceiling", help="ceiling file (raster, values, or graph)")
    flood.add_argument(
        "--schedule",
        choices=tuple(_SCHEDULES),
        default="gauss_seidel",
        help="sweep order for --algo berge",
    )
    flood.add_argument("--validate-after", action="store_true")
    flood.add_argument("--stats", action="store_true", help="counters on stderr")
    flood.set_defaults(run=cmd_flood)

    segment = commands.add_parser("segment", help="marker-based segmentation")
    common(segment, derive=True)
    segment.add_argument("--markers", required=True, help='file of "node label" lines')
    segment.add_argument("--engine", choices=("dijkstra", "prim"), default="dijkstra")
    segment.add_argument(
        "--tau", action="store_true", help="also print the distance to the marker"
    )
    segment.add_argument("--label-pgm", help="write labels as a PGM raster here")
    segment.add_argument("--stats", action="store_true", help="counters on stderr")
    segment.set_defaults(run=cmd_segment)

    fldist = commands.add_parser("fldist", help="flooding distances from one node")
    common(fldist, derive=True)
    fldist.add_argument("--from", dest="source", required=True, metavar="NODE")
    fldist.set_defaults(run=cmd_fldist)

    tree = commands.add_parser("mst", help="minimum spanning tree of the edge weights")
    common(tree, derive=True)
    tree.set_defaults(run=cmd_mst)

    dendro = commands.add_parser("dendro", help="lake dendrogram of the edge weights")
    common(dendro, derive=True)
    dendro.add_argument(
        "--flood", action="store_true", help="also flood on the dendrogram"
    )
    dendro.add_argument("--ceiling", help="ceiling file for --flood")
    dendro.set_defaults(run=cmd_dendro)

    lakes_cmd = commands.add_parser("lakes", help="lake partition of a flooding")
    common(lakes_cmd)
    lakes_cmd.add_argument("--tau", required=True, help='file of "node tau" lines')
    lakes_cmd.set_defaults(run=cmd_lakes)

    validate = commands.add_parser("validate", help="check a flooding")
    common(validate)
    validate.add_argument("--tau", required=True, help='file of "node tau" lines')
    validate.set_defaults(run=cmd_validate)

    contract = commands.add_parser("contract", help="contract flat zones")
    common(contract)
    contract.add_argument("--ceiling", help="ceiling file to contract along")
    contract.set_defaults(run=cmd_contract)

    localflood = commands.add_parser(
        "localflood", help="flooding level at a single node"
    )
    common(localflood)
    localflood.add_argument("--node", required=True)
    localflood.add_argument("--ceiling", help="ceiling file")
    localflood.set_defaults(run=cmd_localflood)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.run(args)
    except (GraphFormatError, ConstructionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
