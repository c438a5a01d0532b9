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

Exit codes: 0 success; 1 domain error (a PreconditionError, or an invalid
flooding in `validate`); 2 misuse, an unreadable file, a GraphFormatError or
a ConstructionError (an unknown or duplicate node, a --tau file off the nodes);
141, with nothing on stderr, when the reader closes stdout early.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cache
from itertools import chain, islice

from .errors import ConstructionError, GraphFormatError, PreconditionError
from .formats import (
    HEADER,
    _FIRST_LINE,
    _values,
    parse_graph,
    parse_node_values,
    read_pgm,
    serialize_graph,
    write_pgm,
)
from .graphs import Graph, NodeValues, grid_graph, values_by_index
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
from .weights import BOTTOM, TOP, Weight


@dataclass(frozen=True)
class Ingested:
    graph: Graph
    file_omega: NodeValues | None
    raster_shape: tuple[int, int] | None


def _read_bytes(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _decode(data: bytes, path: str) -> str:
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise GraphFormatError(f"{path}: not UTF-8 text and not a PGM raster") from exc


def _read_text(path: str) -> str:
    return _decode(_read_bytes(path), path)


def _utf8_name(arg: str) -> str:
    """A node name from the command line, read as UTF-8 like the files."""
    return os.fsencode(arg).decode("utf-8")  # argparse reports a ValueError as misuse


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


def resolve_ceiling(args: argparse.Namespace, ingested: Ingested) -> NodeValues:
    """Ceiling precedence: --ceiling file, then graph-file omega, then top."""
    graph, path = ingested.graph, args.ceiling
    if path is None:
        if ingested.file_omega is not None:  # complete, over the graph
            return ingested.file_omega
        return NodeValues(graph, [TOP] * len(graph.nodes))
    data = _read_bytes(path)
    if data[:2] in (b"P2", b"P5"):
        if ingested.raster_shape is None:
            raise GraphFormatError(f"{path}: raster ceiling requires a raster graph input")
        rows = read_pgm(data)
        shape = (len(rows), len(rows[0]))
        if shape != ingested.raster_shape:
            raise GraphFormatError(
                f"{path}: ceiling is {shape[0]}x{shape[1]} but the ground is "
                f"{ingested.raster_shape[0]}x{ingested.raster_shape[1]}"
            )
        return NodeValues(graph, [value for row in rows for value in row])
    text = _decode(data, path)
    if _FIRST_LINE.match(text)[1].rstrip() != HEADER:  # a node left out is at top
        return _node_values(path, text, graph, "ceiling", TOP)
    other, values = parse_graph(text)
    if set(other.nodes) != set(graph.nodes):  # in any order, so every name is known
        raise GraphFormatError(f"{path}: ceiling graph has a different node set")
    return NodeValues(graph, values_by_index(graph, values or {}, "ceiling", TOP))


def _node_values(
    path: str, text: str, graph: Graph, what: str, default: Weight | None = None
) -> NodeValues:
    """A node-values file read against ``graph``: a node it misses or names wrongly is its fault."""
    try:
        return parse_node_values(text, graph, what, default)
    except PreconditionError as exc:
        raise GraphFormatError(f"{path}: {exc}") from None


def edge_view(ingested: Ingested, args: argparse.Namespace, operation: str) -> Graph:
    graph = ingested.graph
    if graph.edge_weights is not None:
        return graph
    if graph.ground_values is None:
        raise PreconditionError(
            f"{operation} needs edge weights and the input carries none"
        )
    if not args.derive_edges:
        raise PreconditionError(
            f"{operation} needs edge weights; pass --derive-edges to compute "
            "them from the ground"
        )
    return derive_edge_graph(graph)


# A command's exit code, its output as text chunks (None: it writes none) and its counters
_Outcome = tuple[int, "Iterable[str] | None", "SolverStats | str | None"]


def _lines(lines: Iterable[str]) -> Iterator[str]:
    """Lines joined in chunks of about 64 KB, never the whole output at once."""
    chunk: list[str] = []
    size = 0  # characters in the chunk, newlines aside
    for line in lines:
        chunk.append(line)
        size += len(line)
        if size >= 65536:
            yield "\n".join(chunk) + "\n"
            chunk, size = [], 0
    if chunk:
        yield "\n".join(chunk) + "\n"


def _write(args: argparse.Namespace, chunks: Iterable[str]) -> None:
    """Write UTF-8 text whatever the locale: input node names are UTF-8 too."""
    if args.output:
        with open(args.output, "w", encoding="utf-8", newline="\n") as handle:
            handle.writelines(chunks)
        return
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:  # a text-only stream, such as io.StringIO
        sys.stdout.writelines(chunks)
    else:
        sys.stdout.flush()
        buffer.writelines(chunk.encode("utf-8") for chunk in chunks)


def cmd_flood(args: argparse.Namespace, ingested: Ingested) -> _Outcome:
    graph = ingested.graph
    omega = resolve_ceiling(args, ingested)
    if args.algo == "core":
        graph.require_ground_values("the core algorithm")
        view, result = graph, core_expanding_flood(graph, omega)
    else:
        view = edge_view(ingested, args, f"the {args.algo} algorithm")
        if args.algo == "berge":
            result = berge_flood(view, omega, schedule=args.schedule)
        elif args.algo == "dijkstra":
            result = dijkstra_flood(view, omega)
        elif args.algo == "prim":
            result = prim_flood(view, omega)
        else:
            dendrogram = build_lake_dendrogram(view)
            result = SolverResult(dendrogram_flood(dendrogram, omega))

    if args.validate_after:
        check = is_node_flooding if args.algo == "core" else is_edge_flooding
        report = check(view, result.tau)
        if not report:
            print(f"validate: invalid: {report.violations[0]}", file=sys.stderr)
            return 1, None, None
        print("validate: valid", file=sys.stderr)

    stats = f"clusters={len(dendrogram.diam)}" if args.algo == "dendro" else result.stats
    return 0, _values(result.tau), stats  # by index, whatever the route


def cmd_segment(args: argparse.Namespace, ingested: Ingested) -> _Outcome:
    view = edge_view(ingested, args, "segmentation")
    markers = parse_node_values(_read_text(args.markers))
    if not markers:
        raise PreconditionError(f"{args.markers}: no markers found")
    result = marker_segmentation(view, markers, engine=args.engine)
    labels = result.labels
    assert labels is not None
    if None in labels.levels:  # None marks a node that no marker reaches
        node = view.nodes[labels.levels.index(None)]
        raise PreconditionError(f"node {node!r} is unreachable from every marker")

    if args.label_pgm:
        if ingested.raster_shape is None:
            raise PreconditionError("--label-pgm requires a raster graph input")
        width = ingested.raster_shape[1]
        for node, label in markers.items():  # every label is a marker's label
            if not isinstance(label, int) or not 0 <= label <= 65535:
                raise PreconditionError(
                    f"label {label} at node {node!r} does not fit in a PGM gray value"
                )
        flat = labels.levels  # node i is pixel divmod(i, width)
        raster = [flat[start : start + width] for start in range(0, len(flat), width)]
        with open(args.label_pgm, "wb") as handle:
            handle.write(write_pgm(raster))

    return 0, _values(*((labels, result.tau) if args.tau else (labels,))), result.stats


def cmd_fldist(args: argparse.Namespace, ingested: Ingested) -> _Outcome:
    return 0, _values(flooding_distance_all(edge_view(ingested, args, "fldist"), args.source)), None


def cmd_mst(args: argparse.Namespace, ingested: Ingested) -> _Outcome:
    return 0, serialize_graph(mst(edge_view(ingested, args, "mst"))), None


def cmd_dendro(args: argparse.Namespace, ingested: Ingested) -> _Outcome:
    if args.ceiling is not None and not args.flood:  # misuse: the file would go unread
        raise argparse.ArgumentError(None, "dendro reads --ceiling only with --flood")
    dendro = build_lake_dendrogram(edge_view(ingested, args, "dendro"))
    # flooded before any output, so a bad ceiling writes nothing
    tail = _values(dendrogram_flood(dendro, resolve_ceiling(args, ingested))) if args.flood else ()
    names, diam, father = dendro.graph.nodes, dendro.diam, dendro.father
    leaves, bottom = len(names), f" diam={BOTTOM} father="  # every leaf's diam is bottom

    def leaf_chunk(lo: int) -> str:  # a leaf's one member is its own name
        rows = zip(range(lo, lo + 65536), father[lo : lo + 65536], names[lo : lo + 65536])
        return "".join([f"cluster {index}{bottom}{'none' if up is None else up} leaves={name}\n"
                        for index, up, name in rows])

    inner = (
        f"cluster {index} diam={diam[index]} "
        f"father={'none' if father[index] is None else father[index]} leaves={' '.join(members)}"
        for index, members in enumerate(islice(dendro.all_members(), leaves, None), leaves)
    )
    return 0, chain(map(leaf_chunk, range(0, leaves, 65536)), _lines(inner), tail), None


def cmd_lakes(args: argparse.Namespace, ingested: Ingested) -> _Outcome:
    graph = ingested.graph
    tau = _node_values(args.tau, _read_text(args.tau), graph, "tau")
    names, edge_u, edge_v = graph.nodes, graph.edge_u, graph.edge_v
    part = lakes(graph, tau)
    return 0, _lines(
        f"lake {index} level={level} kind={'full' if out else 'regmin'} "
        f"nodes={' '.join(block)} exhaust="
        + " ".join(f"{names[edge_u[eid]]}-{names[edge_v[eid]]}" for eid in out)
        for index, (level, block, out) in enumerate(zip(part.levels, part.members, part.exhaust))
    ), None


def cmd_validate(args: argparse.Namespace, ingested: Ingested) -> _Outcome:
    graph = ingested.graph
    tau = _node_values(args.tau, _read_text(args.tau), graph, "tau")
    if graph.edge_weights is not None:
        report = is_edge_flooding(graph, tau)
    else:
        graph.require_ground_values("validate")
        report = is_node_flooding(graph, tau)
    if report:
        return 0, _lines(["valid"]), None
    return 1, _lines(["invalid", *report.violations]), None


def cmd_contract(args: argparse.Namespace, ingested: Ingested) -> _Outcome:
    graph = ingested.graph
    graph.require_ground_values("contract")
    omega: NodeValues | None = None  # no ceiling: none to build or check, no omega= written
    if args.ceiling is not None or ingested.file_omega is not None:
        omega = resolve_ceiling(args, ingested)
    contracted, mapping, contracted_omega = contract_flat_zones(graph, omega)
    blocks = (f"# block {rep} {' '.join(members)}" for rep, members in mapping.blocks.items())
    return 0, chain(serialize_graph(contracted, contracted_omega), _lines(blocks)), None


def cmd_localflood(args: argparse.Namespace, ingested: Ingested) -> _Outcome:
    ingested.graph.require_ground_values("localflood")
    level = local_flood(ingested.graph, resolve_ceiling(args, ingested), args.node)
    return 0, _lines([f"{args.node} {level}"]), None


@cache  # built once per process: parsing keeps no state in the parser
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="floodgraph",
        description="Flooding of node- and edge-weighted graphs.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    def shared(*flags: str, **spec) -> argparse.ArgumentParser:
        """A parent parser: each option shared by several commands is declared once."""
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument(*flags, **spec)
        return parent

    graph = shared("--graph", required=True, help="graph file or PGM raster")
    graph.add_argument(
        "--connectivity",
        type=int,
        choices=(4, 8),
        default=4,
        help="grid connectivity for raster inputs (default: 4)",
    )
    graph.add_argument("-o", "--output", help="write the report here, not stdout")
    derive = shared(
        "--derive-edges",
        action="store_true",
        help="derive edge weights from the ground (max of endpoints)",
    )
    ceiling = shared("--ceiling", help="ceiling file (raster, values, or graph)")
    stats = shared("--stats", action="store_true", help="counters on stderr")
    tau = shared("--tau", required=True, help='file of "node tau" lines')

    def command(name: str, run, description: str, *parents: argparse.ArgumentParser):
        sub = commands.add_parser(name, help=description, parents=[graph, *parents])
        sub.set_defaults(run=run)
        return sub

    flood = command(
        "flood", cmd_flood, "dominated flooding under a ceiling", derive, ceiling, stats
    )
    flood.add_argument(
        "--algo",
        required=True,
        choices=("berge", "dijkstra", "prim", "core", "dendro"),
    )
    flood.add_argument(
        "--schedule",
        choices=("gauss_seidel", "jacobi"),
        default="gauss_seidel",
        help="sweep order for --algo berge",
    )
    flood.add_argument("--validate-after", action="store_true")

    segment = command("segment", cmd_segment, "marker-based segmentation", derive, stats)
    segment.add_argument("--markers", required=True, help='file of "node label" lines')
    segment.add_argument("--engine", choices=("dijkstra", "prim"), default="dijkstra")
    segment.add_argument("--tau", action="store_true", help="also print the distance to the marker")
    segment.add_argument("--label-pgm", help="write labels as a PGM raster here")

    fldist = command("fldist", cmd_fldist, "flooding distances from one node", derive)
    fldist.add_argument("--from", dest="source", required=True, metavar="NODE", type=_utf8_name)
    command("mst", cmd_mst, "minimum spanning tree of the edge weights", derive)
    dendro = command("dendro", cmd_dendro, "lake dendrogram of the edge weights", derive, ceiling)
    dendro.add_argument("--flood", action="store_true", help="also flood on the dendrogram")
    command("lakes", cmd_lakes, "lake partition of a flooding", tau)
    command("validate", cmd_validate, "check a flooding", tau)
    command("contract", cmd_contract, "contract flat zones", ceiling)
    localflood = command("localflood", cmd_localflood, "flooding level at a single node", ceiling)
    localflood.add_argument("--node", required=True, type=_utf8_name)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:  # a command runs every check before it returns, so a failing one writes nothing
        code, chunks, stats = args.run(args, ingest_graph(args.graph, args.connectivity))
        if stats is not None and args.stats:  # a solver's counters, or a route's own counts
            if isinstance(stats, SolverStats):
                e, r, s = stats.extractions, stats.relaxations, stats.sweeps
                stats = f"extractions={e} relaxations={r} sweeps={s}"
            print(f"stats: {stats}", file=sys.stderr)
        if chunks is not None:
            _write(args, chunks)
        return code
    except BrokenPipeError:  # the reader closed stdout: stop quietly, as on SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)  # so the flush at exit cannot fail again
        os.close(devnull)
        return 141
    except (argparse.ArgumentError, GraphFormatError, ConstructionError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
