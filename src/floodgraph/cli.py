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
flooding in `validate`); 2 misuse, an unwritable output, a GraphFormatError or
a ConstructionError (an unknown node); 141, with nothing on stderr, when the
reader closes stdout early.  Every fault in an input file (missing, malformed
or off the graph's nodes, a marker too) or an output file (`-o`, `--label-pgm`;
one that cannot be opened, or a full disk) exits 2 as ``error: <path>: ...``.
`main` alone writes the outputs: a run that cannot open one of them leaves
every file as it was, while a fault partway through a write leaves what was
written.
"""

from __future__ import annotations

import argparse
import os
import stat
import sys
from collections.abc import Iterable, Iterator
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from functools import cache
from itertools import chain, islice

from .errors import ConstructionError, GraphFormatError, PreconditionError
from .formats import (
    HEADER,
    _CHUNK,
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
from .weights import BOTTOM, TOP


@dataclass(frozen=True)
class Ingested:
    graph: Graph
    file_omega: NodeValues | None
    raster_shape: tuple[int, int] | None


@contextmanager
def _reading(path: str, raster: bool = False) -> Iterator[bytes | str]:
    """The content of an input file: its bytes when ``raster`` (the option takes a PGM)
    and it starts with a PGM magic, else its UTF-8 text.  A fault found as it is decoded
    or parsed is raised as ``<path>: <fault>``; an OSError carries the path itself."""
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        content = data if raster and data[:2] in (b"P2", b"P5") else data.decode("utf-8")
    except UnicodeDecodeError:
        raise GraphFormatError(f"{path}: not UTF-8 text and not a PGM raster") from None
    try:
        yield content
    except (GraphFormatError, PreconditionError) as exc:  # found as the caller parses it
        raise GraphFormatError(f"{path}: {exc}") from None


def _utf8_name(arg: str) -> str:
    """A node name from the command line, read as UTF-8 like the files."""
    return os.fsencode(arg).decode("utf-8")  # argparse reports a ValueError as misuse


def ingest_graph(path: str, connectivity: int) -> Ingested:
    with _reading(path, raster=True) as content:
        if isinstance(content, bytes):
            raster = read_pgm(content)
            return Ingested(grid_graph(raster, connectivity), None, (len(raster), len(raster[0])))
        return Ingested(*parse_graph(content), raster_shape=None)


def resolve_ceiling(args: argparse.Namespace, ingested: Ingested) -> NodeValues:
    """Ceiling precedence: --ceiling file, then graph-file omega, then top."""
    graph, shape = ingested.graph, ingested.raster_shape
    if args.ceiling is None:
        if ingested.file_omega is not None:  # complete, over the graph
            return ingested.file_omega
        return NodeValues(graph, [TOP] * len(graph.nodes))
    with _reading(args.ceiling, raster=True) as content:
        if isinstance(content, bytes):
            if shape is None:
                raise GraphFormatError("raster ceiling requires a raster graph input")
            rows = read_pgm(content)
            if (len(rows), len(rows[0])) != shape:
                raise GraphFormatError(f"ceiling is {len(rows)}x{len(rows[0])} but the ground "
                                       f"is {shape[0]}x{shape[1]}")
            return NodeValues(graph, [value for row in rows for value in row])
        if _FIRST_LINE.match(content)[1].rstrip() != HEADER:  # a node left out is at top
            return parse_node_values(content, graph, "ceiling", TOP)
        other, values = parse_graph(content)
        if set(other.nodes) != set(graph.nodes):  # in any order, so every name is known
            raise GraphFormatError("ceiling graph has a different node set")
        return NodeValues(graph, values_by_index(graph, values or {}, "ceiling", TOP))


def edge_view(graph: Graph) -> Graph:
    """The graph with edge weights: its own, or derived from its ground (check_need ran)."""
    return graph if graph.edge_weights is not None else derive_edge_graph(graph)


def check_need(args: argparse.Namespace, graph: Graph) -> Graph:
    """The graph the command works on, once one without the need build_parser declares is
    refused: "ground", "either" (the edge weights, else the ground) or "edges", met by the
    edge view (which --derive-edges may make from a ground)."""
    need, subject = args.need, args.command
    if isinstance(need, dict):  # flood: the need follows --algo
        need, subject = need[args.algo], f"the {args.algo} algorithm"
    if need == "edges" and graph.edge_weights is None:
        if graph.ground_values is None:
            raise PreconditionError(f"{subject} needs edge weights and the input carries none")
        if not args.derive_edges:
            raise PreconditionError(f"{subject} needs edge weights; pass --derive-edges to "
                                    "compute them from the ground")
    elif need == "ground" or need == "either" and graph.edge_weights is None:
        graph.require_ground_values(subject)
    return edge_view(graph) if need == "edges" else graph


# A command's exit code, its report as text chunks (None: it writes none), its counters and
# the files to write beside the report, each path to its bytes
_Outcome = tuple[int, "Iterable[str] | None", "SolverStats | str | None", "dict[str, bytes]"]


def _lines(lines: Iterable[str]) -> Iterator[str]:
    """Lines joined in chunks of about 64 KB, never the whole output at once."""
    chunk: list[str] = []
    size = 0  # characters in the chunk, newlines aside
    for line in lines:
        chunk.append(line)
        size += len(line)
        if size >= _CHUNK:
            yield "\n".join(chunk) + "\n"
            chunk, size = [], 0
    if chunk:
        yield "\n".join(chunk) + "\n"


def _write(outputs: dict[str | None, Iterable[str] | bytes]) -> None:
    """Write each output, a file by its path or stdout under None: text chunks as UTF-8
    whatever the locale (input node names are UTF-8 too), or bytes.  Every file is opened
    before any is truncated, so a run that cannot open one leaves every file as it was (one
    it made is removed); the files are written first, stdout last, and an OSError raised as
    a file is opened, written or closed carries the file's path."""
    opened = []  # (path, handle, made by this run), each opened without truncating
    try:
        for path in filter(None, outputs):
            try:
                opened.append((path, open(path, "xb"), True))
            except FileExistsError:
                opened.append((path, open(path, "ab"), False))
    except OSError:
        for path, handle, made in opened:
            handle.close()
            if made:
                os.remove(path)
        raise
    with ExitStack() as stack:  # closes the files left unwritten when one faults
        for _, handle, _ in opened:
            stack.enter_context(handle)
        for path, handle, made in opened:
            content = outputs[path]
            try:
                with handle:  # closed in the try: a full disk may fault as the buffer flushes
                    if not made and stat.S_ISREG(os.fstat(handle.fileno()).st_mode):
                        handle.truncate(0)  # an earlier file, never a device like /dev/null
                    if isinstance(content, bytes):
                        handle.write(content)
                    else:
                        handle.writelines(chunk.encode("utf-8") for chunk in content)
            except OSError as exc:
                exc.filename = path
                raise
    chunks = outputs.get(None)
    if chunks is None:
        return
    buffer = getattr(sys.stdout, "buffer", None)
    if buffer is None:  # a text-only stream, such as io.StringIO
        sys.stdout.writelines(chunks)
    else:
        sys.stdout.flush()
        buffer.writelines(chunk.encode("utf-8") for chunk in chunks)


def cmd_flood(args: argparse.Namespace, ingested: Ingested, graph: Graph) -> _Outcome:
    omega = resolve_ceiling(args, ingested)
    if args.algo == "core":
        result = core_expanding_flood(graph, omega)
    elif args.algo == "berge":
        result = berge_flood(graph, omega, schedule=args.schedule)
    elif args.algo == "dijkstra":
        result = dijkstra_flood(graph, omega)
    elif args.algo == "prim":
        result = prim_flood(graph, omega)
    else:
        dendrogram = build_lake_dendrogram(graph)
        result = SolverResult(dendrogram_flood(dendrogram, omega))

    if args.validate_after:
        check = is_node_flooding if args.algo == "core" else is_edge_flooding
        report = check(graph, result.tau)
        if not report:
            print(f"validate: invalid: {report.violations[0]}", file=sys.stderr)
            return 1, None, None, {}
        print("validate: valid", file=sys.stderr)

    stats = f"clusters={len(dendrogram.diam)}" if args.algo == "dendro" else result.stats
    return 0, _values(result.tau), stats, {}  # by index, whatever the route


def cmd_segment(args: argparse.Namespace, ingested: Ingested, graph: Graph) -> _Outcome:
    with _reading(args.markers) as text:
        markers = parse_node_values(text)
    if not markers:
        raise PreconditionError(f"{args.markers}: no markers found")
    try:
        result = marker_segmentation(graph, markers, engine=args.engine)
    except ConstructionError as exc:  # the one it raises: a marker off the graph
        raise ConstructionError(f"{args.markers}: {exc}") from None
    labels = result.labels
    assert labels is not None
    if None in labels.levels:  # None marks a node that no marker reaches
        node = graph.nodes[labels.levels.index(None)]
        raise PreconditionError(f"node {node!r} is unreachable from every marker")

    files = {}
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
        files[args.label_pgm] = write_pgm(raster)

    return 0, _values(*((labels, result.tau) if args.tau else (labels,))), result.stats, files


def cmd_fldist(args: argparse.Namespace, ingested: Ingested, graph: Graph) -> _Outcome:
    return 0, _values(flooding_distance_all(graph, args.source)), None, {}


def cmd_mst(args: argparse.Namespace, ingested: Ingested, graph: Graph) -> _Outcome:
    return 0, serialize_graph(mst(graph)), None, {}


def cmd_dendro(args: argparse.Namespace, ingested: Ingested, graph: Graph) -> _Outcome:
    if args.ceiling is not None and not args.flood:  # misuse: the file would go unread
        raise argparse.ArgumentError(None, "dendro reads --ceiling only with --flood")
    dendro = build_lake_dendrogram(graph)
    # flooded before any output, so a bad ceiling writes nothing
    tail = _values(dendrogram_flood(dendro, resolve_ceiling(args, ingested))) if args.flood else ()
    names, diam, father = dendro.graph.nodes, dendro.diam, dendro.father
    leaves, bottom = len(names), f" diam={BOTTOM} father="  # every leaf's diam is bottom

    def leaf_chunk(lo: int) -> str:  # a leaf's one member is its own name
        rows = zip(range(lo, lo + _CHUNK), father[lo : lo + _CHUNK], names[lo : lo + _CHUNK])
        return "".join([f"cluster {index}{bottom}{'none' if up is None else up} leaves={name}\n"
                        for index, up, name in rows])

    inner = (
        f"cluster {index} diam={diam[index]} "
        f"father={'none' if father[index] is None else father[index]} leaves={' '.join(members)}"
        for index, members in enumerate(islice(dendro.all_members(), leaves, None), leaves)
    )
    return 0, chain(map(leaf_chunk, range(0, leaves, _CHUNK)), _lines(inner), tail), None, {}


def cmd_lakes(args: argparse.Namespace, ingested: Ingested, graph: Graph) -> _Outcome:
    with _reading(args.tau) as text:
        tau = parse_node_values(text, graph, "tau")
    names, edge_u, edge_v = graph.nodes, graph.edge_u, graph.edge_v
    part = lakes(graph, tau)
    return 0, _lines(
        f"lake {index} level={level} kind={'full' if out else 'regmin'} "
        f"nodes={' '.join(block)} exhaust="
        + " ".join(f"{names[edge_u[eid]]}-{names[edge_v[eid]]}" for eid in out)
        for index, (level, block, out) in enumerate(zip(part.levels, part.members, part.exhaust))
    ), None, {}


def cmd_validate(args: argparse.Namespace, ingested: Ingested, graph: Graph) -> _Outcome:
    with _reading(args.tau) as text:
        tau = parse_node_values(text, graph, "tau")
    check = is_edge_flooding if graph.edge_weights is not None else is_node_flooding
    report = check(graph, tau)
    if report:
        return 0, _lines(["valid"]), None, {}
    return 1, _lines(["invalid", *report.violations]), None, {}


def cmd_contract(args: argparse.Namespace, ingested: Ingested, graph: Graph) -> _Outcome:
    omega: NodeValues | None = None  # no ceiling: none to build or check, no omega= written
    if args.ceiling is not None or ingested.file_omega is not None:
        omega = resolve_ceiling(args, ingested)
    contracted, mapping, contracted_omega = contract_flat_zones(graph, omega)
    blocks = (f"# block {rep} {' '.join(members)}" for rep, members in mapping.blocks.items())
    return 0, chain(serialize_graph(contracted, contracted_omega), _lines(blocks)), None, {}


def cmd_localflood(args: argparse.Namespace, ingested: Ingested, graph: Graph) -> _Outcome:
    level = local_flood(graph, resolve_ceiling(args, ingested), args.node)
    return 0, _lines([f"{args.node} {level}"]), None, {}


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

    def command(run, need, description: str, *parents: argparse.ArgumentParser):
        name = run.__name__.removeprefix("cmd_")
        sub = commands.add_parser(name, help=description, parents=[graph, *parents])
        sub.set_defaults(run=run, need=need)
        return sub

    algos = {"berge": "edges", "dijkstra": "edges", "prim": "edges", "core": "ground",
             "dendro": "edges"}
    flood = command(cmd_flood, algos, "dominated flooding under a ceiling", derive, ceiling, stats)
    flood.add_argument("--algo", required=True, choices=tuple(algos))
    flood.add_argument(
        "--schedule",
        choices=("gauss_seidel", "jacobi"),
        default="gauss_seidel",
        help="sweep order for --algo berge",
    )
    flood.add_argument("--validate-after", action="store_true")

    segment = command(cmd_segment, "edges", "marker-based segmentation", derive, stats)
    segment.add_argument("--markers", required=True, help='file of "node label" lines')
    segment.add_argument("--engine", choices=("dijkstra", "prim"), default="dijkstra")
    segment.add_argument("--tau", action="store_true", help="also print the distance to the marker")
    segment.add_argument("--label-pgm", help="write labels as a PGM raster here")

    fldist = command(cmd_fldist, "edges", "flooding distances from one node", derive)
    fldist.add_argument("--from", dest="source", required=True, metavar="NODE", type=_utf8_name)
    command(cmd_mst, "edges", "minimum spanning tree of the edge weights", derive)
    dendro = command(cmd_dendro, "edges", "lake dendrogram of the edge weights", derive, ceiling)
    dendro.add_argument("--flood", action="store_true", help="also flood on the dendrogram")
    command(cmd_lakes, "either", "lake partition of a flooding", tau)
    command(cmd_validate, "either", "check a flooding", tau)
    command(cmd_contract, "ground", "contract flat zones", ceiling)
    localflood = command(cmd_localflood, "ground", "flooding level at a single node", ceiling)
    localflood.add_argument("--node", required=True, type=_utf8_name)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # a command runs every check before it returns and opens no output, so a failing one writes
    # nothing; an output that cannot be opened leaves every file as it was (_write opens them
    # all before it truncates any), while a fault partway through a write leaves what was written
    try:
        ingested = ingest_graph(args.graph, args.connectivity)
        # the graph the command works on, checked before any other file is read
        code, chunks, stats, files = args.run(args, ingested, check_need(args, ingested.graph))
        if stats is not None and args.stats:  # a solver's counters, or a route's own counts
            if isinstance(stats, SolverStats):
                e, r, s = stats.extractions, stats.relaxations, stats.sweeps
                stats = f"extractions={e} relaxations={r} sweeps={s}"
            print(f"stats: {stats}", file=sys.stderr)
        if chunks is not None:  # the report to -o or stdout, after the files beside it
            _write({**files, args.output or None: chunks})
        return code
    except BrokenPipeError:  # the reader closed stdout: stop quietly, as on SIGPIPE
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, 1)  # so the flush at exit cannot fail again
        os.close(devnull)
        return 141
    except (argparse.ArgumentError, GraphFormatError, ConstructionError, OSError) as exc:
        named = isinstance(exc, OSError) and exc.filename is not None  # a file, read or written
        print(f"error: {f'{exc.filename}: {exc.strerror}' if named else exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
