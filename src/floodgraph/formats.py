"""Text and image formats.

The native graph format is line-oriented::

    floodgraph v1
    # comment
    node a f=0 omega=5
    node b f=4
    edge a b w=4

``f`` values (the ground) must be given for every node or for none.  The
same goes for edge ``w`` weights.  ``omega`` (the flooding ceiling) may be
partial; nodes without one default to the top value.  Weights are
non-negative integers or the tokens ``inf`` / ``-inf``.

`serialize_graph` writes it as text chunks of at most 65,536 node or edge
lines, once every check has passed.  Node values (flooding results,
markers, ceilings) use one ``<node> <value>`` pair per line, in any order;
read against a graph, lines in node order are placed by index, with no
name table.  Rasters are read as PGM,
plain (P2) or binary (P5), and written as P5, with 16-bit big-endian
samples when maxval exceeds 255.
"""

from __future__ import annotations

import re
from collections.abc import Collection, Iterator, Mapping, Sequence
from itertools import chain

from .errors import GraphFormatError
from .graphs import Graph, NodeFunction, NodeValues, index_graph, values_by_index
from .weights import TOP, Weight, parse_weight

__all__ = [
    "HEADER",
    "parse_graph",
    "parse_node_values",
    "read_pgm",
    "serialize_graph",
    "write_pgm",
]

HEADER = "floodgraph v1"
_CHUNK = 65536  # the writers' chunk: at most this many lines, or about this many characters
_BREAKS = r"\n\r\x0b\x0c\x1c-\x1e\x85\u2028\u2029"  # the line breaks of str.splitlines
# Blanks and comments, then the first line with more, up to its '#' or line break
_FIRST_LINE = re.compile(rf"(?:\s|#[^{_BREAKS}]*)*([^#{_BREAKS}]*)")
_PGM_COMMENT = re.compile(rb"#[^\r\n]*")
# Blanks and comments, then a header token (empty only at the end of the data).
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)")


def _check_ids_writable(names: Collection[str]) -> None:
    """Refuse, before any text is returned, a node id that would not read back.

    The readers split lines on whitespace with ``str.split``, which also
    splits at every line break of ``str.splitlines``, cut comments at ``#``
    and split attributes at ``=``.  The check scans the ids joined, a slice of
    them at a time, not each id in Python.
    """

    def unreadable(text: str) -> bool:
        return text.split() != [text] or "#" in text or "=" in text

    if names and (not all(names) or unreadable("".join(names))):
        raise GraphFormatError(
            f"cannot write node id {next(filter(unreadable, names))!r}: an id must be "
            "non-empty, without whitespace or any of '#='"
        )


class _Weights(dict):
    """Weight tokens to weights: each distinct token is parsed once."""

    def __missing__(self, token: str) -> Weight:
        value = self[token] = parse_weight(token)
        return value


def _split(text: str) -> list[str]:
    """The lines of ``text`` as ``str.splitlines`` breaks them, each cut at its first '#'."""
    lines = text.splitlines()  # without a '#', every line is read whole
    return [line.partition("#")[0] for line in lines] if "#" in text else lines


# The canonical tokens of the common weights, parsed once at import: a graph
# text that holds only these never reaches parse_weight.
_COMMON = {token: parse_weight(token) for token in (*map(str, range(256)), "inf", "-inf")}


def parse_graph(text: str) -> tuple[Graph, NodeValues | None]:
    """Parse the native format; returns the graph and the ceiling (top where unset), or None."""
    index: dict[str, int] = {}  # node name to node index, in declaration order
    ground: dict[str, Weight] = {}
    omega: dict[str, Weight] = {}
    edge_u: list[int] = []
    edge_v: list[int] = []
    edge_weights: dict[int, Weight] = {}
    common, weights = _COMMON, _Weights()  # the common tokens, then this text's others
    # an attribute key to the dict its values fill, keyed by node or edge id
    node_attrs, edge_attrs = {"f": ground, "omega": omega}, {"w": edge_weights}

    lines = enumerate(_split(text), start=1)
    for lineno, line in lines:  # the header is the first line not blank or a comment
        line = line.strip()
        if line:
            if line != HEADER:
                raise GraphFormatError(f"line {lineno}: expected header {HEADER!r}")
            break
    else:
        raise GraphFormatError(f"missing header {HEADER!r}")
    for lineno, line in lines:
        tokens = line.split()
        if not tokens:
            continue
        kind = tokens[0]
        if kind == "node":
            if len(tokens) < 2:
                raise GraphFormatError(f"line {lineno}: node line needs an id")
            node = tokens[1]
            if "=" in node:
                raise GraphFormatError(f"line {lineno}: node id may not contain '=': {node!r}")
            if node in index:
                raise GraphFormatError(f"line {lineno}: duplicate node {node!r}")
            index[node] = len(index)
            allowed, slot, attrs = node_attrs, node, tokens[2:]
        elif kind == "edge":
            if len(tokens) < 3:
                raise GraphFormatError(f"line {lineno}: edge line needs two node ids")
            u, v = tokens[1], tokens[2]
            at_u, at_v = index.get(u), index.get(v)
            if at_u is None or at_v is None:  # no indexed name contains '='
                for endpoint in (u, v):
                    if "=" in endpoint:
                        raise GraphFormatError(
                            f"line {lineno}: node id may not contain '=': {endpoint!r}"
                        )
                unknown = u if at_u is None else v
                raise GraphFormatError(f"line {lineno}: unknown node {unknown!r}")
            if at_u == at_v:
                raise GraphFormatError(f"line {lineno}: self-loop on {u!r}")
            allowed, slot, attrs = edge_attrs, len(edge_u), tokens[3:]
            edge_u.append(at_u)
            edge_v.append(at_v)
        else:
            raise GraphFormatError(f"line {lineno}: expected 'node' or 'edge', got {kind!r}")
        for token in attrs:
            key, sep, value = token.partition("=")
            target = allowed.get(key) if sep else None
            if target is None:
                expected = ", ".join(name + "=<w>" for name in allowed)
                raise GraphFormatError(f"line {lineno}: expected one of {expected}, got {token!r}")
            if slot in target:
                raise GraphFormatError(f"line {lineno}: duplicate attribute {key!r}")
            level = common.get(value)
            if level is None:
                try:
                    level = weights[value]
                except GraphFormatError as exc:
                    raise GraphFormatError(f"line {lineno}: {exc}") from None
            target[slot] = level

    if not index:
        raise GraphFormatError("graph has no nodes")
    if ground and len(ground) != len(index):
        missing = next(node for node in index if node not in ground)
        raise GraphFormatError(f"ground must cover every node or none; {missing!r} has no f")
    if edge_weights and len(edge_weights) != len(edge_u):
        missing_id = next(i for i in range(len(edge_u)) if i not in edge_weights)
        names = list(index)
        u, v = names[edge_u[missing_id]], names[edge_v[missing_id]]
        raise GraphFormatError(f"edge weights must cover every edge or none; {u} {v} has no w")

    # Every line was checked as it was read, which is all index_graph needs.
    # Both dicts fill in declaration order, so once complete their values
    # are listed by index.
    graph = index_graph(
        index,
        edge_u,
        edge_v,
        ground_values=ground.values() if ground else None,
        edge_weights=edge_weights.values() if edge_weights else None,
        index=index,
    )
    ceiling = NodeValues(graph, [omega.get(node, TOP) for node in index]) if omega else None
    return graph, ceiling


def serialize_graph(graph: Graph, omega: Mapping[str, Weight] | None = None) -> Iterator[str]:
    """The graph in the native format, with ``omega=`` where ``omega`` is finite, as text
    chunks: the header, then the nodes and the edges by slices of 65,536.  ``omega`` may
    leave nodes out, but a node it names that the graph lacks raises; every check runs
    before the chunks are returned."""
    names, ground, weights, edge_u, edge_v = (
        graph.nodes, graph.ground_values, graph.edge_weights, graph.edge_u, graph.edge_v)
    for lo in range(0, len(names), _CHUNK):
        _check_ids_writable(names[lo : lo + _CHUNK])
    levels = None if omega is None else values_by_index(graph, omega, "omega", TOP)

    def nodes(lo: int) -> str:
        span = slice(lo, lo + _CHUNK)
        lines = [f"node {node}\n" for node in names[span]] if ground is None else [
            f"node {node} f={level}\n" for node, level in zip(names[span], ground[span])]
        if levels is not None:  # omega= where the ceiling is finite
            lines = [line if level == TOP else f"{line[:-1]} omega={level}\n"
                     for line, level in zip(lines, levels[span])]
        return "".join(lines)

    def edges(lo: int) -> str:
        ends = edge_u[lo : lo + _CHUNK], edge_v[lo : lo + _CHUNK]
        if weights is None:
            return "".join([f"edge {names[u]} {names[v]}\n" for u, v in zip(*ends)])
        return "".join([f"edge {names[u]} {names[v]} w={w}\n"
                        for u, v, w in zip(*ends, weights[lo : lo + _CHUNK])])

    return chain([HEADER + "\n"], map(nodes, range(0, len(names), _CHUNK)),
                 map(edges, range(0, len(edge_u), _CHUNK)))


def _values(*columns: NodeValues) -> Iterator[str]:
    """``<node> <value>[ <value>]`` lines in node order, as `parse_node_values` places
    them by index: a value column per node function (one or two), in chunks of
    65,536 nodes that format each distinct value once."""
    names = columns[0].graph.nodes

    def chunk(lo: int) -> str:
        slices = [column.levels[lo : lo + _CHUNK] for column in columns]
        tokens = [map({v: str(v) for v in set(levels)}.__getitem__, levels) for levels in slices]
        # weights that compare equal print alike: ints, and the float infinities
        return "\n".join(map(" ".join, zip(names[lo : lo + _CHUNK], *tokens))) + "\n"

    return map(chunk, range(0, len(names), _CHUNK))


def parse_node_values(
    text: str, graph: Graph | None = None, what: str = "values", default: Weight | None = None
) -> NodeFunction | NodeValues:
    """Parse ``<node> <value>`` lines (markers, floodings, ceilings), in any order.

    Without ``graph``, a dict in file order.  With it, a ``NodeValues`` over
    ``graph``, ``default`` at each node the file leaves out; a node left out with
    no default, or one the graph lacks, raises ``values_by_index``'s error for
    ``what``.  Lines in node order are placed by index as they are read, with no
    name table; at the first line that cannot be placed so, the whole text is
    read by name, so every error is the one that reading gives.
    """
    if graph is None:
        return _values_by_name(text)
    levels = _in_node_order(text, graph.nodes, default)
    if levels is None:
        levels = values_by_index(graph, _values_by_name(text), what, default)
    return NodeValues(graph, levels)


def _in_node_order(text: str, nodes: Sequence[str], default: Weight | None) -> list[Weight] | None:
    """The values of ``<node> <value>`` lines by node index, while the lines follow
    ``nodes``: each in turn with no default, else skipping some.  None at the first
    line that does not, or that is malformed."""
    levels = [default] * len(nodes)
    weights, find, at = _Weights(_COMMON), nodes.index, 0
    try:
        for node, token in filter(None, map(str.split, _split(text))):  # ValueError unless 2 tokens
            if nodes[at] != node:  # IndexError past the last node
                if default is None:  # a node left out, or out of order
                    return None
                at = find(node, at)  # ValueError unless a later node
            levels[at] = weights[token]
            at += 1
    except (ValueError, IndexError, GraphFormatError):
        return None
    return levels if default is not None or at == len(nodes) else None


def _values_by_name(text: str) -> NodeFunction:
    """``<node> <value>`` lines as a dict in file order; the first bad line raises."""
    values: NodeFunction = {}
    weights = _Weights()
    for lineno, line in enumerate(_split(text), start=1):
        tokens = line.split()
        if len(tokens) != 2:
            if not tokens:  # a blank line or a comment
                continue
            line = line.strip()
            raise GraphFormatError(f"line {lineno}: expected '<node> <value>', got {line!r}")
        node, raw_value = tokens
        if node in values:
            raise GraphFormatError(f"line {lineno}: duplicate node {node!r}")
        try:
            values[node] = weights[raw_value]
        except GraphFormatError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from None
    return values


def _pgm_int(token: bytes, what: str) -> int:
    if not token.isdigit():  # ASCII [0-9]+ only, as in parse_weight: no sign, no '_'
        raise GraphFormatError(f"bad PGM {what}: {token!r}")
    try:
        return int(token)
    except ValueError:  # beyond the interpreter's int digit limit
        raise GraphFormatError(f"bad PGM {what}: too many digits") from None


def read_pgm(data: bytes) -> list[list[int]]:
    """Decode P2 or P5 into rows of pixel values."""
    fields: list = []
    # the names come first, so zip stops without matching past the maxval
    for what, match in zip(("magic", "width", "height", "maxval"), _PGM_TOKEN.finditer(data)):
        token = match[1]
        if not token:
            raise GraphFormatError("truncated PGM header")
        if fields:
            fields.append(_pgm_int(token, what))
        elif token in (b"P2", b"P5"):
            fields.append(token)
        else:
            raise GraphFormatError(f"not a PGM image (magic {token!r})")
    magic, width, height, maxval = fields
    header_end = match.end()
    if width <= 0 or height <= 0:
        raise GraphFormatError(f"bad PGM size {width}x{height}")
    if not 0 < maxval <= 65535:
        raise GraphFormatError(f"PGM maxval out of range: {maxval}")

    if magic == b"P2":
        tokens = _PGM_COMMENT.sub(b"", data[header_end:]).split()
        body = tokens[: width * height]
        try:  # in bulk when every token is digits; else the loop names the first bad one
            if not b"".join(body).isdigit():
                raise ValueError
            pixels = list(map(int, body))
        except ValueError:
            pixels = [_pgm_int(token, "pixel") for token in body]
        if len(pixels) < width * height:
            raise GraphFormatError("truncated PGM pixel data")
        if len(tokens) > width * height:  # only blanks and comments may follow
            raise GraphFormatError("trailing data after the PGM pixel data")
    else:
        sample = 2 if maxval > 255 else 1
        # one whitespace byte ends the header; a comment may come before it,
        # and the newline that ends the comment is that byte
        comment = _PGM_COMMENT.match(data, header_end)
        start = (comment.end() if comment else header_end) + 1
        end = start + width * height * sample
        raw = data[start:end]
        if len(raw) != width * height * sample:
            raise GraphFormatError("truncated PGM pixel data")
        if len(data) > end:
            raise GraphFormatError("trailing data after the PGM pixel data")
        if sample == 1:
            pixels = list(raw)
        else:
            pixels = [
                (raw[i] << 8) | raw[i + 1] for i in range(0, len(raw), 2)
            ]
    if max(pixels) > maxval:  # no pixel is negative; name the first one above
        value = next(value for value in pixels if value > maxval)
        raise GraphFormatError(f"PGM pixel {value} exceeds maxval {maxval}")
    return [pixels[row * width : (row + 1) * width] for row in range(height)]


def write_pgm(raster: list[list[int]]) -> bytes:
    """Encode rows of pixel values as binary PGM (P5)."""
    if not raster or not raster[0]:
        raise GraphFormatError("raster must be non-empty")
    width = len(raster[0])
    if any(len(row) != width for row in raster):
        raise GraphFormatError("raster rows must all have the same width")
    flat = [value for row in raster for value in row]
    for value in flat:
        if not isinstance(value, int) or not 0 <= value <= 65535:
            raise GraphFormatError(f"pixel value out of PGM range: {value!r}")
    maxval = max(max(flat), 1)
    header = f"P5\n{width} {len(raster)}\n{maxval}\n"
    if maxval > 255:
        payload = b"".join(value.to_bytes(2, "big") for value in flat)
    else:
        payload = bytes(flat)
    return header.encode("ascii") + payload
