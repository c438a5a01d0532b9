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

Node values (flooding results, markers) use one ``<node> <value>`` pair per
line.  Rasters are read as PGM, plain (P2) or binary (P5), and written as
P5, with 16-bit big-endian samples when maxval exceeds 255.
"""

from __future__ import annotations

import re
from typing import Collection, Mapping

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
_PGM_COMMENT = re.compile(rb"#[^\r\n]*")
# Blanks and comments, then a header token (empty only at the end of the data).
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\r\n]*)*([^\s#]*)")


def _check_ids_writable(names: Collection[str]) -> None:
    """Refuse, before any text is returned, a node id that would not read back.

    The readers split lines on whitespace with ``str.split``, which also
    splits at every line break of ``str.splitlines``, cut comments at ``#``
    and split attributes at ``=``.  The check scans the joined ids once, not
    each id in Python.
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


def parse_graph(text: str) -> tuple[Graph, NodeValues | None]:
    """Parse the native format; returns the graph and the ceiling (top where unset), or None."""
    index: dict[str, int] = {}  # node name to node index, in declaration order
    ground: dict[str, Weight] = {}
    omega: dict[str, Weight] = {}
    edge_u: list[int] = []
    edge_v: list[int] = []
    edge_weights: dict[int, Weight] = {}
    weights = _Weights()
    # an attribute key to the dict its values fill, keyed by node or edge id
    node_attrs, edge_attrs = {"f": ground, "omega": omega}, {"w": edge_weights}

    lines = enumerate(text.splitlines(), start=1)
    for lineno, raw in lines:  # the header is the first line not blank or a comment
        line = raw.partition("#")[0].strip()
        if line:
            if line != HEADER:
                raise GraphFormatError(f"line {lineno}: expected header {HEADER!r}")
            break
    else:
        raise GraphFormatError(f"missing header {HEADER!r}")
    for lineno, raw in lines:
        tokens = raw.partition("#")[0].split()
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
            if u not in index or v not in index:  # no indexed name contains '='
                for endpoint in (u, v):
                    if "=" in endpoint:
                        raise GraphFormatError(
                            f"line {lineno}: node id may not contain '=': {endpoint!r}"
                        )
                raise GraphFormatError(f"line {lineno}: unknown node {(v if u in index else u)!r}")
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop on {u!r}")
            allowed, slot, attrs = edge_attrs, len(edge_u), tokens[3:]
            edge_u.append(index[u])
            edge_v.append(index[v])
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
            try:
                target[slot] = weights[value]
            except GraphFormatError as exc:
                raise GraphFormatError(f"line {lineno}: {exc}") from None

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


def serialize_graph(graph: Graph, omega: Mapping[str, Weight] | None = None) -> str:
    """The graph in the native format, with ``omega=`` where ``omega`` is finite.
    ``omega`` may leave nodes out, but a node it names that the graph lacks raises."""
    names, ground, weights = graph.nodes, graph.ground_values, graph.edge_weights
    _check_ids_writable(names)
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


def parse_node_values(text: str) -> NodeFunction:
    """Parse ``<node> <value>`` lines (markers, floodings, ceilings)."""
    values: NodeFunction = {}
    weights = _Weights()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.partition("#")[0]
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
    for value in pixels:
        if not 0 <= value <= maxval:
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
