"""Text and PGM round trips, plus precise parse errors."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from floodgraph import (
    BOTTOM,
    HEADER,
    TOP,
    ConstructionError,
    GraphFormatError,
    PreconditionError,
    build_graph,
    parse_graph,
    parse_node_values,
    read_pgm,
    serialize_graph,
    write_pgm,
)

from strategies import connected_edge_graph, connected_node_graph, ground_of, random_ceiling


CHAIN_TEXT = """\
floodgraph v1
# the five-node worked example
node a f=0 omega=0
node b f=4 omega=5
node c f=1 omega=3
node d f=2 omega=3
node e f=0 omega=1
edge a b
edge b c
edge c d
edge d e
"""


def test_parse_graph_reads_ground_and_ceiling():
    graph, omega = parse_graph(CHAIN_TEXT)
    assert graph.nodes == ("a", "b", "c", "d", "e")
    assert ground_of(graph) == {"a": 0, "b": 4, "c": 1, "d": 2, "e": 0}
    assert graph.edge_weights is None
    assert omega == {"a": 0, "b": 5, "c": 3, "d": 3, "e": 1}


def test_parse_graph_partial_ceiling_fills_with_top():
    graph, omega = parse_graph("floodgraph v1\nnode a omega=3\nnode b\n")
    assert graph.ground_values is None
    assert omega == {"a": 3, "b": TOP}


def test_parse_graph_without_ceiling_returns_none():
    _, omega = parse_graph("floodgraph v1\nnode a\nnode b\nedge a b w=2\n")
    assert omega is None


def test_parse_graph_edge_weights():
    graph, _ = parse_graph("floodgraph v1\nnode a\nnode b\nedge a b w=inf\n")
    assert graph.edge_weights == (TOP,)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("# only a comment\n", "missing header"),
        ("node a\n", "expected header"),
        ("floodgraph v2\nnode a\n", "expected header"),
        ("floodgraph v1\n", "no nodes"),
        ("floodgraph v1\nnode a\nnode a\n", "line 3: duplicate node"),
        ("floodgraph v1\nnode a=3\n", "may not contain '='"),
        ("floodgraph v1\nnode a\nedge a b\n", "line 3: unknown node 'b'"),
        ("floodgraph v1\nnode a\nedge a a\n", "self-loop"),
        ("floodgraph v1\nnode a g=3\n", "expected one of"),
        ("floodgraph v1\nnode a f=1 f=2\n", "duplicate attribute"),
        ("floodgraph v1\nnode a f=-3\n", "line 2"),
        ("floodgraph v1\nnode a f=0\nnode b\n", "ground must cover every node or none"),
        (
            "floodgraph v1\nnode a\nnode b\nnode c\nedge a b w=1\nedge b c\n",
            "edge weights must cover every edge or none",
        ),
        ("floodgraph v1\nwall a b\n", "expected 'node' or 'edge'"),
        ("floodgraph v1\nnode\n", "node line needs an id"),
        ("floodgraph v1\nnode a\nedge a\n", "edge line needs two node ids"),
    ],
)
def test_parse_graph_errors(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_graph(text)
    assert fragment in str(err.value)


def test_serialize_parse_round_trip_keeps_everything():
    rng = random.Random(5)
    for _ in range(25):
        graph = connected_edge_graph(rng, max_nodes=9)
        omega = random_ceiling(rng, graph)
        text = serialize_graph(graph, omega)
        back, back_omega = parse_graph(text)
        assert back.nodes == graph.nodes
        assert back.edges == graph.edges
        assert back.edge_weights == graph.edge_weights
        expected = omega if any(w != TOP for w in omega.values()) else None
        assert back_omega == expected


def test_serialize_parse_round_trip_node_weighted():
    rng = random.Random(6)
    for _ in range(25):
        graph = connected_node_graph(rng, max_nodes=9)
        back, back_omega = parse_graph(serialize_graph(graph))
        assert back.nodes == graph.nodes
        assert back.edges == graph.edges
        assert ground_of(back) == ground_of(graph)
        assert back_omega is None


# Whitespace of every kind (line breaks included), comment and attribute marks.
ID_ALPHABET = "a\u00e9 \t\x0b\x85\u2028#="


@given(st.data())
def test_writers_refuse_exactly_the_ids_that_would_not_read_back(data):
    ids = data.draw(st.lists(st.text(ID_ALPHABET, max_size=3), min_size=1, max_size=4, unique=True))
    level = st.sampled_from([0, 2, 9, TOP, BOTTOM])
    pairs = data.draw(st.lists(st.tuples(*[st.integers(0, len(ids) - 1)] * 2), max_size=4))
    edges = [(ids[i], ids[j]) for i, j in pairs if i != j]
    ground = data.draw(st.none() | st.fixed_dictionaries(dict.fromkeys(ids, level)))
    weights = None
    if edges:  # the format cannot tell an edgeless graph's empty weights from none
        weights = data.draw(st.none() | st.lists(level, min_size=len(edges), max_size=len(edges)))
    omega = data.draw(st.dictionaries(st.sampled_from(ids), level))
    graph = build_graph(ids, edges, ground, weights)
    used = set("".join(ids))

    if all(ids) and used <= set("a\u00e9"):
        back, back_omega = parse_graph(serialize_graph(graph, omega))
        assert (back.nodes, back.edges) == (graph.nodes, graph.edges)
        assert (back.ground_values, back.edge_weights) == (graph.ground_values, graph.edge_weights)
        ceiling = {node: omega.get(node, TOP) for node in ids}
        assert back_omega == (ceiling if any(w != TOP for w in omega.values()) else None)
    else:
        with pytest.raises(GraphFormatError, match="cannot write node id"):
            serialize_graph(graph, omega)


def test_serialize_omits_top_ceiling_entries(chain):
    text = serialize_graph(chain.graph, {**chain.omega, "b": TOP})
    assert "node b f=4\n" in text
    assert "omega=5" not in text


def test_serialize_raises_on_an_omega_naming_an_unknown_node(chain):
    """A ceiling may leave nodes out, but not name one the graph lacks."""
    with pytest.raises(PreconditionError, match="^omega defined on unknown node 'z'$"):
        serialize_graph(chain.graph, {**chain.omega, "z": 3})


# Weights of the lattice, and values outside it that a writer would print
# as a token the reader refuses: negative ints, other floats, bools.
LATTICE = st.one_of(st.integers(0, 10**30), st.sampled_from([TOP, BOTTOM]))
OFF_LATTICE = st.one_of(
    st.integers(-(10**30), -1), st.floats(allow_infinity=False), st.booleans()
)


def reader_message(exc: Exception) -> str:
    """A message without the place it names (a line, a node, an edge)."""
    return str(exc).split(": ", 1)[1]


@given(st.data())
def test_build_graph_takes_exactly_the_weights_that_read_back(data):
    names, edges = ["a", "b", "c"], [("a", "b"), ("b", "c")]
    value = LATTICE | OFF_LATTICE
    ground = data.draw(st.fixed_dictionaries(dict.fromkeys(names, value)))
    weights = data.draw(st.lists(value, min_size=len(edges), max_size=len(edges)))
    # what a writer printing the values verbatim would write
    text = (
        f"{HEADER}\n"
        + "".join(f"node {node} f={ground[node]}\n" for node in names)
        + "".join(f"edge {u} {v} w={w}\n" for (u, v), w in zip(edges, weights))
    )
    try:
        parse_graph(text)
    except GraphFormatError as refused:
        with pytest.raises(ConstructionError) as err:
            build_graph(names, edges, ground, weights)
        assert reader_message(err.value) == reader_message(refused)
    else:
        graph = build_graph(names, edges, ground, weights)
        back, _ = parse_graph(serialize_graph(graph))
        for attr in ("ground_values", "edge_weights"):
            assert getattr(back, attr) == getattr(graph, attr)
            assert list(map(type, getattr(back, attr))) == list(map(type, getattr(graph, attr)))


@pytest.mark.parametrize(
    "ground, weights, message",
    [
        ({"a": -3, "b": 0}, [0], "ground at node 'a': negative finite weight not allowed: '-3'"),
        ({"a": 0, "b": 2.5}, [0], "ground at node 'b': not a weight: '2.5'"),
        ({"a": 0, "b": "5"}, [0], "ground at node 'b': not a weight: '5'"),
        (None, [True], "edge 0 weight: not a weight: 'True'"),
        (None, [3.0], "edge 0 weight: not a weight: '3.0'"),
    ],
)
def test_build_graph_refuses_a_value_outside_the_lattice(ground, weights, message):
    with pytest.raises(ConstructionError) as err:
        build_graph(["a", "b"], [("a", "b")], ground, weights)
    assert str(err.value) == message


# -- node-value files --------------------------------------------------------


def test_parse_node_values():
    values = parse_node_values("a 3\n# comment\nb inf\nc -inf\n")
    assert values == {"a": 3, "b": TOP, "c": float("-inf")}


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("a\n", "expected '<node> <value>'"),
        ("a 1 2\n", "expected '<node> <value>'"),
        ("a 1\na 2\n", "duplicate node"),
        ("a x\n", "line 1"),
    ],
)
def test_parse_node_values_errors(text, fragment):
    with pytest.raises(GraphFormatError) as err:
        parse_node_values(text)
    assert fragment in str(err.value)


def test_a_bad_token_on_two_lines_is_reported_at_the_first():
    with pytest.raises(GraphFormatError) as err:
        parse_node_values("a 1\nb 07x\nc 2\nd 07x\n")
    assert str(err.value) == "line 2: not a weight: '07x'"


def test_node_values_messages_quote_the_line_without_its_comment():
    with pytest.raises(GraphFormatError) as err:
        parse_node_values("a 1\n\n  b 1 2 \t# three tokens\n")
    assert str(err.value) == "line 3: expected '<node> <value>', got 'b 1 2'"


# -- PGM ---------------------------------------------------------------------


def test_read_pgm_plain():
    raster = read_pgm(b"P2\n# comment\n3 2\n9\n0 1 2\n3 4 9\n")
    assert raster == [[0, 1, 2], [3, 4, 9]]


def test_read_pgm_binary_single_byte():
    raster = read_pgm(b"P5\n2 2\n255\n" + bytes([0, 10, 20, 255]))
    assert raster == [[0, 10], [20, 255]]


def test_read_pgm_binary_two_byte_big_endian():
    payload = (1000).to_bytes(2, "big") + (65535).to_bytes(2, "big")
    raster = read_pgm(b"P5\n2 1\n65535\n" + payload)
    assert raster == [[1000, 65535]]


def test_read_pgm_binary_allows_a_comment_before_the_raster():
    # the newline that ends the comment is the single byte that ends the header
    assert read_pgm(b"P5\n1 1\n255#c\n\x05") == [[5]]
    assert read_pgm(b"P5\n2 1\n65535# wide\n\x03\xe8\xff\xff") == [[1000, 65535]]


@pytest.mark.parametrize(
    "data, fragment",
    [
        (b"P3\n1 1\n1\n0\n", "not a PGM image"),
        (b"P2\n0 1\n5\n", "bad PGM size"),
        (b"P2\n1 1\n0\n0\n", "PGM maxval out of range"),
        (b"P2\n1 1\n70000\n0\n", "PGM maxval out of range"),
        (b"P2\n2 1\n5\n1\n", "truncated PGM pixel data"),
        (b"P5\n2 1\n255\n\x00", "truncated PGM pixel data"),
        (b"P5\n1 1\n255#c\n", "truncated PGM pixel data"),
        (b"P5\n1 1\n65535#c\n\x00", "truncated PGM pixel data"),
        (b"P2\n1 1\n5\n9\n", "exceeds maxval"),
        (b"P2\n1\n", "truncated PGM header"),
        # Header fields and P2 samples are ASCII [0-9]+, as in parse_weight.
        (b"P2\n1_0 1\n3\n" + b"1 " * 10, "bad PGM width: b'1_0'"),
        (b"P2\n1 +1\n3\n1\n", "bad PGM height: b'+1'"),
        (b"P2\n1 1\n0x3\n1\n", "bad PGM maxval: b'0x3'"),
        (b"P2\n2 1\n3\n1 +2\n", "bad PGM pixel: b'+2'"),
        (b"P2\n2 1\n3\n1 -2\n", "bad PGM pixel: b'-2'"),
        (b"P2\n1 1\n3\n\xd9\xa3\n", "bad PGM pixel"),
        # Nothing but whitespace and comments may follow the samples.
        (b"P2\n2 1\n3\n1 2 9 9 9\n", "trailing data after the PGM pixel data"),
        (b"P2\n2 1\n3\n1 2\n# end\nx\n", "trailing data after the PGM pixel data"),
        (b"P5\n2 1\n255\n\x01\x02\x09", "trailing data after the PGM pixel data"),
        (b"P5\n2 1\n255\n\x01\x02\n", "trailing data after the PGM pixel data"),
        (b"P5\n1 1\n255#c\n\x05\n", "trailing data after the PGM pixel data"),
        (b"P5\n1 1\n65535#c\n\x00\x05\x06", "trailing data after the PGM pixel data"),
    ],
)
def test_read_pgm_errors(data, fragment):
    with pytest.raises(GraphFormatError) as err:
        read_pgm(data)
    assert fragment in str(err.value)


def test_read_pgm_rejects_a_sample_beyond_the_int_digit_limit():
    with pytest.raises(GraphFormatError) as err:
        read_pgm(b"P2\n1 1\n3\n" + b"1" * 5000 + b"\n")
    assert "bad PGM pixel: too many digits" in str(err.value)


def test_read_pgm_plain_allows_blanks_and_comments_after_the_samples():
    assert read_pgm(b"P2\n2 1\n3\n1 2\n# end\n \n\t# more") == [[1, 2]]
    assert read_pgm(b"P2 2 1 3 01 002") == [[1, 2]]


def test_write_pgm_binary_and_plain():
    raster = [[0, 300], [70, 5]]
    data = write_pgm(raster)
    assert data.startswith(b"P5")
    assert read_pgm(data) == raster
    assert read_pgm(b"P2\n2 2\n300\n0 300\n70 5\n") == raster


@pytest.mark.parametrize(
    "raster, message",
    [
        ([], "raster must be non-empty"),
        ([[]], "raster must be non-empty"),
        ([[1, 2], [3]], "raster rows must all have the same width"),
        ([[0, -1]], "pixel value out of PGM range: -1"),
        ([[65536]], "pixel value out of PGM range: 65536"),
        ([[1.0]], "pixel value out of PGM range: 1.0"),
        ([["7"]], "pixel value out of PGM range: '7'"),
    ],
)
def test_write_pgm_errors(raster, message):
    with pytest.raises(GraphFormatError) as err:
        write_pgm(raster)
    assert str(err.value) == message


def test_write_pgm_all_zero_uses_maxval_one():
    data = write_pgm([[0, 0]])
    assert b"\n1\n" in data
    assert read_pgm(data) == [[0, 0]]


@given(
    st.lists(
        st.lists(st.integers(min_value=0, max_value=65535), min_size=1, max_size=6),
        min_size=1,
        max_size=6,
    ).filter(lambda rows: len({len(r) for r in rows}) == 1),
)
def test_pgm_round_trip(rows):
    assert read_pgm(write_pgm(rows)) == rows
