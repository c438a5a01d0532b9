"""Parsers on arbitrary input: only GraphFormatError escapes, the CLI exits 2.

Inputs mix free text and bytes with near-misses of the real grammars:
header lines, node/edge/value lines with odd attributes, PGM headers, and
digit runs on both sides of the interpreter's int() digit limit.
"""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import example, given, settings, strategies as st

from floodgraph import GraphFormatError, parse_graph, parse_node_values, read_pgm
from floodgraph.cli import main

# int() accepts at most 4300 digits by default (sys.get_int_max_str_digits)
digit_runs = st.sampled_from([1, 2, 20, 4300, 4301, 5000]).map(lambda k: "9" * k)
weights = st.one_of(
    st.sampled_from(["0", "7", "inf", "-inf", "-3", "1.5", "", "+1"]),
    st.text(max_size=4),
    digit_runs,
)
names = st.one_of(st.sampled_from(["a", "b", "c"]), st.text(max_size=3))
attributes = st.builds(
    lambda key, value: f"{key}={value}", st.sampled_from(["f", "omega", "w", "x", ""]), weights
)
graph_lines = st.one_of(
    st.builds(
        lambda n, attrs: " ".join(["node", n, *attrs]), names, st.lists(attributes, max_size=3)
    ),
    st.builds(
        lambda u, v, attrs: " ".join(["edge", u, v, *attrs]),
        names,
        names,
        st.lists(attributes, max_size=2),
    ),
    st.text(max_size=12),
)
graph_texts = st.one_of(
    st.text(),
    st.builds(lambda body: "\n".join(["floodgraph v1", *body]), st.lists(graph_lines, max_size=8)),
)
value_texts = st.one_of(
    st.text(),
    st.builds(
        "\n".join,
        st.lists(st.one_of(st.builds(lambda n, w: f"{n} {w}", names, weights), st.text(max_size=8)),
                 max_size=6),
    ),
)
pgm_tokens = st.one_of(
    st.binary(max_size=3), digit_runs.map(str.encode), st.sampled_from([b"1", b"2", b"255", b"#"])
)
pgm_bytes = st.one_of(
    st.binary(),
    st.builds(
        lambda magic, tokens, tail: magic + b" " + b" ".join(tokens) + tail,
        st.sampled_from([b"P2", b"P5"]),
        st.lists(pgm_tokens, max_size=8),
        st.binary(max_size=8),
    ),
)
graph_inputs = st.one_of(graph_texts.map(str.encode), pgm_bytes, st.binary())

CHAIN = "floodgraph v1\nnode a f=0\nnode b f=4\nnode c f=1\nedge a b\nedge b c\n"
LONG = "1" * 5000


def _rejects(parse, data) -> bool:
    try:
        parse(data)
    except GraphFormatError:
        return True
    return False


def _graph_rejected(data: bytes) -> bool:
    if data[:2] in (b"P2", b"P5"):
        return _rejects(read_pgm, data)
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError:
        return True
    return _rejects(parse_graph, text)


def _run(argv: list[str]) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=200)
@example(f"floodgraph v1\nnode a f={LONG}")
@given(graph_texts)
def test_parse_graph_raises_only_format_errors(text):
    _rejects(parse_graph, text)


@settings(max_examples=200)
@example(f"a {LONG}")
@given(value_texts)
def test_parse_node_values_raises_only_format_errors(text):
    _rejects(parse_node_values, text)


@settings(max_examples=200)
@example(f"P2 1 1 {LONG} 0".encode())
@given(pgm_bytes)
def test_read_pgm_raises_only_format_errors(data):
    _rejects(read_pgm, data)


@settings(max_examples=100)
@example(f"floodgraph v1\nnode a f={LONG}".encode(), f"a {LONG}")
@given(graph_inputs, value_texts)
def test_cli_exits_2_without_a_traceback_on_rejected_input(data, ceiling_text):
    with tempfile.TemporaryDirectory() as workdir:
        graph, chain, ceiling = (Path(workdir) / name for name in ("graph", "chain.fg", "ceiling"))
        graph.write_bytes(data)
        chain.write_text(CHAIN)
        ceiling.write_bytes(ceiling_text.encode("utf-8"))

        code, err = _run(["flood", "--algo", "dijkstra", "--derive-edges", "--graph", str(graph)])
        if _graph_rejected(data):
            assert code == 2 and err.startswith("error: "), err
        assert code in (0, 1, 2)

        code, err = _run(
            ["flood", "--algo", "core", "--graph", str(chain), "--ceiling", str(ceiling)]
        )
        if _rejects(parse_node_values, ceiling_text):
            assert code == 2 and err.startswith("error: "), err
        assert code in (0, 1, 2)
