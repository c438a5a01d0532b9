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

from floodgraph import (
    TOP,
    GraphFormatError,
    build_lake_dendrogram,
    contract_flat_zones,
    derive_edge_graph,
    dijkstra_flood,
    flooding_distance_all,
    grid_graph,
    is_edge_flooding,
    is_node_flooding,
    lakes,
    local_flood,
    marker_segmentation,
    mst,
    parse_graph,
    parse_node_values,
    parse_weight,
    read_pgm,
)
from floodgraph.cli import main
from floodgraph.formats import _PGM_COMMENT, HEADER, _pgm_int
from floodgraph.graphs import index_graph

from strategies import graph_arrays

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


@st.composite
def accepted_graph_files(draw) -> bytes:
    """Graph files the reader accepts, on the nodes ``names`` draws and one more:
    a ground with flat zones, parallel edges, and sometimes edge weights and omega."""
    nodes = ["a", "b", "c", "d"][: draw(st.integers(1, 4))]
    level = st.sampled_from(["0", "1", "inf"])
    lines = [HEADER]
    for node in nodes:
        omega = draw(st.sampled_from(["", " omega=1", " omega=inf"]))
        lines.append(f"node {node} f={draw(level)}{omega}")
    weighted = draw(st.booleans())
    ends = st.permutations(nodes).map(lambda order: order[:2])
    for u, v in draw(st.lists(ends, max_size=5)) if len(nodes) > 1 else ():
        lines.append(f"edge {u} {v}" + (f" w={draw(level)}" if weighted else ""))
    return "\n".join(lines).encode()


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


def _run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def _read_graph(data: bytes):
    """The graph and file ceiling the CLI reads from ``data``, which it accepts."""
    if data[:2] in (b"P2", b"P5"):
        return grid_graph(read_pgm(data)), None
    return parse_graph(data.decode("utf-8"))


def _written(graph) -> tuple:
    """``graph_arrays`` as a file holds them: a graph with no edge has no edge weights."""
    *arrays, weights = graph_arrays(graph)
    return (*arrays, weights or None)


def _assert_one_error_line(code: int, out: str, err: str) -> None:
    assert code in (1, 2), (code, err)
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1, err


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

        code, _, err = _run(["flood", "--algo", "dijkstra", "--derive-edges", "--graph", str(graph)])
        if _graph_rejected(data):
            assert code == 2 and err.startswith("error: "), err
        assert code in (0, 1, 2)

        code, _, err = _run(
            ["flood", "--algo", "core", "--graph", str(chain), "--ceiling", str(ceiling)]
        )
        if _rejects(parse_node_values, ceiling_text):
            assert code == 2 and err.startswith("error: "), err
        assert code in (0, 1, 2)


@settings(max_examples=100)
@example(CHAIN.encode(), True)
@example(CHAIN.encode(), False)  # no edge weights, none derived
@example(b"P2 2 2 9 1 5 3 2", True)
@given(st.one_of(graph_inputs, accepted_graph_files()), st.booleans())
def test_cli_mst_writes_the_tree_or_one_error_line(data, derive):
    with tempfile.TemporaryDirectory() as workdir:
        graph = Path(workdir) / "graph"
        graph.write_bytes(data)
        code, out, err = _run(["mst", "--graph", str(graph), *["--derive-edges"][:derive]])
    if _graph_rejected(data):
        assert code == 2, err
    if code:
        _assert_one_error_line(code, out, err)
        return
    parsed, _ = _read_graph(data)
    view = parsed if parsed.edge_weights is not None else derive_edge_graph(parsed)
    tree, ceiling = parse_graph(out)
    assert (graph_arrays(tree), ceiling) == (_written(mst(view)), None)


@settings(max_examples=100)
@example(CHAIN.encode(), True)
@example(CHAIN.encode(), False)  # no edge weights, none derived
@example(b"P2 2 2 9 1 5 3 2", True)
@example(b"floodgraph v1\nnode a\nnode b\nnode c\nedge a b w=1", False)  # a forest
@given(st.one_of(graph_inputs, accepted_graph_files()), st.booleans())
def test_cli_dendro_writes_the_clusters_or_one_error_line(data, derive):
    with tempfile.TemporaryDirectory() as workdir:
        graph = Path(workdir) / "graph"
        graph.write_bytes(data)
        code, out, err = _run(["dendro", "--graph", str(graph), *["--derive-edges"][:derive]])
    assert code in (0, 1, 2), err
    if _graph_rejected(data):
        assert code == 2, err
    if code:
        _assert_one_error_line(code, out, err)
        return
    parsed, _ = _read_graph(data)
    dendro = build_lake_dendrogram(parsed if parsed.edge_weights is not None else derive_edge_graph(parsed))
    assert out.splitlines() == [
        f"cluster {index} diam={diam} father={'none' if up is None else up} leaves={' '.join(members)}"
        for index, (diam, up, members) in enumerate(zip(dendro.diam, dendro.father, dendro.all_members()))
    ]


@settings(max_examples=100)
@example(CHAIN.encode(), "a 0\nb 4\n")
@example(CHAIN.encode(), "c 0\n")  # below the ground
@example(CHAIN.encode(), None)
@example(b"floodgraph v1\nnode a f=1 omega=3\nnode b f=1\nnode c f=2\nedge a b\nedge b c", None)
@example(b"P2 3 1 9 1 1 2", "0,1 5\n0,2 2\n")
@given(st.one_of(graph_inputs, accepted_graph_files()), st.one_of(st.none(), value_texts))
def test_cli_contract_writes_the_contraction_or_one_error_line(data, ceiling_text):
    with tempfile.TemporaryDirectory() as workdir:
        graph, ceiling = Path(workdir) / "graph", Path(workdir) / "ceiling"
        graph.write_bytes(data)
        argv = ["contract", "--graph", str(graph)]
        if ceiling_text is not None:
            ceiling.write_bytes(ceiling_text.encode("utf-8"))
            argv += ["--ceiling", str(ceiling)]
        code, out, err = _run(argv)
    if _graph_rejected(data):
        assert code == 2, err
    elif _read_graph(data)[0].ground_values is not None and ceiling_text is not None:
        if _rejects(parse_node_values, ceiling_text):  # read once the ground is there
            assert code == 2, err
    if code:
        _assert_one_error_line(code, out, err)
        return
    parsed, omega = _read_graph(data)
    if ceiling_text is not None:
        omega = {**dict.fromkeys(parsed.nodes, TOP), **parse_node_values(ceiling_text)}
    contracted, mapping, contracted_omega = contract_flat_zones(parsed, omega)
    written, ceiling_read = parse_graph(out)
    assert graph_arrays(written) == _written(contracted)
    finite = contracted_omega is not None and any(level < TOP for level in contracted_omega.levels)
    expected_ceiling = list(contracted_omega.items()) if finite else None
    assert (None if ceiling_read is None else list(ceiling_read.items())) == expected_ceiling
    blocks = [line.split()[2:] for line in out.splitlines() if line.startswith("# block ")]
    assert {rep: tuple(members) for rep, *members in blocks} == mapping.blocks


@st.composite
def accepted_rasters(draw) -> bytes:
    """Plain PGMs the reader accepts: 1 to 3 rows and columns of levels 0..2."""
    height, width = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    pixels = draw(st.lists(st.sampled_from("012"), min_size=height * width,
                           max_size=height * width))
    return f"P2 {width} {height} 2 {' '.join(pixels)}".encode()


# The graph files of the query commands, a third of them from each source (one_of
# would draw graph_inputs's four branches and the two accepted sources alike)
query_graphs = st.sampled_from(
    [graph_inputs, accepted_graph_files(), accepted_rasters()]).flatmap(lambda inputs: inputs)
# Node names for --from and --node: those of the text graphs and of the rasters,
# an unknown one and the empty one
query_nodes = st.sampled_from(["a", "b", "d", "0,0", "0,1", "1,0", "zzz", ""])
# A --tau file: free text; one token per node of the graph (None leaves it out) with,
# on True, a line on an unknown node as well; or None, for a flooding of the graph
# (a third of the cases each)
tau_specs = st.sampled_from([
    value_texts,
    st.tuples(st.lists(st.sampled_from(["0", "1", "2", "inf"] * 6 + ["x", None]),
                       min_size=9, max_size=9), st.sampled_from([False] * 3 + [True])),
    st.none(),
]).flatmap(lambda specs: specs)


def _tau_text(spec, graph) -> str:
    """The --tau file that ``spec`` makes for ``graph`` (None: a graph the reader refused).
    The flooding is dijkstra's under a ceiling at the ground, or at 0 without one."""
    if isinstance(spec, str):
        return spec
    nodes = () if graph is None else graph.nodes
    if spec is not None:
        tokens, extra = spec
        lines = [f"{node} {token}\n" for node, token in zip(nodes, tokens) if token is not None]
        return "".join(lines) + ("zzz 1\n" if extra else "")
    if graph is None or graph.edge_weights is None and graph.ground_values is None:
        return ""
    view = graph if graph.edge_weights is not None else derive_edge_graph(graph)
    ceiling = dict(zip(nodes, graph.ground_values or [0] * len(nodes)))
    return "".join(f"{node} {level}\n" for node, level in dijkstra_flood(view, ceiling).tau.items())


def _run_on_files(files: dict[str, bytes | None], argv: list[str]) -> tuple[int, str, str]:
    """Run the CLI with each named file written to a scratch directory (None: no file);
    a ``{name}`` in ``argv`` becomes that file's path."""
    with tempfile.TemporaryDirectory() as workdir:
        paths = {name: str(Path(workdir) / name) for name in files}
        for name, data in files.items():
            if data is not None:
                Path(paths[name]).write_bytes(data)
        return _run([arg.format(**paths) for arg in argv])


def _checked_tau(data: bytes, spec):
    """The graph, its --tau text, and what a reader of that text makes of it: None where
    the graph, the text or its coverage of the nodes is rejected, which must exit 2."""
    graph = None if _graph_rejected(data) else _read_graph(data)[0]
    text = _tau_text(spec, graph)
    if graph is None or _rejects(parse_node_values, text):
        return graph, text, None
    tau = parse_node_values(text)
    return graph, text, tau if set(tau) == set(graph.nodes) else None


@settings(max_examples=100)
@example(CHAIN.encode(), "a", True)
@example(CHAIN.encode(), "zzz", True)  # an unknown source
@example(CHAIN.encode(), "a", False)  # no edge weights, none derived
@example(b"P2 2 2 9 1 5 3 2", "1,0", True)
@given(query_graphs, query_nodes, st.booleans())
def test_cli_fldist_writes_the_distances_or_one_error_line(data, source, derive):
    argv = ["fldist", "--graph", "{graph}", "--from", source, *["--derive-edges"][:derive]]
    code, out, err = _run_on_files({"graph": data}, argv)
    assert code in (0, 1, 2), err
    if _graph_rejected(data):
        assert code == 2, err
    if code:
        _assert_one_error_line(code, out, err)
        return
    parsed, _ = _read_graph(data)
    view = parsed if parsed.edge_weights is not None else derive_edge_graph(parsed)
    expected = flooding_distance_all(view, source)
    assert list(parse_node_values(out).items()) == list(expected.items())


@settings(max_examples=100)
@example(CHAIN.encode(), (["0", "4", "1", "inf"], False))  # not a flooding
@example(CHAIN.encode(), (["4", "4", "4", "inf"], False))
@example(CHAIN.encode(), (["4", None, "4", "4"], False))  # a node left out
@example(CHAIN.encode(), (["4", "4", "4", "4"], True))  # an unknown node
@example(b"floodgraph v1\nnode a\nnode b\nedge a b w=2", (["1", "1", "x", "1"], False))
@example(b"floodgraph v1\nnode a\nnode b", (["1", "1", "1", "1"], False))  # nothing to derive
@example(b"P2 2 2 9 1 5 3 2", (["5", "5", "3", "3"], False))
@given(query_graphs, tau_specs)
def test_cli_lakes_writes_the_partition_or_one_error_line(data, spec):
    graph, text, tau = _checked_tau(data, spec)
    code, out, err = _run_on_files(
        {"graph": data, "tau": text.encode("utf-8")}, ["lakes", "--graph", "{graph}", "--tau", "{tau}"])
    assert code in (0, 1, 2), err
    if tau is None:
        assert code == 2, err
    if code:
        _assert_one_error_line(code, out, err)
        return
    part = lakes(graph, tau)
    names, edge_u, edge_v = graph.nodes, graph.edge_u, graph.edge_v
    read = []
    for line in out.splitlines():
        head, _, exhaust = line.partition(" exhaust=")
        head, _, members = head.partition(" nodes=")
        word, index, level, kind = head.split()
        assert (word, level[:6], kind[:5]) == ("lake", "level=", "kind=")
        ends = [tuple(pair.split("-")) for pair in exhaust.split()]
        read.append((int(index), parse_weight(level[6:]), kind[5:], tuple(members.split()), ends))
    assert read == [
        (index, level, "full" if out else "regmin", block,
         [(names[edge_u[edge]], names[edge_v[edge]]) for edge in out])
        for index, (level, block, out) in enumerate(zip(part.levels, part.members, part.exhaust))
    ]


@settings(max_examples=100)
@example(CHAIN.encode(), (["0", "4", "1", "1"], False))
@example(CHAIN.encode(), (["0", "4", "2", "1"], False))  # c hangs above a, b's ground
@example(CHAIN.encode(), (["0", "4", "x", "1"], False))  # a bad token
@example(b"floodgraph v1\nnode a\nnode b\nedge a b w=2", (["1", "3", "1", "1"], False))
@example(b"floodgraph v1\nnode a\nnode b\nedge a b", (["1", "1", "1", "1"], False))
@example(b"P2 2 2 9 1 5 3 2", (["1", "5", "3", "2"], True))  # an unknown node
@given(query_graphs, tau_specs)
def test_cli_validate_writes_the_report_or_one_error_line(data, spec):
    """A report that finds violations exits 1 as well, on stdout with nothing on stderr."""
    graph, text, tau = _checked_tau(data, spec)
    code, out, err = _run_on_files(
        {"graph": data, "tau": text.encode("utf-8")},
        ["validate", "--graph", "{graph}", "--tau", "{tau}"])
    assert code in (0, 1, 2), err
    if tau is None:
        assert code == 2, err
    if code and not out:
        _assert_one_error_line(code, out, err)
        assert code == 2 or graph.edge_weights is None and graph.ground_values is None
        return
    check = is_edge_flooding if graph.edge_weights is not None else is_node_flooding
    report = check(graph, tau)
    expected = ["valid"] if report else ["invalid", *report.violations]
    assert (code, out.splitlines(), err) == (0 if report else 1, expected, "")


@settings(max_examples=100)
@example(CHAIN.encode(), "a 2\nb 4\n", "c")
@example(CHAIN.encode(), "a 2\nb 4\n", "zzz")  # an unknown node
@example(CHAIN.encode(), "b 3\n", "b")  # below the ground
@example(CHAIN.encode(), "q 3\n", "a")  # a ceiling on an unknown node
@example(CHAIN.encode(), "a x\n", "a")  # a bad token
@example(b"floodgraph v1\nnode a f=1 omega=3\nnode b f=1\nnode c f=2\nedge a b\nedge b c", None, "c")
@example(b"floodgraph v1\nnode a\nnode b\nedge a b w=1", None, "a")  # no ground
@example(b"P2 3 1 9 1 1 2", "0,1 5\n0,2 2\n", "0,0")
@given(query_graphs, st.one_of(st.none(), value_texts), query_nodes)
def test_cli_localflood_writes_the_level_or_one_error_line(data, ceiling_text, node):
    argv = ["localflood", "--graph", "{graph}", "--node", node]
    if ceiling_text is not None:
        argv += ["--ceiling", "{ceiling}"]
    files = {"graph": data, "ceiling": None if ceiling_text is None else ceiling_text.encode()}
    code, out, err = _run_on_files(files, argv)
    assert code in (0, 1, 2), err
    if _graph_rejected(data):
        assert code == 2, err
    elif _read_graph(data)[0].ground_values is not None:
        graph = _read_graph(data)[0]
        if ceiling_text is not None and _rejects(parse_node_values, ceiling_text):
            assert code == 2, err  # read once the ground is there
        elif ceiling_text is not None and not set(parse_node_values(ceiling_text)) <= set(graph.nodes):
            assert code == 2, err
        elif node not in graph.nodes:
            assert code == 2, err
    if code:
        _assert_one_error_line(code, out, err)
        return
    parsed, omega = _read_graph(data)
    if ceiling_text is not None:
        omega = parse_node_values(ceiling_text)
    omega = {**dict.fromkeys(parsed.nodes, TOP), **(omega or {})}
    assert list(parse_node_values(out).items()) == [(node, local_flood(parsed, omega, node))]


# Two components, {a, b, c} and {d}: d needs a marker of its own.
TWO_PARTS = "floodgraph v1\nnode a\nnode b\nnode c\nnode d\nedge a b w=3\nedge b c w=1\n"
marker_lines = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "d", "zzz"]), st.sampled_from(["0", "1", "2", "inf"])),
    max_size=5,
)


def _segment_code(lines: list[tuple[str, str]]) -> int:
    """The exit code README gives for a markers file on TWO_PARTS, fault by fault."""
    nodes = [node for node, _ in lines]
    if len(set(nodes)) != len(nodes) or "zzz" in nodes:
        return 2  # a duplicate line or an unknown node
    if not lines or len({label for _, label in lines}) != len(lines):
        return 1  # no markers, or labels that are not distinct
    if "d" not in nodes or not {"a", "b", "c"} & set(nodes):
        return 1  # a node that no marker reaches
    return 0


@settings(max_examples=100)
@example([("a", "1"), ("d", "2")], "dijkstra", False)
@example([("a", "1"), ("zzz", "2")], "dijkstra", False)  # an unknown node
@example([("a", "1"), ("a", "2")], "prim", False)  # a duplicate line
@example([("a", "1"), ("d", "1")], "dijkstra", False)  # duplicate labels
@example([], "dijkstra", True)  # no markers, a comment only
@example([("a", "1"), ("c", "2")], "prim", False)  # a component with no marker
@given(marker_lines, st.sampled_from(["dijkstra", "prim"]), st.booleans())
def test_cli_segment_exits_as_readme_lists_each_fault(lines, engine, comment):
    text = "".join(f"{node} {label}\n" for node, label in lines)
    with tempfile.TemporaryDirectory() as workdir:
        graph, markers = Path(workdir) / "two.fg", Path(workdir) / "markers.txt"
        graph.write_text(TWO_PARTS)
        markers.write_text(f"# markers\n\n{text}" if comment else text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(["segment", "--graph", str(graph), "--markers", str(markers),
                         "--engine", engine])
    assert code == _segment_code(lines), err.getvalue()
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
        return
    expected = marker_segmentation(parse_graph(TWO_PARTS)[0], parse_node_values(text), engine)
    assert list(parse_node_values(out.getvalue()).items()) == list(expected.labels.items())


CHAIN_GROUND = {"a": 0, "b": 4, "c": 1}
ceiling_lines = st.lists(
    st.tuples(st.sampled_from(["a", "b", "c", "zzz"]), st.sampled_from(["0", "2", "4", "inf", "x"])),
    max_size=4,
)


def _dendro_ceiling_code(lines: list[tuple[str, str]]) -> int:
    """The exit code README gives for a ceiling file on CHAIN, fault by fault."""
    nodes = [node for node, _ in lines]
    if len(set(nodes)) != len(nodes) or "zzz" in nodes or "x" in dict(lines).values():
        return 2  # a duplicate line, an unknown node or a bad token
    if any(float(level) < CHAIN_GROUND[node] for node, level in lines):
        return 1  # a ceiling below the ground
    return 0


@settings(max_examples=60)
@example([("a", "0"), ("c", "2")])
@example([("a", "0"), ("zzz", "2")])  # an unknown node
@example([("c", "2"), ("c", "4")])  # a duplicate line
@example([("b", "x")])  # a bad token
@example([("a", "inf"), ("b", "2")])  # below the ground at b
@given(ceiling_lines)
def test_cli_dendrogram_routes_exit_as_readme_lists_each_ceiling_fault(lines):
    """Both dendrogram routes of the CLI, ``dendro --flood`` and ``flood --algo
    dendro``, read the ceiling by the rule of the other routes."""
    text = "".join(f"{node} {level}\n" for node, level in lines)
    expected = _dendro_ceiling_code(lines)
    with tempfile.TemporaryDirectory() as workdir:
        graph, ceiling = Path(workdir) / "chain.fg", Path(workdir) / "ceiling.txt"
        graph.write_text(CHAIN)
        ceiling.write_text(text)
        common = ["--graph", str(graph), "--derive-edges", "--ceiling", str(ceiling)]
        for argv in (["dendro", "--flood", *common], ["flood", "--algo", "dendro", *common]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main(argv)
            assert code == expected, (argv[0], err.getvalue())
            if code:
                assert out.getvalue() == ""
                assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
                continue
            view = derive_edge_graph(parse_graph(CHAIN)[0])
            omega = {**dict.fromkeys(view.nodes, TOP), **parse_node_values(text)}
            tau_lines = out.getvalue().splitlines()[-len(view.nodes) :]
            tau = parse_node_values("\n".join(tau_lines))
            assert list(tau.items()) == list(dijkstra_flood(view, omega).tau.items())


# -- reference readers ----------------------------------------------------------
#
# The former readers, kept to pin the single-pass ones: PGM header tokens read
# byte by byte, and a graph parser that finds the header in a loop of its own
# before a second loop reads the body, checking ids and attributes through the
# former per-line helpers.


class ReferencePgmScanner:
    def __init__(self, data: bytes) -> None:
        self.data = data
        self.pos = 0

    def next_token(self) -> bytes:
        data, pos = self.data, self.pos
        while pos < len(data):
            byte = data[pos : pos + 1]
            if byte == b"#":
                while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                    pos += 1
            elif byte.isspace():
                pos += 1
            else:
                break
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace() and data[pos : pos + 1] != b"#":
            pos += 1
        if start == pos:
            raise GraphFormatError("truncated PGM header")
        self.pos = pos
        return data[start:pos]


def reference_read_pgm(data: bytes) -> list[list[int]]:
    scanner = ReferencePgmScanner(data)
    magic = scanner.next_token()
    if magic not in (b"P2", b"P5"):
        raise GraphFormatError(f"not a PGM image (magic {magic!r})")
    width, height, maxval = (
        _pgm_int(scanner.next_token(), what) for what in ("width", "height", "maxval")
    )
    if width <= 0 or height <= 0:
        raise GraphFormatError(f"bad PGM size {width}x{height}")
    if not 0 < maxval <= 65535:
        raise GraphFormatError(f"PGM maxval out of range: {maxval}")
    if magic == b"P2":
        tokens = _PGM_COMMENT.sub(b"", data[scanner.pos :]).split()
        pixels = [_pgm_int(token, "pixel") for token in tokens[: width * height]]
        if len(pixels) < width * height:
            raise GraphFormatError("truncated PGM pixel data")
        if len(tokens) > width * height:
            raise GraphFormatError("trailing data after the PGM pixel data")
    else:
        sample = 2 if maxval > 255 else 1
        comment = _PGM_COMMENT.match(data, scanner.pos)
        start = (comment.end() if comment else scanner.pos) + 1
        end = start + width * height * sample
        raw = data[start:end]
        if len(raw) != width * height * sample:
            raise GraphFormatError("truncated PGM pixel data")
        if len(data) > end:
            raise GraphFormatError("trailing data after the PGM pixel data")
        pixels = list(raw) if sample == 1 else [
            (raw[i] << 8) | raw[i + 1] for i in range(0, len(raw), 2)
        ]
    for value in pixels:
        if not 0 <= value <= maxval:
            raise GraphFormatError(f"PGM pixel {value} exceeds maxval {maxval}")
    return [pixels[row * width : (row + 1) * width] for row in range(height)]


def _strip_comment(line: str) -> str:
    """The line before its first ``#``, without surrounding blanks."""
    return line.split("#", 1)[0].strip()


def _check_node_id(token: str, lineno: int) -> str:
    if "=" in token:
        raise GraphFormatError(f"line {lineno}: node id may not contain '=': {token!r}")
    return token


def _parse_attrs(tokens: list[str], allowed: tuple[str, ...], lineno: int) -> dict:
    attrs = {}
    for token in tokens:
        key, sep, raw = token.partition("=")
        if not sep or key not in allowed:
            raise GraphFormatError(
                f"line {lineno}: expected one of {', '.join(k + '=<w>' for k in allowed)}, got {token!r}"
            )
        if key in attrs:
            raise GraphFormatError(f"line {lineno}: duplicate attribute {key!r}")
        try:
            attrs[key] = parse_weight(raw)
        except GraphFormatError as exc:
            raise GraphFormatError(f"line {lineno}: {exc}") from None
    return attrs


def reference_parse_graph(text: str):
    lines = text.splitlines()
    body_start = 0
    header_seen = False
    for lineno, raw in enumerate(lines, start=1):
        line = _strip_comment(raw)
        if not line:
            continue
        if line != HEADER:
            raise GraphFormatError(f"line {lineno}: expected header {HEADER!r}")
        header_seen = True
        body_start = lineno
        break
    if not header_seen:
        raise GraphFormatError(f"missing header {HEADER!r}")

    index: dict[str, int] = {}
    ground, omega, edge_weights = {}, {}, {}
    edge_u: list[int] = []
    edge_v: list[int] = []
    for lineno, raw in enumerate(lines[body_start:], start=body_start + 1):
        line = _strip_comment(raw)
        if not line:
            continue
        tokens = line.split()
        kind = tokens[0]
        if kind == "node":
            if len(tokens) < 2:
                raise GraphFormatError(f"line {lineno}: node line needs an id")
            node = _check_node_id(tokens[1], lineno)
            if node in index:
                raise GraphFormatError(f"line {lineno}: duplicate node {node!r}")
            index[node] = len(index)
            attrs = _parse_attrs(tokens[2:], ("f", "omega"), lineno)
            if "f" in attrs:
                ground[node] = attrs["f"]
            if "omega" in attrs:
                omega[node] = attrs["omega"]
        elif kind == "edge":
            if len(tokens) < 3:
                raise GraphFormatError(f"line {lineno}: edge line needs two node ids")
            u = _check_node_id(tokens[1], lineno)
            v = _check_node_id(tokens[2], lineno)
            for endpoint in (u, v):
                if endpoint not in index:
                    raise GraphFormatError(f"line {lineno}: unknown node {endpoint!r}")
            if u == v:
                raise GraphFormatError(f"line {lineno}: self-loop on {u!r}")
            attrs = _parse_attrs(tokens[3:], ("w",), lineno)
            if "w" in attrs:
                edge_weights[len(edge_u)] = attrs["w"]
            edge_u.append(index[u])
            edge_v.append(index[v])
        else:
            raise GraphFormatError(f"line {lineno}: expected 'node' or 'edge', got {kind!r}")

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
    graph = index_graph(
        index,
        edge_u,
        edge_v,
        ground_values=ground.values() if ground else None,
        edge_weights=edge_weights.values() if edge_weights else None,
    )
    ceiling = {node: omega.get(node, TOP) for node in index} if omega else None
    return graph, ceiling


def _outcome(parse, data):
    """What ``parse`` makes of ``data``: its result in plain values, or its error."""
    try:
        result = parse(data)
    except GraphFormatError as exc:
        return "error", str(exc)
    if isinstance(result, tuple):  # a graph and its ceiling
        graph, ceiling = result
        result = (graph.nodes, graph.edges, graph.ground_values, graph.edge_weights,
                  None if ceiling is None else list(ceiling.items()))
    return "ok", result


# blanks, line ends and comments where a reader must skip them
separators = st.sampled_from(
    [b" ", b"\t", b"\n", b"\r", b"\r\n", b"\x0b", b"\x0c", b"#", b"# c\n", b"#x\r", b"  # a # b\n", b""]
)
header_bytes = st.builds(
    lambda magic, parts, tail: magic + b"".join(sep + token for sep, token in parts) + tail,
    st.sampled_from([b"P2", b"P5", b"P6", b"", b"#P2"]),
    st.lists(st.tuples(st.lists(separators, min_size=1, max_size=3).map(b"".join), pgm_tokens),
             max_size=5),
    st.one_of(st.lists(separators, max_size=3).map(b"".join), st.binary(max_size=8)),
)
blank_lines = st.sampled_from(["", " ", "\t", "\r", "\x0b", "\x0c", "# c", "  # floodgraph v1"])
lined_graph_texts = st.builds(
    lambda before, header, body, sep: sep.join([*before, header, *body]),
    st.lists(blank_lines, max_size=3),
    st.sampled_from([HEADER, f" {HEADER} # c", "floodgraph v2", "node a"]),
    st.lists(st.one_of(graph_lines, blank_lines), max_size=6),
    st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c"]),
)


@settings(max_examples=300)
@example(b"P2#c\r1\x0b1\x0c1 1")
@example(b"P5 1 1 255#c\n\x05")
@example(b"P2 1")
@given(st.one_of(pgm_bytes, header_bytes))
def test_read_pgm_matches_the_byte_scanner(data):
    assert _outcome(read_pgm, data) == _outcome(reference_read_pgm, data)


@settings(max_examples=300)
@example("")
@example("# only a comment\n\n")
@example("\x0b# c\x0cfloodgraph v1\rnode a f=1")
@example("floodgraph v1\nnode a f=1 f=2")
@example("floodgraph v1\nnode a omega=1 f=2 omega=x")
@example("floodgraph v1\nnode a\nnode b\nedge a b w=1 w=-3")
@example("floodgraph v1\nnode a f\nnode b")
@example("floodgraph v1\nnode a\nnode b\nedge a b w")
@example("floodgraph v1\nnode a w=1")
@example("floodgraph v1\nnode a\nnode b\nedge a b omega=1")
@example("floodgraph v1\nnode a\nedge zz a=b")
@example("floodgraph v1\nnode a\nedge a=b zz")
@example("floodgraph v1\nnode a\nnode b\nedge zz b w=x")
@example("floodgraph v1\nnode a\nnode b\nedge a zz")
@example("floodgraph v1\nnode a f=-3\nnode b f=-3")
@example("floodgraph v1\nnode a f=0\nnode b f=-3 omega=x\nnode c f=-3")
@given(st.one_of(graph_texts, lined_graph_texts))
def test_parse_graph_matches_the_two_loop_parser(text):
    assert _outcome(parse_graph, text) == _outcome(reference_parse_graph, text)
