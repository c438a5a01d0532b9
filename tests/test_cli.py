"""End-to-end command-line tests: outputs, exit codes, file handling."""

from __future__ import annotations

import argparse
import os
import random
import subprocess
import sys
import tokenize
from concurrent.futures import ThreadPoolExecutor
from functools import partial
from hashlib import sha256
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from floodgraph import (
    TOP,
    build_lake_dendrogram,
    core_expanding_flood,
    dendrogram_flood,
    derive_edge_graph,
    dijkstra_flood,
    flooding_distance_all,
    lakes,
    local_flood,
    parse_graph,
    parse_node_values,
    read_pgm,
    serialize_graph,
    write_pgm,
)
from floodgraph import graphs
from floodgraph.cli import ingest_graph, main, resolve_ceiling
from floodgraph.formats import HEADER, _FIRST_LINE

from strategies import ground_of
from test_public_surface import code_tokens


CHAIN_FG = """\
floodgraph v1
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

TANK_FG = """\
floodgraph v1
node A
node B
node C
node D
node E
node F
edge A B w=1
edge B C w=5
edge C D w=3
edge D E w=2
edge E F w=6
"""

TANK_TAU = "A 2\nB 2\nC 1\nD 3\nE 3\nF 3\n"

CHAIN_TAU_LINES = ["a 0", "b 4", "c 2", "d 2", "e 1"]


@pytest.fixture
def chain_file(tmp_path):
    path = tmp_path / "chain.fg"
    path.write_text(CHAIN_FG)
    return str(path)


@pytest.fixture
def tank_file(tmp_path):
    path = tmp_path / "tank.fg"
    path.write_text(TANK_FG)
    return str(path)


@pytest.fixture
def tank_tau_file(tmp_path):
    path = tmp_path / "tank-tau.txt"
    path.write_text(TANK_TAU)
    return str(path)


def plain_pgm(rows):
    """``rows`` as plain PGM (P2) bytes: the CLI reads P2 but writes only P5."""
    maxval = max(max(max(row) for row in rows), 1)
    body = "".join(" ".join(map(str, row)) + "\n" for row in rows)
    return f"P2\n{len(rows[0])} {len(rows)}\n{maxval}\n{body}".encode("ascii")


@pytest.fixture
def strip_pgm(tmp_path):
    path = tmp_path / "strip.pgm"
    path.write_bytes(plain_pgm([[0, 0, 4, 1, 2, 0]]))
    return str(path)


@pytest.fixture
def strip_ceiling(tmp_path):
    path = tmp_path / "strip-ceiling.txt"
    path.write_text("0,0 0\n0,2 5\n0,3 3\n0,4 3\n0,5 1\n")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- flood ---------------------------------------------------------------------


def test_flood_core(capsys, chain_file):
    code, out, _ = run(capsys, "flood", "--algo", "core", "--graph", chain_file)
    assert code == 0
    assert out.splitlines() == CHAIN_TAU_LINES


@pytest.mark.parametrize("algo", ["berge", "dijkstra", "prim", "dendro"])
def test_flood_edge_algorithms_need_derived_weights(capsys, chain_file, algo):
    code, out, err = run(capsys, "flood", "--algo", algo, "--graph", chain_file)
    assert code == 1
    assert "--derive-edges" in err

    code, out, _ = run(
        capsys, "flood", "--algo", algo, "--graph", chain_file, "--derive-edges"
    )
    assert code == 0
    assert out.splitlines() == CHAIN_TAU_LINES


def test_flood_berge_jacobi_schedule(capsys, chain_file):
    code, out, _ = run(
        capsys,
        "flood",
        "--algo",
        "berge",
        "--schedule",
        "jacobi",
        "--graph",
        chain_file,
        "--derive-edges",
    )
    assert code == 0
    assert out.splitlines() == CHAIN_TAU_LINES


def test_flood_ceiling_file_overrides_graph_omega(capsys, tmp_path, chain_file):
    ceiling = tmp_path / "ceiling.txt"
    ceiling.write_text("a 0\n")
    code, out, _ = run(
        capsys,
        "flood",
        "--algo",
        "core",
        "--graph",
        chain_file,
        "--ceiling",
        str(ceiling),
    )
    assert code == 0
    assert out.splitlines() == ["a 0", "b 4", "c 4", "d 4", "e 4"]


def test_graph_ceiling_may_list_its_nodes_in_any_order(capsys, tmp_path, chain_file):
    omega = {"a": 2, "b": 6, "c": 1, "d": 4, "e": 0}
    reversed_graph = tmp_path / "rev.fg"
    reversed_graph.write_text(
        "floodgraph v1\n" + "".join(f"node {n} omega={omega[n]}\n" for n in "edcba")
    )
    values = tmp_path / "values.txt"
    values.write_text("".join(f"{n} {omega[n]}\n" for n in "edcba"))
    outputs = [
        run(capsys, "flood", "--algo", "core", "--graph", chain_file, "--ceiling", str(path))
        for path in (reversed_graph, values)
    ]
    assert outputs[0] == outputs[1]
    assert outputs[0][0] == 0
    assert outputs[0][1].splitlines() == ["a 2", "b 4", "c 1", "d 2", "e 0"]
    ceiling = resolve_ceiling(
        argparse.Namespace(ceiling=str(reversed_graph)), ingest_graph(chain_file, 4)
    )
    assert list(ceiling.items()) == list(omega.items())  # in the graph's order


def splitlines_first_line(text: str) -> str:
    """The first line with more than blanks before its '#', found by splitting every line."""
    return next(filter(None, (line.split("#", 1)[0].strip() for line in text.splitlines())), "")


# every str.splitlines line break, other blanks, comments and header pieces
ceiling_pieces = st.sampled_from(
    ["\n", "\r", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029",
     " ", "\t", "\x1f", "\xa0", "#", "# c", HEADER, "floodgraph", "v1", "a 1", "x"]
)


@settings(max_examples=300)
@example("")
@example(f"# c\x85 {HEADER} \t# d\nnode a")
@example(f"#\u2028\x1f{HEADER}\x1f")
@given(st.one_of(st.lists(ceiling_pieces, max_size=10).map("".join), st.text(max_size=20)))
def test_first_line_scan_matches_splitlines(text):
    assert _FIRST_LINE.match(text)[1].rstrip() == splitlines_first_line(text)


def test_graph_ceiling_with_another_node_set_is_rejected(capsys, tmp_path, chain_file):
    other = tmp_path / "other.fg"
    other.write_text("floodgraph v1\n" + "".join(f"node {n} omega=3\n" for n in "edcbz"))
    code, out, err = run(
        capsys, "flood", "--algo", "core", "--graph", chain_file, "--ceiling", str(other)
    )
    assert (code, out) == (2, "")
    assert "ceiling graph has a different node set" in err


def test_flood_without_any_ceiling_drowns_everything(capsys, tmp_path):
    bare = tmp_path / "bare.fg"
    bare.write_text("floodgraph v1\nnode x f=1\nnode y f=3\nedge x y\n")
    code, out, _ = run(capsys, "flood", "--algo", "core", "--graph", str(bare))
    assert code == 0
    assert out.splitlines() == ["x inf", "y inf"]


def test_flood_prim_with_no_finite_ceiling(capsys, monkeypatch, tmp_path, tank_file):
    empty = tmp_path / "empty.txt"
    empty.write_text("")
    from floodgraph.cli import prim_flood

    calls = []

    def spy(view, sources):
        calls.append(dict(sources))
        return prim_flood(view, sources)

    monkeypatch.setattr("floodgraph.cli.prim_flood", spy)
    code, out, err = run(
        capsys,
        "flood",
        "--algo",
        "prim",
        "--graph",
        tank_file,
        "--ceiling",
        str(empty),
        "--stats",
    )
    assert code == 0
    assert calls == [dict.fromkeys(("A", "B", "C", "D", "E", "F"), TOP)]  # the ceiling, all top
    assert all(line.endswith(" inf") for line in out.splitlines())
    assert err == "stats: extractions=0 relaxations=0 sweeps=0\n"


def test_flood_on_edge_weighted_input(capsys, tmp_path, tank_file):
    ceiling = tmp_path / "tank-ceiling.txt"
    ceiling.write_text("A 2\nC 1\n")
    code, out, _ = run(
        capsys,
        "flood",
        "--algo",
        "dijkstra",
        "--graph",
        tank_file,
        "--ceiling",
        str(ceiling),
    )
    assert code == 0
    assert out.splitlines() == ["A 2", "B 2", "C 1", "D 3", "E 3", "F 6"]


def test_flood_validate_after_and_stats(capsys, chain_file):
    code, out, err = run(
        capsys,
        "flood",
        "--algo",
        "dijkstra",
        "--graph",
        chain_file,
        "--derive-edges",
        "--validate-after",
        "--stats",
    )
    assert code == 0
    assert out.splitlines() == CHAIN_TAU_LINES
    assert "validate: valid" in err
    assert "stats: extractions=" in err
    assert "sweeps=" in err


def test_flood_core_validate_after_uses_the_node_criterion(capsys, chain_file):
    code, out, err = run(capsys, "flood", "--algo", "core", "--graph", chain_file, "--validate-after")
    assert code == 0
    assert err == "validate: valid\n"
    assert out == run(capsys, "flood", "--algo", "core", "--graph", chain_file)[1]


def test_flood_output_file_matches_stdout(capsys, tmp_path, chain_file):
    code, out, _ = run(capsys, "flood", "--algo", "core", "--graph", chain_file)
    assert code == 0
    target = tmp_path / "tau.txt"
    code, silent, _ = run(
        capsys, "flood", "--algo", "core", "--graph", chain_file, "-o", str(target)
    )
    assert code == 0
    assert silent == ""
    assert target.read_text() == out


def test_flood_is_deterministic(capsys, chain_file):
    first = run(capsys, "flood", "--algo", "core", "--graph", chain_file)
    second = run(capsys, "flood", "--algo", "core", "--graph", chain_file)
    assert first == second


# -- segment -------------------------------------------------------------------


def test_segment_chain(capsys, tmp_path, chain_file):
    markers = tmp_path / "markers.txt"
    markers.write_text("a 1\ne 2\n")
    code, out, _ = run(
        capsys,
        "segment",
        "--graph",
        chain_file,
        "--markers",
        str(markers),
        "--derive-edges",
    )
    assert code == 0
    assert out.splitlines() == ["a 1", "b 1", "c 2", "d 2", "e 2"]


def test_segment_with_tau_column_and_prim_engine(capsys, tmp_path, chain_file):
    markers = tmp_path / "markers.txt"
    markers.write_text("a 1\ne 2\n")
    expected = ["a 1 0", "b 1 4", "c 2 2", "d 2 2", "e 2 0"]
    for engine in ("dijkstra", "prim"):
        code, out, _ = run(
            capsys,
            "segment",
            "--graph",
            chain_file,
            "--markers",
            str(markers),
            "--derive-edges",
            "--engine",
            engine,
            "--tau",
        )
        assert code == 0
        assert out.splitlines() == expected


def test_segment_rejects_unknown_marker(capsys, tmp_path, chain_file):
    markers = tmp_path / "markers.txt"
    markers.write_text("zzz 1\n")
    code, _, err = run(
        capsys, "segment", "--graph", chain_file, "--markers", str(markers), "--derive-edges"
    )
    assert code == 2
    assert err == f"error: {markers}: unknown node: 'zzz'\n"


def test_segment_rejects_a_markers_file_without_markers(capsys, tmp_path, chain_file):
    markers = tmp_path / "markers.txt"
    markers.write_text("# none yet\n")
    code, _, err = run(
        capsys, "segment", "--graph", chain_file, "--markers", str(markers), "--derive-edges"
    )
    assert code == 1
    assert err == f"error: {markers}: no markers found\n"


def test_segment_rejects_a_component_without_a_marker(capsys, tmp_path):
    graph = tmp_path / "split.fg"
    graph.write_text("floodgraph v1\nnode a f=0\nnode b f=1\nnode c f=2\nedge a b\n")
    markers = tmp_path / "markers.txt"
    markers.write_text("a 1\n")
    code, _, err = run(
        capsys, "segment", "--graph", str(graph), "--markers", str(markers), "--derive-edges"
    )
    assert code == 1
    assert err == "error: node 'c' is unreachable from every marker\n"


@pytest.mark.parametrize("label", ["70000", "inf"])
def test_segment_label_pgm_rejects_a_label_beyond_a_gray_value(capsys, tmp_path, strip_pgm, label):
    markers = tmp_path / "markers.txt"
    markers.write_text(f"0,0 {label}\n0,3 9\n")
    labels = tmp_path / "labels.pgm"
    code, _, err = run(
        capsys,
        "segment",
        "--graph",
        strip_pgm,
        "--markers",
        str(markers),
        "--derive-edges",
        "--label-pgm",
        str(labels),
    )
    assert code == 1
    assert err == f"error: label {label} at node '0,0' does not fit in a PGM gray value\n"
    assert not labels.exists()


def test_segment_label_pgm_names_the_marker_whose_label_does_not_fit(capsys, tmp_path, strip_pgm):
    """Only the markers' labels are checked; the first bad one in file order is named."""
    markers = tmp_path / "markers.txt"
    markers.write_text("0,0 9\n0,4 70001\n0,3 70000\n")
    labels = tmp_path / "labels.pgm"
    code, _, err = run(
        capsys, "segment", "--graph", strip_pgm, "--markers", str(markers), "--derive-edges",
        "--label-pgm", str(labels),
    )
    assert code == 1
    assert err == "error: label 70001 at node '0,4' does not fit in a PGM gray value\n"
    assert not labels.exists()


def test_segment_label_pgm_round_trip(capsys, tmp_path, strip_pgm):
    markers = tmp_path / "markers.txt"
    markers.write_text("0,0 7\n0,3 9\n")
    labels = tmp_path / "labels.pgm"
    code, out, _ = run(
        capsys,
        "segment",
        "--graph",
        strip_pgm,
        "--markers",
        str(markers),
        "--derive-edges",
        "--label-pgm",
        str(labels),
    )
    assert code == 0
    raster = read_pgm(labels.read_bytes())
    assert raster == [[7, 7, 7, 9, 9, 9]]
    assert out.splitlines()[0] == "0,0 7"


def test_segment_label_pgm_requires_raster_input(capsys, tmp_path, chain_file):
    markers = tmp_path / "markers.txt"
    markers.write_text("a 1\n")
    code, _, err = run(
        capsys,
        "segment",
        "--graph",
        chain_file,
        "--markers",
        str(markers),
        "--derive-edges",
        "--label-pgm",
        str(tmp_path / "labels.pgm"),
    )
    assert code == 1
    assert "raster" in err


# -- fldist, mst, dendro ----------------------------------------------------------


def test_fldist_from_the_middle(capsys, chain_file):
    code, out, _ = run(
        capsys, "fldist", "--graph", chain_file, "--from", "c", "--derive-edges"
    )
    assert code == 0
    assert out.splitlines() == ["a 4", "b 4", "c -inf", "d 2", "e 2"]


def test_fldist_unknown_source(capsys, chain_file):
    code, _, err = run(
        capsys, "fldist", "--graph", chain_file, "--from", "zzz", "--derive-edges"
    )
    assert code == 2
    assert "unknown node" in err


GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src" / "floodgraph"


def read_back(capsys, *argv):
    """The node values a command writes, read back with ``parse_node_values``."""
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    return parse_node_values(out)


def exactly(values):
    return [(node, type(value), value) for node, value in values.items()]


@pytest.mark.parametrize("name, derive, ceiling", [("chain", True, None), ("tank", False, "tank")])
def test_node_value_outputs_read_back_to_the_solver_values(capsys, name, derive, ceiling):
    path = GOLDEN / f"{name}.fg"
    graph, omega = parse_graph(path.read_text())
    view = derive_edge_graph(graph) if derive else graph
    edges = ["--graph", str(path), *(["--derive-edges"] if derive else [])]
    flood = ["flood", *edges, "--algo", "dijkstra"]
    if ceiling is not None:  # the CLI fills the nodes the ceiling file leaves out with inf
        ceiling_file = GOLDEN / f"{ceiling}-ceiling.txt"
        given = parse_node_values(ceiling_file.read_text())
        omega = {node: given.get(node, TOP) for node in graph.nodes}
        flood += ["--ceiling", str(ceiling_file)]
    assert exactly(read_back(capsys, *flood)) == exactly(dijkstra_flood(view, omega).tau)
    for node in graph.nodes:
        dist = read_back(capsys, "fldist", *edges, "--from", node)
        assert exactly(dist) == exactly(flooding_distance_all(view, node))
        if graph.ground_values is not None:  # localflood needs a ground; the tank has none
            level = read_back(capsys, "localflood", "--graph", str(path), "--node", node)
            assert exactly(level) == exactly({node: local_flood(graph, omega, node)})


def test_mst_emits_a_graph_file(capsys, tank_file):
    code, out, _ = run(capsys, "mst", "--graph", tank_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "floodgraph v1"
    assert "edge A B w=1" in lines
    assert "edge E F w=6" in lines
    assert len([l for l in lines if l.startswith("edge")]) == 5


def test_dendro_report(capsys, tank_file):
    code, out, _ = run(capsys, "dendro", "--graph", tank_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "cluster 0 diam=-inf father=6 leaves=A"
    assert "cluster 6 diam=1 father=9 leaves=A B" in lines
    assert "cluster 8 diam=3 father=9 leaves=C D E" in lines
    assert lines[-1] == "cluster 10 diam=6 father=none leaves=A B C D E F"


def test_dendro_flood(capsys, tmp_path, tank_file):
    ceiling = tmp_path / "ceiling.txt"
    ceiling.write_text("C 1\n")
    code, out, _ = run(
        capsys,
        "dendro",
        "--graph",
        tank_file,
        "--flood",
        "--ceiling",
        str(ceiling),
    )
    assert code == 0
    assert out.splitlines()[-6:] == ["A 5", "B 5", "C 1", "D 3", "E 3", "F 6"]


def test_dendrogram_routes_build_no_cluster_views(capsys, tmp_path, chain_file, tank_file):
    """Building, flooding and both dendrogram commands read the parent arrays, the only
    form of a cluster there is."""
    graph, _ = parse_graph(Path(tank_file).read_text())
    dendro = build_lake_dendrogram(graph)
    omega = {node: 1 if node == "C" else 7 for node in graph.nodes}
    assert dendrogram_flood(dendro, omega) == dijkstra_flood(graph, omega).tau

    ceiling = tmp_path / "ceiling.txt"
    ceiling.write_text("C 1\n")
    code, out, _ = run(capsys, "dendro", "--graph", tank_file, "--flood", "--ceiling", str(ceiling))
    assert code == 0
    assert out.splitlines()[-6:] == ["A 5", "B 5", "C 1", "D 3", "E 3", "F 6"]
    code, out, err = run(
        capsys, "flood", "--algo", "dendro", "--graph", chain_file, "--derive-edges", "--stats"
    )
    assert code == 0
    assert out.splitlines() == CHAIN_TAU_LINES
    assert err == "stats: clusters=7\n"


def test_raster_routes_on_the_edge_list_build_no_grid_incidences(capsys, monkeypatch, tmp_path):
    """dendro, lakes, contract, mst and validate read a grid's edge list only, and
    still match their goldens; a solver route builds the incidences."""
    digests = dict(
        line.split("  ", 1)[::-1] for line in (GOLDEN / "raster64.sha256").read_text().splitlines()
    )
    raster, ceiling = str(GOLDEN / "raster64.pgm"), str(GOLDEN / "raster64-ceiling.txt")
    tau = tmp_path / "tau.txt"
    code, out, _ = run(capsys, "flood", "--algo", "core", "--graph", raster, "--ceiling", ceiling)
    assert sha256(out.encode()).hexdigest() == digests["raster64-flood-core.stdout"]
    tau.write_bytes(out.encode())

    def refuse(*args):
        raise AssertionError("the grid incidences were built")

    monkeypatch.setattr(graphs, "_grid_incidences", refuse)
    cases = {
        "raster64-dendro-flood": ["dendro", "--derive-edges", "--flood", "--ceiling", ceiling],
        "raster64-lakes": ["lakes", "--tau", str(tau)],
        "raster64-contract-ceiling": ["contract", "--ceiling", ceiling],
        "raster64-mst": ["mst", "--derive-edges"],
        "raster64-validate": ["validate", "--tau", str(tau)],
    }
    for name, argv in cases.items():
        code, out, err = run(capsys, *argv, "--graph", raster)
        assert (code, err) == (0, ""), name
        assert sha256(out.encode()).hexdigest() == digests[f"{name}.stdout"], name
    with pytest.raises(AssertionError, match="incidences were built"):
        main(["flood", "--algo", "dijkstra", "--derive-edges", "--graph", raster])


def test_text_routes_on_the_edge_list_build_no_csr(capsys, monkeypatch):
    """mst, dendro and lakes read a text graph's edge list only, through a derived
    view too, and still match their goldens; a solver route builds the CSR."""

    def refuse(*args):
        raise AssertionError("the CSR was built")

    monkeypatch.setattr(graphs, "_csr", refuse)
    chain, tau = str(GOLDEN / "chain.fg"), str(GOLDEN / "chain-tau.txt")
    cases = {
        "chain-mst": ["mst", "--derive-edges"],
        "chain-dendro": ["dendro", "--derive-edges"],
        "chain-dendro-flood": ["dendro", "--derive-edges", "--flood"],
        "chain-lakes": ["lakes", "--tau", tau],
    }
    for name, argv in cases.items():
        code, out, err = run(capsys, *argv, "--graph", chain)
        assert (code, err) == (0, ""), name
        assert out.encode() == (GOLDEN / "expected" / f"{name}.stdout").read_bytes(), name
    with pytest.raises(AssertionError, match="CSR was built"):
        main(["flood", "--algo", "dijkstra", "--derive-edges", "--graph", chain])


def test_a_ceiling_graph_in_node_order_is_listed_by_index(capsys, monkeypatch, tmp_path):
    """A --ceiling graph file that declares the nodes in the input's order is copied
    by index: no name index is built and no ceiling value is read by name, and the
    output is the golden one of the same ceiling as a node-values file."""
    cases = {
        "tank-flood-dijkstra": ("tank.fg", ["flood", "--algo", "dijkstra"]),
        "strip-flood-dijkstra": ("strip.pgm", ["flood", "--algo", "dijkstra", "--derive-edges"]),
        "strip-localflood": ("strip.pgm", ["localflood", "--node", "0,3"]),
    }
    files = {}
    for name, ceiling in (("tank.fg", "tank-ceiling.txt"), ("strip.pgm", "strip-ceiling.txt")):
        graph = ingest_graph(str(GOLDEN / name), 4).graph
        omega = parse_node_values((GOLDEN / ceiling).read_text())
        files[name] = tmp_path / f"{name}-ceiling.fg"
        files[name].write_text("".join(serialize_graph(graph, omega)))

    def refuse(*args):
        raise AssertionError("a name was looked up")

    monkeypatch.setattr(graphs.Graph, "_names", refuse)
    monkeypatch.setattr(graphs.NodeValues, "__getitem__", refuse)
    for golden, (name, argv) in cases.items():
        code, out, err = run(capsys, *argv, "--graph", str(GOLDEN / name), "--ceiling", str(files[name]))
        assert (code, err) == (0, ""), golden
        assert out.encode() == (GOLDEN / "expected" / f"{golden}.stdout").read_bytes(), golden


def test_a_tau_in_reverse_order_gives_the_same_reports(capsys, tmp_path):
    """validate and lakes read a tau in node order by index and one in any other order
    by name, with the same outcome: the twin of CI's check on the installed script."""
    code, tau, _ = run(capsys, "flood", "--algo", "core", "--graph", str(GOLDEN / "raster64.pgm"))
    assert code == 0
    forward, backward = tmp_path / "tau.txt", tmp_path / "tau-reversed.txt"
    forward.write_text(tau)
    backward.write_text("".join(reversed(tau.splitlines(keepends=True))))
    for command in ("validate", "lakes"):
        outputs = [run(capsys, command, "--graph", str(GOLDEN / "raster64.pgm"), "--tau", str(path))
                   for path in (forward, backward)]
        assert outputs[0] == outputs[1] and outputs[0][0] == 0, command
        assert outputs[0][1].startswith("valid\n" if command == "validate" else "lake 0 "), command


def test_dendro_on_two_components_matches_members(capsys, tmp_path):
    """Two summits, and clusters whose leaves are declared out of merge order."""
    path = tmp_path / "two.fg"
    path.write_text(
        "floodgraph v1\n" + "".join(f"node {name}\n" for name in "tqspru")
        + "edge p u w=2\nedge s u w=1\nedge q r w=3\nedge r t w=3\nedge t q w=1\n"
    )
    graph, _ = parse_graph(path.read_text())
    dendro = build_lake_dendrogram(graph)
    assert dendro.father.count(None) == 2
    expected = [
        f"cluster {index} diam={dendro.diam[index]} "
        f"father={'none' if dendro.father[index] is None else dendro.father[index]} "
        f"leaves={' '.join(members)}"
        for index, members in enumerate(dendro.all_members())
    ]
    code, out, _ = run(capsys, "dendro", "--graph", str(path))
    assert code == 0
    assert out.splitlines() == expected
    assert "cluster 9 diam=3 father=none leaves=t q r" in expected


# -- lakes and validate --------------------------------------------------------------


def test_lakes_with_full_lakes_match_the_partition(capsys, tmp_path):
    rng = random.Random(4)
    rows = [[rng.randint(0, 6) for _ in range(12)] for _ in range(9)]
    ground = tmp_path / "ground.pgm"
    ground.write_bytes(write_pgm(rows))
    graph = ingest_graph(str(ground), 4).graph
    omega = {node: rng.choice([7, 7, 2, 3, 4]) for node in graph.nodes}
    ground_by_name = ground_of(graph)
    tau = core_expanding_flood(graph, {n: max(omega[n], ground_by_name[n]) for n in graph.nodes}).tau
    tau_file = tmp_path / "tau.txt"
    tau_file.write_text("".join(f"{node} {level}\n" for node, level in tau.items()))
    code, out, _ = run(capsys, "lakes", "--graph", str(ground), "--tau", str(tau_file))
    assert code == 0
    edges = graph.edges
    part = lakes(graph, tau)
    assert sum(map(bool, part.exhaust)) > 1  # more than one full lake
    assert out.splitlines() == [
        f"lake {index} level={level} kind={'full' if drain else 'regmin'} nodes={' '.join(nodes)} "
        f"exhaust={' '.join(f'{edges[eid][0]}-{edges[eid][1]}' for eid in drain)}"
        for index, (level, nodes, drain) in enumerate(zip(part.levels, part.members, part.exhaust))
    ]


def test_lakes_report(capsys, tank_file, tank_tau_file):
    code, out, _ = run(capsys, "lakes", "--graph", tank_file, "--tau", tank_tau_file)
    assert code == 0
    assert out.splitlines() == [
        "lake 0 level=2 kind=regmin nodes=A B exhaust=",
        "lake 1 level=1 kind=regmin nodes=C exhaust=",
        "lake 2 level=3 kind=full nodes=D E exhaust=C-D",
        "lake 3 level=3 kind=regmin nodes=F exhaust=",
    ]


@pytest.mark.parametrize("graph, tau, golden", [
    ("tank.fg", "tank-bad-tau.txt", "tank-lakes-invalid"),
    ("chain.fg", "chain-low-tau.txt", "chain-lakes-below-ground"),
])
def test_lakes_exit_1_where_validate_does(capsys, graph, tau, golden):
    """lakes refuses a tau that validate finds invalid, naming validate's first
    violation, a node below its ground too: the twin of CI's check on the installed script."""
    files = ["--graph", str(GOLDEN / graph), "--tau", str(GOLDEN / tau)]
    code, out, _ = run(capsys, "validate", *files)
    assert code == 1
    first = out.splitlines()[1]
    code, out, err = run(capsys, "lakes", *files)
    assert (code, out) == (1, "")
    assert err == f"error: tau is not a valid flooding: {first}\n"
    assert err.encode() == (GOLDEN / "expected" / f"{golden}.stderr").read_bytes()


def test_validate_valid_and_invalid(capsys, tmp_path, tank_file, tank_tau_file):
    code, out, _ = run(capsys, "validate", "--graph", tank_file, "--tau", tank_tau_file)
    assert code == 0
    assert out == "valid\n"

    bumped = tmp_path / "bumped.txt"
    bumped.write_text(TANK_TAU.replace("D 3", "D 4"))
    code, out, _ = run(capsys, "validate", "--graph", tank_file, "--tau", str(bumped))
    assert code == 1
    lines = out.splitlines()
    assert lines[0] == "invalid"
    assert any("exceeds" in line for line in lines[1:])


def test_validate_uses_the_node_criterion_on_node_inputs(capsys, tmp_path, chain_file):
    hanging = tmp_path / "hanging.txt"
    hanging.write_text("a 0\nb 4\nc 3\nd 2\ne 1\n")
    code, out, _ = run(capsys, "validate", "--graph", chain_file, "--tau", str(hanging))
    assert code == 1
    assert "hangs above" in out


def test_validate_requires_a_total_tau(capsys, tank_file, tmp_path):
    partial = tmp_path / "partial.txt"
    partial.write_text("A 2\n")
    code, _, err = run(capsys, "validate", "--graph", tank_file, "--tau", str(partial))
    assert code == 2
    assert "missing node" in err


TAU_FAULTS = {
    # b is left out, and zz names no node: the missing node is reported first
    "missing": ("a 0\nzz 1\nc 2\nd 2\ne 1\n", "tau is missing node 'b'"),
    # zz comes before yy in the file
    "unknown": ("a 0\nb 4\nzz 1\nc 2\nyy 0\nd 2\ne 1\n", "tau defined on unknown node 'zz'"),
}


@pytest.mark.parametrize("fault", TAU_FAULTS)
@pytest.mark.parametrize("command", ["lakes", "validate"])
def test_a_tau_file_off_the_node_set_exits_2_naming_the_file(
    capsys, tmp_path, chain_file, command, fault
):
    """A tau file is read against the graph, as a ceiling file is: a fault of its input."""
    text, message = TAU_FAULTS[fault]
    tau = tmp_path / "tau.txt"
    tau.write_text(text)
    code, out, err = run(capsys, command, "--graph", chain_file, "--tau", str(tau))
    assert (code, out, err) == (2, "", f"error: {tau}: {message}\n")


# -- contract and localflood -----------------------------------------------------------


def test_contract_strip_report(capsys, strip_pgm, strip_ceiling):
    code, out, _ = run(
        capsys, "contract", "--graph", strip_pgm, "--ceiling", strip_ceiling
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "floodgraph v1"
    assert "node 0,0 f=0 omega=0" in lines
    assert "node 0,2 f=4 omega=5" in lines
    assert "edge 0,0 0,2" in lines
    assert "# block 0,0 0,0 0,1" in lines


def test_contract_output_is_reingestible(capsys, tmp_path, strip_pgm, strip_ceiling):
    contracted = tmp_path / "contracted.fg"
    code, _, _ = run(
        capsys,
        "contract",
        "--graph",
        strip_pgm,
        "--ceiling",
        strip_ceiling,
        "-o",
        str(contracted),
    )
    assert code == 0
    code, out, _ = run(capsys, "flood", "--algo", "core", "--graph", str(contracted))
    assert code == 0
    assert out.splitlines() == ["0,0 0", "0,2 4", "0,3 2", "0,4 2", "0,5 1"]


def test_contract_without_ceiling_emits_no_omega(capsys, chain_file, tmp_path):
    plain = tmp_path / "plain.fg"
    plain.write_text("floodgraph v1\nnode a f=1\nnode b f=1\nedge a b\n")
    code, out, _ = run(capsys, "contract", "--graph", str(plain))
    assert code == 0
    assert "omega=" not in out
    assert "node a f=1" in out.splitlines()
    assert "# block a a b" in out.splitlines()


def test_contract_without_ceiling_contracts_none(capsys, monkeypatch, tmp_path):
    """No --ceiling and no omega= in the file: no all-top ceiling is built or contracted."""
    from floodgraph.cli import contract_flat_zones

    plain = tmp_path / "plain.fg"
    plain.write_text("floodgraph v1\nnode a f=1\nnode b f=1\nedge a b\n")
    ceilings = []

    def keep(graph, omega):
        ceilings.append(omega)
        return contract_flat_zones(graph, omega)

    monkeypatch.setattr("floodgraph.cli.contract_flat_zones", keep)
    assert run(capsys, "contract", "--graph", str(plain))[0] == 0
    assert ceilings == [None]


def test_localflood(capsys, chain_file, strip_pgm, strip_ceiling):
    code, out, _ = run(capsys, "localflood", "--graph", chain_file, "--node", "c")
    assert code == 0
    assert out == "c 2\n"
    code, out, _ = run(
        capsys,
        "localflood",
        "--graph",
        strip_pgm,
        "--ceiling",
        strip_ceiling,
        "--node",
        "0,3",
    )
    assert code == 0
    assert out == "0,3 2\n"


# -- rasters, connectivity, environment ---------------------------------------------------


def test_flood_on_a_raster(capsys, strip_pgm, strip_ceiling):
    code, out, _ = run(
        capsys,
        "flood",
        "--algo",
        "core",
        "--graph",
        strip_pgm,
        "--ceiling",
        strip_ceiling,
    )
    assert code == 0
    assert out.splitlines() == ["0,0 0", "0,1 0", "0,2 4", "0,3 2", "0,4 2", "0,5 1"]


@pytest.mark.parametrize("algo", [["core"], *([algo, "--derive-edges"] for algo in
                                               ("dijkstra", "berge", "prim", "dendro"))])
def test_a_node_values_ceiling_on_a_raster_builds_no_name_index(capsys, monkeypatch, strip_pgm,
                                                                 strip_ceiling, algo):
    """The ceiling's names are checked by a count of the nodes it holds, not looked up,
    and the route reads it by index: neither the raster nor its edge view builds the
    name index."""
    graphs = []

    def ingest(*args):
        ingested = ingest_graph(*args)
        graphs.append(ingested.graph)
        return ingested

    def derive(graph):
        graphs.append(derive_edge_graph(graph))
        return graphs[-1]

    monkeypatch.setattr("floodgraph.cli.ingest_graph", ingest)
    monkeypatch.setattr("floodgraph.cli.derive_edge_graph", derive)
    code, out, _ = run(
        capsys, "flood", "--algo", *algo, "--graph", strip_pgm, "--ceiling", strip_ceiling
    )
    assert code == 0
    assert out.splitlines() == ["0,0 0", "0,1 0", "0,2 4", "0,3 2", "0,4 2", "0,5 1"]
    assert len(graphs) == len(algo)  # the raster, and the edge view if one is derived
    assert [graph._index for graph in graphs] == [None] * len(graphs)


NAMED_NODE_RUNS = {
    "segment": (["segment", "--derive-edges", "--markers", "{markers}", "--tau"],
                ["0,0 1 0", "0,1 1 0", "0,2 2 4", "0,3 2 2", "0,4 2 2", "0,5 2 0"]),
    "fldist": (["fldist", "--derive-edges", "--from", "0,3"],
               ["0,0 4", "0,1 4", "0,2 4", "0,3 -inf", "0,4 2", "0,5 2"]),
    "localflood": (["localflood", "--ceiling", "{ceiling}", "--node", "0,3"], ["0,3 2"]),
}


@pytest.mark.parametrize("command", NAMED_NODE_RUNS)
def test_named_nodes_on_a_raster_build_no_name_index(capsys, monkeypatch, tmp_path, strip_pgm,
                                                     strip_ceiling, command):
    """The markers, ``--from`` and ``--node`` are found by one pass over the node
    names: neither the raster nor its edge view builds the name index."""
    markers = tmp_path / "markers.txt"
    markers.write_text("0,5 2\n0,1 1\n")
    graphs = []

    def ingest(*args):
        ingested = ingest_graph(*args)
        graphs.append(ingested.graph)
        return ingested

    def derive(graph):
        graphs.append(derive_edge_graph(graph))
        return graphs[-1]

    monkeypatch.setattr("floodgraph.cli.ingest_graph", ingest)
    monkeypatch.setattr("floodgraph.cli.derive_edge_graph", derive)
    argv, expected = NAMED_NODE_RUNS[command]
    argv = [arg.format(markers=markers, ceiling=strip_ceiling) for arg in argv]
    code, out, _ = run(capsys, *argv, "--graph", strip_pgm)
    assert code == 0
    assert out.splitlines() == expected
    assert len(graphs) == 1 + ("--derive-edges" in argv)
    assert [graph._index for graph in graphs] == [None] * len(graphs)


@pytest.mark.parametrize("command", NAMED_NODE_RUNS)
def test_an_unknown_named_node_on_a_raster_is_the_first_given(capsys, tmp_path, strip_pgm,
                                                              strip_ceiling, command):
    markers = tmp_path / "markers.txt"
    markers.write_text("0,5 2\nzz 1\n0,1 3\nyy 4\n")
    argv, _ = NAMED_NODE_RUNS[command]
    argv = [
        "zz" if arg == "0,3" else arg.format(markers=markers, ceiling=strip_ceiling)
        for arg in argv
    ]
    code, out, err = run(capsys, *argv, "--graph", strip_pgm)
    culprit = f"{markers}: " if command == "segment" else ""  # the others read it from argv
    assert (code, out, err) == (2, "", f"error: {culprit}unknown node: 'zz'\n")


def test_a_ceiling_on_an_unknown_raster_node_names_it(capsys, tmp_path, strip_pgm):
    ceiling = tmp_path / "ceiling.txt"
    ceiling.write_text("0,2 5\n0,9 3\n1,0 4\n")
    code, out, err = run(
        capsys, "flood", "--algo", "core", "--graph", strip_pgm, "--ceiling", str(ceiling)
    )
    assert (code, out) == (2, "")
    assert err == f"error: {ceiling}: ceiling defined on unknown node '0,9'\n"


def test_raster_ceiling_must_match_dimensions(capsys, tmp_path, strip_pgm):
    wrong = tmp_path / "wrong.pgm"
    wrong.write_bytes(plain_pgm([[1, 2]]))
    code, _, err = run(
        capsys, "flood", "--algo", "core", "--graph", strip_pgm, "--ceiling", str(wrong)
    )
    assert code == 2
    assert "1x2" in err and "1x6" in err


@pytest.mark.parametrize(
    "data", [b"P2\n2 1\n3\n1 2 9 9 9\n", b"P5\n2 1\n255\n\x01\x02\x09", b"P2\n2 1\n3\n1 -2\n"]
)
def test_malformed_raster_exits_2(capsys, tmp_path, data):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    code, out, err = run(capsys, "flood", "--algo", "core", "--graph", str(path))
    assert code == 2 and out == ""
    assert "PGM" in err and "Traceback" not in err


@pytest.mark.parametrize("connectivity", ["4", "8"])
@pytest.mark.parametrize("algo", [["core"], ["dijkstra", "--derive-edges"]])
def test_raster_ceiling_equals_the_node_values_ceiling(capsys, tmp_path, algo, connectivity):
    ground = Path(__file__).parent / "golden" / "raster64.pgm"
    ceiling = [
        [value + (7 * r + 3 * c) % 5 for c, value in enumerate(row)]
        for r, row in enumerate(read_pgm(ground.read_bytes()))
    ]
    pgm, values = tmp_path / "ceiling.pgm", tmp_path / "ceiling.txt"
    pgm.write_bytes(write_pgm(ceiling))
    lines = [f"{r},{c} {level}" for r, row in enumerate(ceiling) for c, level in enumerate(row)]
    values.write_text("\n".join(lines) + "\n")
    floods = []
    for path in (pgm, values):
        code, out, _ = run(
            capsys, "flood", "--algo", *algo, "--graph", str(ground),
            "--connectivity", connectivity, "--ceiling", str(path),
        )
        assert code == 0
        floods.append(out)
    assert len(floods[0].splitlines()) == 64 * 64
    assert floods[0] == floods[1]


def test_raster_ceiling_requires_raster_ground(capsys, tmp_path, chain_file):
    pgm = tmp_path / "ceiling.pgm"
    pgm.write_bytes(plain_pgm([[1, 1, 1, 1, 1]]))
    code, _, err = run(
        capsys, "flood", "--algo", "core", "--graph", chain_file, "--ceiling", str(pgm)
    )
    assert code == 2
    assert "raster" in err


def _diagonal_distance(capsys, tmp_path, *extra):
    pgm = tmp_path / "square.pgm"
    pgm.write_bytes(plain_pgm([[0, 1], [1, 0]]))
    code, out, _ = run(
        capsys, "fldist", "--graph", str(pgm), "--from", "0,0", "--derive-edges", *extra
    )
    assert code == 0
    return dict(line.split() for line in out.splitlines())["1,1"]


def test_connectivity_default_and_flag(capsys, tmp_path):
    assert _diagonal_distance(capsys, tmp_path) == "1"
    assert _diagonal_distance(capsys, tmp_path, "--connectivity", "8") == "0"
    assert _diagonal_distance(capsys, tmp_path, "--connectivity", "4") == "1"


def test_connectivity_ignores_the_environment(capsys, tmp_path, monkeypatch):
    """Only the flag picks the grid connectivity: no environment variable does."""
    monkeypatch.setenv("FLOODGRAPH_CONNECTIVITY", "8")
    assert _diagonal_distance(capsys, tmp_path) == "1"


def utf8_graph(tmp_path):
    """A graph file with the non-ASCII node name é."""
    graph = tmp_path / "utf8.fg"
    graph.write_bytes("floodgraph v1\nnode é f=1\nnode b f=2 omega=3\nedge é b\n".encode())
    return str(graph)


def locales():
    """(name, environment) for a child under the default locale and under ASCII."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    base = {**os.environ, "PYTHONPATH": path}
    ascii_locale = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}
    return (("default", base), ("ascii", {**base, **ascii_locale}))


def test_non_ascii_names_are_written_as_utf8_under_any_locale(tmp_path):
    expected = "é 3\nb 3\n".encode()
    command = [sys.executable, "-m", "floodgraph.cli", "flood", "--algo", "core"]
    command += ["--graph", utf8_graph(tmp_path)]
    for name, env in locales():
        report = tmp_path / f"{name}.txt"
        child = subprocess.run(command, env=env, capture_output=True)
        assert (child.returncode, child.stdout, child.stderr) == (0, expected, b""), name
        child = subprocess.run([*command, "-o", str(report)], env=env, capture_output=True)
        assert (child.returncode, child.stdout, child.stderr) == (0, b"", b""), name
        assert report.read_bytes() == expected, name


def test_the_cli_imports_no_typing_module():
    """The annotations name their types through ``collections.abc``, which the interpreter
    loads anyway, so a CLI call does not pay for importing ``typing``."""
    probe = "import sys, floodgraph.cli; print('typing' in sys.modules)"
    child = subprocess.run([sys.executable, "-S", "-c", probe], env=locales()[0][1],
                           capture_output=True, text=True, check=True)
    assert child.stdout == "False\n"


def test_node_names_on_the_command_line_are_read_as_utf8_under_any_locale(tmp_path):
    graph = utf8_graph(tmp_path)
    runs = {
        ("fldist", "--derive-edges", "--from", "é"): "é -inf\nb 2\n",
        ("localflood", "--node", "é"): "é 3\n",
    }
    for name, env in locales():
        for argv, expected in runs.items():
            command = [sys.executable, "-m", "floodgraph.cli", *argv, "--graph", graph]
            child = subprocess.run(command, env=env, capture_output=True)
            outcome = (child.returncode, child.stdout, child.stderr)
            assert outcome == (0, expected.encode(), b""), (name, argv)
        # a name that is not UTF-8 is a usage error, without a traceback
        command = [sys.executable, "-m", "floodgraph.cli", "localflood", "--graph", graph]
        child = subprocess.run([*command, "--node", b"\xff"], env=env, capture_output=True)
        assert child.returncode == 2 and child.stdout == b"", name
        assert child.stderr.startswith(b"usage: ") and b"Traceback" not in child.stderr, name


RASTER_FLOOD = b"0,0 4\n0,1 5\n0,2 5\n1,0 4\n1,1 0\n1,2 6\n2,0 4\n2,1 7\n2,2 8\n"
RASTER_RUNS = {  # argv: the expected stdout, or its last lines for dendro
    ("flood", "--algo", "dijkstra", "--derive-edges", "--ceiling", "ceiling.txt"): RASTER_FLOOD,
    ("flood", "--algo", "dendro", "--derive-edges", "--ceiling", "ceiling.txt"): RASTER_FLOOD,
    ("dendro", "--derive-edges", "--flood", "--ceiling", "ceiling.txt"): RASTER_FLOOD,
    ("fldist", "--derive-edges", "--from", "0,0"):
        b"0,0 -inf\n0,1 5\n0,2 5\n1,0 4\n1,1 4\n1,2 6\n2,0 4\n2,1 7\n2,2 8\n",
    ("segment", "--derive-edges", "--markers", "markers.txt", "--tau", "--label-pgm", "labels.pgm"):
        b"0,0 1 4\n0,1 1 5\n0,2 1 5\n1,0 1 4\n1,1 1 0\n1,2 1 6\n2,0 1 4\n2,1 1 7\n2,2 2 0\n",
    # the single-node query gives each node's line of the global flood
    **{
        ("localflood", "--ceiling", "ceiling.txt", "--node", line.split()[0].decode()): line
        for line in RASTER_FLOOD.splitlines(keepends=True)
    },
}


def test_raster_commands_write_their_lines_under_any_locale(tmp_path):
    """flood, fldist, segment and localflood write from slices of node indices, to stdout too,
    and both dendrogram routes flood the raster as flood does."""
    (tmp_path / "ground.pgm").write_bytes(b"P2\n3 3\n9\n1 5 2\n4 0 6\n3 7 8\n")
    (tmp_path / "ceiling.txt").write_bytes(b"1,1 0\n")
    (tmp_path / "markers.txt").write_bytes(b"1,1 1\n2,2 2\n")

    def child(env, argv):
        command = [sys.executable, "-m", "floodgraph.cli", argv[0], "--graph", "ground.pgm"]
        return subprocess.run([*command, *argv[1:]], cwd=tmp_path, env=env, capture_output=True)

    for name, env in locales():
        with ThreadPoolExecutor(max_workers=4) as pool:
            children = list(pool.map(partial(child, env), RASTER_RUNS))
        for (argv, expected), done in zip(RASTER_RUNS.items(), children):
            stdout = done.stdout
            if argv[0] == "dendro":  # its cluster lines, then the flood's
                stdout = b"".join(stdout.splitlines(keepends=True)[-9:])
            assert (done.returncode, stdout, done.stderr) == (0, expected, b""), (name, argv)
        labels = (tmp_path / "labels.pgm").read_bytes()
        assert labels == b"P5\n3 3\n2\n\x01\x01\x01\x01\x01\x01\x01\x01\x02", name
        (tmp_path / "labels.pgm").unlink()


@pytest.mark.parametrize("argv", [["dendro", "--derive-edges"], ["mst", "--derive-edges"],
                                  ["contract"]], ids=["dendro", "mst", "contract"])
def test_a_closed_stdout_pipe_ends_a_command_quietly(argv):
    """A reader that stops early (``| head -c 1``) gets the status a shell reports for
    SIGPIPE, and no error: 367 KB of dendro lines, the 145 KB tree and the 240 KB
    contraction each overflow any pipe buffer, written chunk by chunk."""
    command = [sys.executable, "-m", "floodgraph.cli", *argv]
    command += ["--graph", str(GOLDEN / "raster64.pgm")]
    with subprocess.Popen(
        command, env=locales()[0][1], stdout=subprocess.PIPE, stderr=subprocess.PIPE
    ) as child:  # closes the stderr pipe too
        assert len(child.stdout.read(1)) == 1
        child.stdout.close()
        stderr = child.stderr.read()
        assert (child.wait(timeout=60), stderr) == (141, b"")


# -- exit codes --------------------------------------------------------------------


def test_missing_file_is_a_usage_error(capsys, tmp_path):
    code, _, _ = run(capsys, "flood", "--algo", "core", "--graph", str(tmp_path / "no.fg"))
    assert code == 2


def test_bad_graph_text_is_a_usage_error(capsys, tmp_path):
    bad = tmp_path / "bad.fg"
    bad.write_text("floodgraph v1\nwall a b\n")
    code, _, err = run(capsys, "flood", "--algo", "core", "--graph", str(bad))
    assert code == 2
    assert "expected 'node' or 'edge'" in err


def test_argparse_errors_exit_2(capsys, chain_file):
    assert run(capsys, "flood", "--graph", chain_file)[0] == 2  # --algo missing
    assert run(capsys, "flood", "--algo", "magic", "--graph", chain_file)[0] == 2
    assert run(capsys)[0] == 2


def test_an_edge_route_without_weights_or_ground_exits_1(capsys, tmp_path):
    bare = tmp_path / "bare.fg"
    bare.write_text("floodgraph v1\nnode a\nnode b\nedge a b\n")
    code, out, err = run(capsys, "mst", "--graph", str(bare), "--derive-edges")
    assert (code, out) == (1, "")
    assert err == "error: mst needs edge weights and the input carries none\n"


def test_domain_errors_exit_1(capsys, tmp_path, chain_file):
    low = tmp_path / "low.txt"
    low.write_text("a 0\nb 1\nc 0\nd 0\ne 0\n")
    code, _, err = run(
        capsys, "flood", "--algo", "core", "--graph", chain_file, "--ceiling", str(low)
    )
    assert code == 1
    assert "ceiling below ground" in err


def test_overlong_weight_is_a_usage_error(capsys, tmp_path, chain_file):
    ceiling = tmp_path / "long.txt"
    ceiling.write_text("a " + "1" * 5000 + "\n")
    code, out, err = run(
        capsys, "flood", "--algo", "core", "--graph", chain_file, "--ceiling", str(ceiling)
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("command", [["flood", "--algo", "dendro"], ["dendro", "--flood"]])
def test_dendro_routes_reject_ceiling_below_ground(capsys, tmp_path, chain_file, command):
    low = tmp_path / "low.txt"
    low.write_text("a 0\nb 1\nc 1\nd 2\ne 0\n")
    code, out, err = run(
        capsys, *command, "--graph", chain_file, "--derive-edges", "--ceiling", str(low)
    )
    assert code == 1
    assert out == ""
    assert "ceiling below ground at node 'b'" in err


def test_dendro_refuses_a_ceiling_without_flood(capsys, tmp_path):
    """dendro reads a ceiling only to flood, so --ceiling without --flood is misuse, refused
    without opening the file: the twin of CI's check on the installed script."""
    missing = tmp_path / "missing.txt"
    code, out, err = run(capsys, "dendro", "--graph", str(GOLDEN / "tank.fg"), "--ceiling", str(missing))
    assert (code, out) == (2, "")
    assert err.encode() == (GOLDEN / "expected" / "tank-dendro-ceiling-no-flood.stderr").read_bytes()


# Each command on the chain graph, with inputs that read: a fault row changes one input.
FAULT_RUNS = {
    "flood": ["flood", "--algo", "core"],
    "segment": ["segment", "--derive-edges", "--markers", "markers.txt"],
    "fldist": ["fldist", "--derive-edges", "--from", "a"],
    "mst": ["mst", "--derive-edges"],
    "dendro": ["dendro", "--derive-edges", "--flood"],
    "lakes": ["lakes", "--tau", "tau.txt"],
    "validate": ["validate", "--tau", "tau.txt"],
    "contract": ["contract"],
    "localflood": ["localflood", "--node", "a"],
}
FAULT_FILES = {
    "graph.fg": CHAIN_FG,
    "markers.txt": "a 1\ne 2\n",
    "tau.txt": "".join(f"{line}\n" for line in CHAIN_TAU_LINES),
}
HANGING_TAU = "a 0\nb 4\nc 3\nd 2\ne 1\n"  # c at 3 hangs above d at 2
BARE_CHAIN = "floodgraph v1\n" + "".join(f"node {n}\n" for n in "abcde") + "edge a b\nedge d e\n"
SENTINEL = b"an earlier report\n"
RASTER_1X2 = "P2 2 1 9 1 2\n"  # a PGM ground of one row of two pixels
NO_DIR = "nodir"  # a directory that no fault run makes
FULL = "/dev/full"  # a device that takes no byte: every write to it faults as on a full disk
CEILING_FAULTS = {  # name: (--ceiling file, files over FAULT_FILES with None for none, code)
    "unknown-ceiling-node": ("ceiling.txt", {"ceiling.txt": "zz 1\n"}, 2),
    "bad-ceiling-token": ("ceiling.txt", {"ceiling.txt": "a 1\nb x\n"}, 2),
    "bad-ceiling-graph-token": ("ceiling.fg", {"ceiling.fg": "floodgraph v1\nnode a omega=x\n"}, 2),
    "ceiling-graph-other-nodes": ("ceiling.fg", {"ceiling.fg": "floodgraph v1\nnode a\n"}, 2),
    "ceiling-pgm-not-raster": ("ceiling.pgm", {"ceiling.pgm": "P2 1 1 9 5\n"}, 2),
    "ceiling-pgm-other-shape": ("ceiling.pgm",
                                {"ceiling.pgm": "P2 1 1 9 5\n", "graph.fg": RASTER_1X2}, 2),
    "ceiling-below-ground": ("ceiling.txt", {"ceiling.txt": "b 1\n"}, 1),
    "missing-ceiling-file": ("none.txt", {"none.txt": None}, 2),
}
# (id, argv less --graph and -o, files over FAULT_FILES (text, bytes or None for none), code,
# the file at fault: the one error line starts with "error: <its path>: "; None for no file)
FAULTS = [
    *[(f"{name}-missing-graph", argv, {"graph.fg": None}, 2, "graph.fg")
      for name, argv in FAULT_RUNS.items()],
    *[(f"{name}-bad-graph-token", argv, {"graph.fg": "floodgraph v1\nwall a b\n"}, 2, "graph.fg")
      for name, argv in FAULT_RUNS.items()],
    *[(f"{name}-truncated-pgm-graph", argv, {"graph.fg": "P2 2 2 9 1 2 3\n"}, 2, "graph.fg")
      for name, argv in FAULT_RUNS.items()],
    ("flood-graph-not-utf8", FAULT_RUNS["flood"], {"graph.fg": b"floodgraph v1\nnode \xff\n"}, 2,
     "graph.fg"),
    # a ceiling fault of code 2 is in the file; one of code 1 is the ceiling's, against the ground
    *[(f"{name}-{fault}", [*FAULT_RUNS[name], "--ceiling", path], files, code,
       path if code == 2 else None)
      for name in ("flood", "dendro", "contract", "localflood")
      for fault, (path, files, code) in CEILING_FAULTS.items()],
    ("dendro-ceiling-without-flood", ["dendro", "--derive-edges", "--ceiling", "none.txt"],
     {"none.txt": None}, 2, None),
    ("segment-bad-marker-token", FAULT_RUNS["segment"], {"markers.txt": "a 1\ne x\n"}, 2,
     "markers.txt"),
    ("segment-unknown-marker", FAULT_RUNS["segment"], {"markers.txt": "zz 1\n"}, 2,
     "markers.txt"),
    ("segment-duplicate-labels", FAULT_RUNS["segment"], {"markers.txt": "a 1\ne 1\n"}, 1, None),
    ("segment-no-markers", FAULT_RUNS["segment"], {"markers.txt": "# none\n"}, 1, "markers.txt"),
    ("segment-unreachable-node", FAULT_RUNS["segment"],
     {"graph.fg": "floodgraph v1\nnode a f=0\nnode e f=1\nnode z f=0\nedge a e\n"}, 1, None),
    ("fldist-unknown-from", [*FAULT_RUNS["fldist"], "--from", "zz"], {}, 2, None),
    ("localflood-unknown-node", [*FAULT_RUNS["localflood"], "--node", "zz"], {}, 2, None),
    *[(f"{name}-tau-{fault}", FAULT_RUNS[name], {"tau.txt": TAU_FAULTS[fault][0]}, 2, "tau.txt")
      for name in ("lakes", "validate") for fault in TAU_FAULTS],
    *[(f"{name}-tau-bad-token", FAULT_RUNS[name], {"tau.txt": "a 0\nb x\n"}, 2, "tau.txt")
      for name in ("lakes", "validate")],
    ("validate-tau-not-utf8", FAULT_RUNS["validate"], {"tau.txt": b"a \xff\n"}, 2, "tau.txt"),
    ("lakes-tau-no-flooding", FAULT_RUNS["lakes"], {"tau.txt": HANGING_TAU}, 1, None),
    ("mst-no-edge-weights", ["mst"], {}, 1, None),
    ("fldist-no-edge-weights", ["fldist", "--from", "a"], {}, 1, None),
    *[(f"{name}-no-ground", FAULT_RUNS[name], {"graph.fg": BARE_CHAIN}, 1, None)
      for name in ("flood", "lakes", "validate", "contract", "localflood")],
    ("segment-label-pgm-not-raster", [*FAULT_RUNS["segment"], "--label-pgm", "labels.pgm"], {}, 1,
     None),
    ("segment-label-pgm-out-of-range", [*FAULT_RUNS["segment"], "--label-pgm", "labels.pgm"],
     {"graph.fg": RASTER_1X2, "markers.txt": "0,0 65536\n"}, 1, None),
    # an output file is named as an input is, here in a directory that does not exist
    *[(f"{name}-output-in-missing-dir", [*argv, "-o", f"{NO_DIR}/out.txt"], {}, 2,
       f"{NO_DIR}/out.txt") for name, argv in FAULT_RUNS.items()],
    ("segment-label-pgm-in-missing-dir", [*FAULT_RUNS["segment"], "--label-pgm", f"{NO_DIR}/x.pgm"],
     {"graph.fg": RASTER_1X2, "markers.txt": "0,0 1\n"}, 2, f"{NO_DIR}/x.pgm"),
    # an output that opens but cannot be written, as on a full disk, is named the same way
    *[(f"{name}-output-on-full-disk", [*argv, "-o", FULL], {}, 2, FULL)
      for name, argv in FAULT_RUNS.items()],
    ("segment-label-pgm-on-full-disk", [*FAULT_RUNS["segment"], "--label-pgm", FULL],
     {"graph.fg": RASTER_1X2, "markers.txt": "0,0 1\n"}, 2, FULL),
]


def fault_run(capsys, monkeypatch, tmp_path, argv, files):
    """Run ``argv`` in ``tmp_path`` over the fault files, with -o naming a sentinel file
    unless ``argv`` names its own."""
    monkeypatch.chdir(tmp_path)
    for name, content in {**FAULT_FILES, **files}.items():
        if content is not None:  # text is written as UTF-8
            (tmp_path / name).write_bytes(content if isinstance(content, bytes) else content.encode())
    (tmp_path / "report.txt").write_bytes(SENTINEL)
    return run(capsys, argv[0], "--graph", "graph.fg", "-o", "report.txt", *argv[1:])


@pytest.mark.parametrize("argv", FAULT_RUNS.values(), ids=FAULT_RUNS)
def test_each_fault_run_succeeds_on_the_unchanged_inputs(capsys, monkeypatch, tmp_path, argv):
    assert fault_run(capsys, monkeypatch, tmp_path, argv, {}) == (0, "", "")
    assert (tmp_path / "report.txt").read_bytes() != SENTINEL


@pytest.mark.parametrize(
    "argv, files, code, culprit", [row[1:] for row in FAULTS], ids=[row[0] for row in FAULTS]
)
def test_each_fault_exits_with_its_code_and_writes_nothing(
    capsys, monkeypatch, tmp_path, argv, files, code, culprit
):
    """One example of each fault in README's exit-code list, for every command that can
    meet it: one error line, which names the file at fault first and once, and neither
    stdout nor the -o file is touched."""
    if culprit == FULL and not os.path.exists(FULL):
        pytest.skip(f"{FULL} does not exist here")
    outcome, out, err = fault_run(capsys, monkeypatch, tmp_path, argv, files)
    assert (outcome, out) == (code, "")
    assert err.startswith("error: ") and len(err.splitlines()) == 1, err
    if culprit is not None:
        assert err.startswith(f"error: {culprit}: ") and err.count(culprit) == 1, err
    if culprit is not None and culprit.startswith(f"{NO_DIR}/"):
        assert err == f"error: {culprit}: No such file or directory\n"
    if culprit == FULL:
        assert err == f"error: {FULL}: No space left on device\n"
    assert (tmp_path / "report.txt").read_bytes() == SENTINEL


@pytest.mark.parametrize("existing", [False, True], ids=["new", "existing"])
@pytest.mark.parametrize("missing", ["report", "labels"])
def test_an_output_that_cannot_be_opened_leaves_every_file_as_it_was(
    capsys, monkeypatch, tmp_path, missing, existing
):
    """segment's label raster and report are both opened before either is truncated: when
    one lies in a missing directory, the other is neither made nor changed, whichever comes
    first.  Once both can be opened, each is replaced whole, a longer earlier file too."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "graph.pgm").write_text(RASTER_1X2)
    (tmp_path / "markers.txt").write_text("0,0 1\n")
    outputs = {"report": "out.txt", "labels": "labels.pgm"}
    if existing:  # an earlier file, longer than the output, at each output's path
        for path in outputs.values():
            (tmp_path / path).write_bytes(SENTINEL * 4)
    before = {path: path.read_bytes() for path in tmp_path.iterdir()}
    argv = ["segment", "--graph", "graph.pgm", "--derive-edges", "--markers", "markers.txt"]
    culprit = f"{NO_DIR}/{outputs[missing]}"
    paths = {**outputs, missing: culprit}
    outcome = run(capsys, *argv, "--label-pgm", paths["labels"], "-o", paths["report"])
    assert outcome == (2, "", f"error: {culprit}: No such file or directory\n")
    assert {path: path.read_bytes() for path in tmp_path.iterdir()} == before

    assert run(capsys, *argv, "--label-pgm", "labels.pgm", "-o", "out.txt") == (0, "", "")
    assert (tmp_path / "out.txt").read_bytes() == b"0,0 1\n0,1 1\n"
    assert (tmp_path / "labels.pgm").read_bytes() == b"P5\n2 1\n1\n\x01\x01"


def test_an_output_that_is_no_regular_file_is_written_as_it_is(capsys, tmp_path):
    """An output that is a device is opened without truncating it, which it would refuse."""
    graph = tmp_path / "graph.pgm"
    graph.write_text(RASTER_1X2)
    (tmp_path / "markers.txt").write_text("0,0 1\n")
    argv = ["segment", "--graph", str(graph), "--derive-edges", "--markers"]
    argv += [str(tmp_path / "markers.txt"), "--label-pgm", os.devnull, "-o", os.devnull]
    assert run(capsys, *argv) == (0, "", "")


def open_calls(path: Path) -> set[tuple[str | None, str, str | None]]:
    """Where a file's code names ``open``: (the top-level function it is in, ``os.open`` or
    ``open`` as spelled, and what the latest ``except`` clause before it in that function
    catches)."""
    tokens = code_tokens(path)
    calls = set()
    function = handler = None
    for index, token in enumerate(tokens):
        if token.type != tokenize.NAME:
            continue
        if token.start[1] == 0:  # a top-level statement: a def names its function
            function = handler = None
        elif tokens[index - 1].string == "def" and tokens[index - 1].start[1] == 0:
            function = token.string
        elif token.string == "except":
            handler = tokens[index + 1].string
        elif token.string == "open":
            owner = tokens[index - 2].string if tokens[index - 1].string == "." else None
            calls.add((function, f"{owner}.open" if owner else "open", handler))
    return calls


def test_only_the_reader_and_the_writer_open_a_file():
    """A census of cli.py: ``open`` is called only by ``_reading``, which reads every input,
    and ``_write``, which writes every output, and ``os.open`` only where ``main`` ends a run
    whose reader closed stdout; so no command opens a file of its own."""
    calls = open_calls(SRC / "cli.py")
    assert {(function, name) for function, name, _ in calls} == {
        ("_reading", "open"), ("_write", "open"), ("main", "os.open")
    }
    assert {handler for function, _, handler in calls if function == "main"} == {"BrokenPipeError"}


def test_an_invalid_flooding_is_reported_to_the_output_file(capsys, monkeypatch, tmp_path):
    hanging = {"tau.txt": HANGING_TAU}
    outcome = fault_run(capsys, monkeypatch, tmp_path, FAULT_RUNS["validate"], hanging)
    assert outcome == (1, "", "")
    report = (tmp_path / "report.txt").read_text().splitlines()
    assert report[0] == "invalid" and len(report) > 1 and "hangs above" in report[1]


# -- what each command needs of the graph ----------------------------------------------

NEEDS = {  # as build_parser declares them, flood's by --algo
    "flood": {"berge": "edges", "dijkstra": "edges", "prim": "edges", "core": "ground",
              "dendro": "edges"},
    "segment": "edges",
    "fldist": "edges",
    "mst": "edges",
    "dendro": "edges",
    "lakes": "either",
    "validate": "either",
    "contract": "ground",
    "localflood": "ground",
}
NEED_RUNS = {  # id: (the subject of its message, its need, a run of FAULT_RUNS' kind)
    **{f"flood-{algo}": (f"the {algo} algorithm", need, ["flood", "--algo", algo, "--derive-edges"])
       for algo, need in NEEDS["flood"].items()},
    **{name: (name, need, FAULT_RUNS[name]) for name, need in NEEDS.items() if name != "flood"},
}
LACKING = {  # each need's message ending on a graph with neither ground nor edge weights
    "ground": "a node-weighted graph (ground values)",
    "either": "a node-weighted graph (ground values)",
    "edges": "edge weights and the input carries none",
}
NEED_FAULTS = [  # (id, argv, files over FAULT_FILES, the one error line)
    *[(f"{key}-bare-graph", argv, {"graph.fg": BARE_CHAIN}, f"{subject} needs {LACKING[need]}")
      for key, (subject, need, argv) in NEED_RUNS.items()],
    *[(f"{key}-no-derive", [arg for arg in argv if arg != "--derive-edges"], {},
       f"{subject} needs edge weights; pass --derive-edges to compute them from the ground")
      for key, (subject, need, argv) in NEED_RUNS.items() if need == "edges"],
]


def test_each_command_declares_its_need():
    """Every subcommand, and every --algo of flood, is in the table that main checks."""
    from floodgraph import cli

    parser = cli.build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert {name: sub.get_default("need") for name, sub in commands.choices.items()} == NEEDS
    (algo,) = (a for a in commands.choices["flood"]._actions if a.dest == "algo")
    assert tuple(algo.choices) == tuple(NEEDS["flood"])


@pytest.mark.parametrize(
    "argv, files, line", [row[1:] for row in NEED_FAULTS], ids=[row[0] for row in NEED_FAULTS]
)
def test_a_graph_without_the_need_exits_1_naming_the_command(
    capsys, monkeypatch, tmp_path, argv, files, line
):
    assert fault_run(capsys, monkeypatch, tmp_path, argv, files) == (1, "", f"error: {line}\n")
    assert (tmp_path / "report.txt").read_bytes() == SENTINEL


UNREAD_FILES = {  # a run of NEED_RUNS: the option naming a file it reads after the graph
    "flood-core": ["--ceiling", "none.txt"],
    "flood-dijkstra": ["--ceiling", "none.txt"],
    "dendro": ["--ceiling", "none.txt"],
    "contract": ["--ceiling", "none.txt"],
    "localflood": ["--ceiling", "none.txt"],
    "lakes": [],  # its --tau names tau.txt
    "validate": [],
    "segment": [],  # its --markers names markers.txt
}


@pytest.mark.parametrize("key", UNREAD_FILES)
def test_the_need_is_checked_before_any_other_file_is_read(capsys, monkeypatch, tmp_path, key):
    subject, need, argv = NEED_RUNS[key]
    argv, missing = [*argv, *UNREAD_FILES[key]], {"tau.txt": None, "markers.txt": None}
    assert fault_run(capsys, monkeypatch, tmp_path, argv, missing)[0] == 2  # the chain reads it
    outcome = fault_run(capsys, monkeypatch, tmp_path, argv, {**missing, "graph.fg": BARE_CHAIN})
    assert outcome == (1, "", f"error: {subject} needs {LACKING[need]}\n")


@pytest.mark.parametrize("key", NEED_RUNS)
def test_the_edge_view_is_taken_once_for_an_edges_need_and_never_otherwise(
    capsys, monkeypatch, tmp_path, key
):
    """main takes the view through cli.edge_view, the call the benchmark counts."""
    from floodgraph import cli

    _, need, argv = NEED_RUNS[key]
    views = []
    edge_view = cli.edge_view
    monkeypatch.setattr(cli, "edge_view", lambda graph: views.append(graph) or edge_view(graph))
    assert fault_run(capsys, monkeypatch, tmp_path, argv, {}) == (0, "", "")
    assert len(views) == (need == "edges")


# -- the parser ------------------------------------------------------------------------

_STORE, _TRUE, _HELP = argparse._StoreAction, argparse._StoreTrueAction, argparse._HelpAction
_ANY_INPUT = {
    ("-h", "--help"): ("help", False, argparse.SUPPRESS, None, None, _HELP),
    ("--graph",): ("graph", True, None, None, None, _STORE),
    ("--connectivity",): ("connectivity", False, 4, (4, 8), int, _STORE),
    ("-o", "--output"): ("output", False, None, None, None, _STORE),
}
_DERIVE = {("--derive-edges",): ("derive_edges", False, False, None, None, _TRUE)}
_CEILING = {("--ceiling",): ("ceiling", False, None, None, None, _STORE)}
_STATS = {("--stats",): ("stats", False, False, None, None, _TRUE)}
_TAU_FILE = {("--tau",): ("tau", True, None, None, None, _STORE)}
_OPTIONS = {
    "flood": {**_ANY_INPUT, **_DERIVE, **_CEILING, **_STATS,
              ("--algo",): ("algo", True, None, ("berge", "dijkstra", "prim", "core", "dendro"),
                            None, _STORE),
              ("--schedule",): ("schedule", False, "gauss_seidel", ("gauss_seidel", "jacobi"),
                                None, _STORE),
              ("--validate-after",): ("validate_after", False, False, None, None, _TRUE)},
    "segment": {**_ANY_INPUT, **_DERIVE, **_STATS,
                ("--markers",): ("markers", True, None, None, None, _STORE),
                ("--engine",): ("engine", False, "dijkstra", ("dijkstra", "prim"), None, _STORE),
                ("--tau",): ("tau", False, False, None, None, _TRUE),
                ("--label-pgm",): ("label_pgm", False, None, None, None, _STORE)},
    "fldist": {**_ANY_INPUT, **_DERIVE, ("--from",): ("source", True, None, None, "name", _STORE)},
    "mst": {**_ANY_INPUT, **_DERIVE},
    "dendro": {**_ANY_INPUT, **_DERIVE, **_CEILING,
               ("--flood",): ("flood", False, False, None, None, _TRUE)},
    "lakes": {**_ANY_INPUT, **_TAU_FILE},
    "validate": {**_ANY_INPUT, **_TAU_FILE},
    "contract": {**_ANY_INPUT, **_CEILING},
    "localflood": {**_ANY_INPUT, **_CEILING,
                   ("--node",): ("node", True, None, None, "name", _STORE)},
}


@pytest.mark.parametrize("command", list(_OPTIONS))
def test_parser_declares_each_option_as_before(command):
    """Each subcommand's options, with their dest, required, default, choices, type and action."""
    from floodgraph import cli

    parser = cli.build_parser()
    (commands,) = (a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert list(commands.choices) == list(_OPTIONS)
    sub = commands.choices[command]
    types = {None: None, int: int, "name": cli._utf8_name}
    expected = {
        strings: (dest, required, default, choices, types[kind], action)
        for strings, (dest, required, default, choices, kind, action) in _OPTIONS[command].items()
    }
    declared = {
        tuple(a.option_strings): (
            a.dest, a.required, a.default,
            None if a.choices is None else tuple(a.choices), a.type, type(a),
        )
        for a in sub._actions
    }
    assert declared == expected
    assert len(sub._actions) == len(expected)
    assert sub.get_default("run") is getattr(cli, f"cmd_{command}")
