"""Every entry point that takes a ceiling applies one rule, with one set of errors.

A ceiling must be defined on exactly the graph's nodes and must not lie
below the ground.  Each fault below also carries the faults that are
reported later, so the table pins their order too: first a missing node
(the first in node order), then an unknown node (the first in mapping
order), then a ceiling below the ground (the first in node order).
"""

from __future__ import annotations

import pytest

from floodgraph import (
    TOP,
    ConstructionError,
    PreconditionError,
    augment_with_dummy,
    berge_flood,
    build_graph,
    contract_close_flood,
    contract_flat_zones,
    core_expanding_flood,
    derive_edge_graph,
    dijkstra_flood,
    local_flood,
    oracle_flood,
    prim_flood,
)
from floodgraph.cli import main

GROUND = {"a": 1, "b": 3, "c": 0, "d": 2}
EDGES = [("a", "b"), ("b", "c"), ("c", "d")]

FAULTS = {
    # b and c are missing; zz is unknown; a lies below the ground
    "missing": {"a": 0, "zz": 1, "d": 2},
    # zz comes before yy in the mapping; a lies below the ground
    "unknown": {"a": 0, "b": 5, "zz": 1, "c": TOP, "yy": 2, "d": 2},
    # d comes before b in the mapping, b before d in the graph
    "below": {"d": 0, "c": TOP, "b": 1, "a": 4},
}

BELOW = "ceiling below ground at node 'b': omega=1 is below the ground at node 'b' (f=3)"


def finite(omega):
    """prim takes the finite ceilings as sources, by name."""
    return {node: level for node, level in omega.items() if level < TOP}


ENTRIES = {
    "augment_with_dummy": ("omega", augment_with_dummy),
    "oracle_flood": ("omega", oracle_flood),
    "berge_flood": ("omega", berge_flood),
    "dijkstra_flood": ("omega", dijkstra_flood),
    "core_expanding_flood": ("omega", core_expanding_flood),
    "prim_flood": ("omega", lambda view, omega: prim_flood(view, finite(omega))),
    "contract_flat_zones": ("ceiling", contract_flat_zones),
    "local_flood": ("ceiling", lambda view, omega: local_flood(view, omega, "a")),
    "contract_close_flood": ("ceiling", contract_close_flood),
}


def expected_error(entry, fault):
    what = ENTRIES[entry][0]
    if fault == "missing" and entry == "prim_flood":
        return "omega defined on unknown node 'zz'"  # sources may leave nodes out
    return {
        "missing": f"{what} is missing node 'b'",
        "unknown": f"{what} defined on unknown node 'zz'",
        "below": BELOW,
    }[fault]


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("entry", ENTRIES)
def test_every_ceiling_entry_point_rejects_a_bad_ceiling(entry, fault):
    view = derive_edge_graph(build_graph(list(GROUND), EDGES, ground=GROUND))
    with pytest.raises(PreconditionError) as err:
        ENTRIES[entry][1](view, dict(FAULTS[fault]))
    assert type(err.value) is PreconditionError
    assert str(err.value) == expected_error(entry, fault)


EDGE_ENTRIES = ["augment_with_dummy", "oracle_flood", "berge_flood", "dijkstra_flood", "prim_flood"]


@pytest.mark.parametrize("fault", [None, *FAULTS])
@pytest.mark.parametrize("entry", EDGE_ENTRIES)
def test_every_edge_route_asks_for_edge_weights_before_it_reads_the_ceiling(entry, fault):
    graph = build_graph(list(GROUND), EDGES, ground=GROUND)  # no edge weights
    omega = dict(FAULTS[fault]) if fault else dict.fromkeys(GROUND, TOP)
    with pytest.raises(PreconditionError) as err:
        ENTRIES[entry][1](graph, omega)
    assert str(err.value).startswith(f"{entry} needs an edge-weighted graph;")


@pytest.mark.parametrize("fault", FAULTS)
def test_local_flood_reports_an_unknown_node_before_its_ceiling(fault):
    graph = build_graph(list(GROUND), EDGES, ground=GROUND)
    with pytest.raises(ConstructionError, match="^unknown node: 'zz'$"):
        local_flood(graph, dict(FAULTS[fault]), "zz")


CLI_ROUTES = {
    "flood --algo dendro": ["flood", "--algo", "dendro", "--derive-edges"],
    "dendro --flood": ["dendro", "--flood", "--derive-edges"],
}


def cli_files(tmp_path, fault):
    """The graph file of GROUND and EDGES, and a ceiling file with the fault."""
    graph = tmp_path / "g.fg"
    graph.write_text(
        "floodgraph v1\n"
        + "".join(f"node {node} f={level}\n" for node, level in GROUND.items())
        + "".join(f"edge {u} {v}\n" for u, v in EDGES)
    )
    ceiling = tmp_path / "ceiling.txt"
    ceiling.write_text("".join(f"{node} {level}\n" for node, level in FAULTS[fault].items()))
    return str(graph), str(ceiling)


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("route", CLI_ROUTES)
def test_cli_ceiling_routes_reject_a_bad_ceiling(capsys, tmp_path, route, fault):
    graph, ceiling = cli_files(tmp_path, fault)
    code = main([*CLI_ROUTES[route], "--graph", graph, "--ceiling", ceiling])
    out, err = capsys.readouterr()
    if fault == "below":
        status, message = 1, BELOW
    else:  # the CLI fills a missing node with inf, and rejects an unknown one on reading
        status, message = 2, f"{ceiling}: ceiling defined on unknown node 'zz'"
    assert (code, out, err) == (status, "", f"error: {message}\n")


def test_cli_localflood_reports_an_unknown_node_before_a_ceiling_below_the_ground(
    capsys, tmp_path
):
    graph, ceiling = cli_files(tmp_path, "below")
    code = main(["localflood", "--graph", graph, "--ceiling", ceiling, "--node", "zz"])
    assert (code, *capsys.readouterr()) == (2, "", "error: unknown node: 'zz'\n")
