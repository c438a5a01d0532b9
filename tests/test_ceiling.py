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


CLI_ROUTES = {
    "flood --algo dendro": ["flood", "--algo", "dendro", "--derive-edges"],
    "dendro --flood": ["dendro", "--flood", "--derive-edges"],
}


@pytest.mark.parametrize("fault", FAULTS)
@pytest.mark.parametrize("route", CLI_ROUTES)
def test_cli_ceiling_routes_reject_a_bad_ceiling(capsys, tmp_path, route, fault):
    graph = tmp_path / "g.fg"
    graph.write_text(
        "floodgraph v1\n"
        + "".join(f"node {node} f={level}\n" for node, level in GROUND.items())
        + "".join(f"edge {u} {v}\n" for u, v in EDGES)
    )
    ceiling = tmp_path / "ceiling.txt"
    ceiling.write_text("".join(f"{node} {level}\n" for node, level in FAULTS[fault].items()))
    code = main([*CLI_ROUTES[route], "--graph", str(graph), "--ceiling", str(ceiling)])
    out, err = capsys.readouterr()
    if fault == "below":
        status, message = 1, BELOW
    else:  # the CLI fills a missing node with inf, and rejects an unknown one on reading
        status, message = 2, f"{ceiling}: ceiling names unknown node 'zz'"
    assert (code, out, err) == (status, "", f"error: {message}\n")
