"""``scripts/random_agreement_sweep.py`` dumps a disagreeing instance as a graph file."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from floodgraph import TOP, parse_graph

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "random_agreement_sweep.py"


def load_sweep():
    spec = importlib.util.spec_from_file_location("random_agreement_sweep", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _plant(sweep, site: str, seen: list) -> None:
    """Make the sweep disagree at ``site``, recording each instance its routes flood."""
    flood_all, node_flood_all, segment = (
        sweep.flood_all, sweep.node_flood_all, sweep.marker_segmentation)

    def recorded(routes):
        return lambda graph, omega: seen.append((graph, omega)) or routes(graph, omega)

    sweep.flood_all, sweep.node_flood_all = recorded(flood_all), recorded(node_flood_all)
    if site == "edge route":
        sweep.flood_all = recorded(lambda graph, omega: {**flood_all(graph, omega), "prim": {}})
    elif site == "distance":
        sweep.distance_matrix = lambda graph: dict.fromkeys(graph.nodes, {})
    elif site == "segmentation":
        sweep.marker_segmentation = lambda graph, markers, engine: (
            segment(graph, markers, engine=engine) if engine == "dijkstra"
            else SimpleNamespace(labels={}, tau={}))
    else:
        sweep.node_flood_all = recorded(
            lambda graph, omega: {**node_flood_all(graph, omega), "core": {}})


@pytest.mark.parametrize("site", ["edge route", "distance", "segmentation", "node route"])
def test_a_disagreement_dumps_a_graph_that_reads_back(site, monkeypatch, capsys):
    sweep, seen = load_sweep(), []
    _plant(sweep, site, seen)
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), "--count", "1"])
    assert sweep.main() == 1
    err = capsys.readouterr().err
    text = err[err.index("floodgraph v1\n") : err.index("\n\n") + 1]
    graph, omega = seen[-1]
    back, back_omega = parse_graph(text)
    assert (back.nodes, back.edges) == (graph.nodes, graph.edges)
    assert (back.ground_values, back.edge_weights) == (graph.ground_values, graph.edge_weights)
    finite = any(level < TOP for level in omega.values())
    assert (dict(back_omega.items()) if back_omega else None) == (omega if finite else None)
