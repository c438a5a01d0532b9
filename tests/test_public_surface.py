"""The public surface: each module's ``__all__``, and the package's union of them."""

from __future__ import annotations

import importlib
import inspect

import floodgraph

SURFACE = {
    "errors": ["ConstructionError", "FloodgraphError", "GraphFormatError", "PreconditionError"],
    "weights": [
        "BOTTOM", "TOP", "Weight", "format_weight", "is_finite", "join", "meet", "parse_weight",
        "weight_succ",
    ],
    "graphs": [
        "Edge", "Graph", "NodeFunction", "build_graph", "check_total", "cocycle",
        "connected_components", "grid_graph", "grid_node", "partial_graph", "subgraph_spanning",
    ],
    "formats": [
        "HEADER", "parse_graph", "parse_node_values", "read_pgm", "serialize_graph",
        "serialize_node_values", "write_pgm",
    ],
    "hydro": [
        "Lake", "LakeKind", "LakePartition", "ValidationReport", "derive_edge_graph", "flat_zones",
        "flooding_inf", "flooding_sup", "is_edge_flooding", "is_node_flooding", "lakes",
        "regional_minima",
    ],
    "ultrametric": [
        "DistanceMatrix", "Funnel", "ball", "diameter", "distance_matrix", "flooding_distance",
        "flooding_distance_all", "lowest_cocycle_edge", "mst",
    ],
    "solvers": [
        "SolverResult", "SolverStats", "augment_with_dummy", "berge_flood", "ceiling_minima",
        "core_expanding_flood", "dijkstra_flood", "marker_segmentation", "oracle_flood",
        "prim_flood",
    ],
    "dendrogram": [
        "Cluster", "Dendrogram", "GrowthKind", "GrowthStage", "build_dendrogram",
        "build_lake_dendrogram", "dendrogram_flood", "is_dendrogram", "lake_growth_sequence",
        "query",
    ],
    "reductions": [
        "ContractionMap", "contract_close_flood", "contract_flat_zones", "edge_dilation",
        "edge_opening", "expand", "local_flood", "mst_with_contraction", "node_closing",
        "node_erosion", "up_hill", "waterfall_flooding",
    ],
}


def test_each_module_lists_the_names_it_defines_and_the_package_exports():
    declared = []
    for name, expected in SURFACE.items():
        module = importlib.import_module(f"floodgraph.{name}")
        assert sorted(module.__all__) == sorted(expected), name
        declared += module.__all__
        for public in module.__all__:
            value = getattr(module, public)
            assert getattr(floodgraph, public) is value
            if inspect.isclass(value) or inspect.isfunction(value):
                assert value.__module__ == module.__name__, public
    assert len(declared) == len(set(declared)) == 84
    assert sorted(floodgraph.__all__) == sorted(declared)

