"""Per-layer tracing from outside the program.

Spans are recorded around calls into each floodgraph module's public
functions by swapping wrappers into every module namespace that holds the
function (``floodgraph.cli.grid_graph`` as well as
``floodgraph.graphs.grid_graph``), so calls between modules are seen too.
``weights.join``/``meet`` and ``Funnel`` methods are inner-loop primitives
and are not wrapped: their cost lands in the caller's self time.
"""

from __future__ import annotations

import functools
import gc
import sys
import time
import tracemalloc
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable, Iterator

WRAPPED = (
    "cli.main",
    "cli.ingest_graph",
    "cli.resolve_ceiling",
    "cli.edge_view",
    "formats.read_pgm",
    "formats.write_pgm",
    "formats.parse_graph",
    "formats.parse_node_values",
    "formats.serialize_graph",
    "graphs.grid_graph",
    "graphs.build_graph",
    "graphs.connected_components",
    "hydro.derive_edge_graph",
    "hydro.lakes",
    "hydro.flat_zones",
    "hydro.is_edge_flooding",
    "solvers.berge_flood",
    "solvers.dijkstra_flood",
    "solvers.prim_flood",
    "solvers.core_expanding_flood",
    "solvers.marker_segmentation",
    "solvers.oracle_flood",
    "ultrametric.flooding_distance_all",
    "ultrametric.mst",
    "ultrametric.distance_matrix",
    "dendrogram.build_lake_dendrogram",
    "dendrogram.dendrogram_flood",
    "reductions.contract_flat_zones",
    "reductions.contract_close_flood",
    "reductions.local_flood",
)

STATS_SOLVERS = (
    "solvers.berge_flood",
    "solvers.dijkstra_flood",
    "solvers.prim_flood",
    "solvers.core_expanding_flood",
    "solvers.marker_segmentation",
)
USEFUL_RATIO_SOLVERS = ("solvers.dijkstra_flood", "solvers.marker_segmentation")

RETAINED = ("graphs.grid_graph", "hydro.derive_edge_graph")
PEAK = ("dendrogram.build_lake_dendrogram",)


def unit_of(name: str) -> str:
    """The unit of a per-layer metric, read from its name."""
    if name.endswith(".self_s"):
        return "s"
    if name.endswith("bytes_per_node"):
        return "B/node"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def _floodgraph_modules() -> list:
    return [
        module
        for name, module in sorted(sys.modules.items())
        if name == "floodgraph" or name.startswith("floodgraph.")
    ]


@contextmanager
def patched(make_wrapper: Callable[[str, Callable], Callable], names=WRAPPED) -> Iterator[None]:
    """Replace each named function by ``make_wrapper(name, original)``.

    Every floodgraph module attribute bound to an original is swapped, and
    all of them are put back on exit, even when the body raises.
    """
    originals = {}
    for qualname in names:
        module, func = qualname.split(".")
        original = getattr(sys.modules[f"floodgraph.{module}"], func)
        originals[id(original)] = (original, make_wrapper(qualname, original))
    swapped = []
    try:
        for module in _floodgraph_modules():
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])
                    swapped.append((module, attr, value))
        yield
    finally:
        for module, attr, value in reversed(swapped):
            setattr(module, attr, value)


class Tracer:
    """Records (name, start, end, parent, op id) spans while an op is active."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counters: dict[str, int] = defaultdict(int)
        self.op_id: int | None = None
        self._open: list[int] = []

    def wrap(self, name: str, func: Callable) -> Callable:
        count = _COUNTERS.get(name)

        @functools.wraps(func)
        def span(*args, **kwargs):
            op_id = self.op_id
            if op_id is None:
                return func(*args, **kwargs)
            index = len(self.spans)
            parent = self._open[-1] if self._open else -1
            self.spans.append((name, 0.0, 0.0, parent, op_id))
            self._open.append(index)
            start = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._open.pop()
                self.spans[index] = (name, start, end, parent, op_id)
            if count is not None:
                count(self.counters, name, args, result)
            return result

        return span


def self_times(spans) -> dict[str, tuple[int, float]]:
    """Per span name: (calls, total duration minus time covered by children)."""
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    totals: dict[str, list] = {}
    for index, (name, start, end, _, _) in enumerate(spans):
        entry = totals.setdefault(name, [0, 0.0])
        entry[0] += 1
        entry[1] += (end - start) - covered[index]
    return {name: (calls, seconds) for name, (calls, seconds) in totals.items()}


def _solver_stats(counters, name, args, result) -> None:
    stats = result.stats
    counters[f"{name}.extractions"] += stats.extractions
    counters[f"{name}.relaxations"] += stats.relaxations
    if name == "solvers.berge_flood":
        counters[f"{name}.sweeps"] += stats.sweeps
    if name in USEFUL_RATIO_SOLVERS:
        counters[f"{name}.useful"] += len(stats.extraction_levels)


def _clusters(counters, name, args, result) -> None:
    counters[f"{name}.clusters"] += len(result.clusters)


def _kept(counters, name, args, result) -> None:
    counters[f"{name}.kept"] += len(result[0].nodes)
    counters[f"{name}.input"] += len(args[0].nodes)


_COUNTERS = {
    **{name: _solver_stats for name in STATS_SOLVERS},
    "dendrogram.build_lake_dendrogram": _clusters,
    "reductions.contract_flat_zones": _kept,
}


def _ratio(top: int, base: int) -> float:
    return top / base if base else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """calls/self_s for every wrapped name (0 when not called) plus counters."""
    timed = self_times(tracer.spans)
    counters = tracer.counters
    metrics: dict[str, float] = {}
    for name in WRAPPED:
        calls, seconds = timed.get(name, (0, 0.0))
        metrics[f"{name}.calls"] = calls
        metrics[f"{name}.self_s"] = seconds
    for name in STATS_SOLVERS:
        metrics[f"{name}.extractions"] = counters[f"{name}.extractions"]
        metrics[f"{name}.relaxations"] = counters[f"{name}.relaxations"]
    metrics["solvers.berge_flood.sweeps"] = counters["solvers.berge_flood.sweeps"]
    for name in USEFUL_RATIO_SOLVERS:
        metrics[f"{name}.useful_ratio"] = _ratio(
            counters[f"{name}.useful"], counters[f"{name}.extractions"]
        )
    name = "dendrogram.build_lake_dendrogram"
    metrics[f"{name}.clusters"] = counters[f"{name}.clusters"]
    name = "reductions.contract_flat_zones"
    metrics[f"{name}.kept_ratio"] = _ratio(counters[f"{name}.kept"], counters[f"{name}.input"])
    return metrics


class MemoryProbe:
    """tracemalloc bytes per node: retained by a returned graph, or peak during a call.

    Run it only with tracemalloc started and no Tracer installed, since
    tracing its own allocations would inflate both.
    """

    def __init__(self) -> None:
        self.bytes: dict[str, int] = defaultdict(int)
        self.nodes: dict[str, int] = defaultdict(int)
        self.op_id: int | None = None

    def wrap(self, name: str, func: Callable) -> Callable:
        peak = name in PEAK

        @functools.wraps(func)
        def probe(*args, **kwargs):
            if self.op_id is None:
                return func(*args, **kwargs)
            gc.collect()  # so earlier garbage freed during the call cannot offset it
            if peak:
                tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            result = func(*args, **kwargs)
            current, highest = tracemalloc.get_traced_memory()
            self.bytes[name] += (highest if peak else current) - before
            self.nodes[name] += len(args[0].nodes if peak else result.nodes)
            return result

        return probe

    def metrics(self) -> dict[str, float]:
        return {
            f"{name}.{'peak_' if name in PEAK else ''}bytes_per_node":
                _ratio(self.bytes[name], self.nodes[name])
            for name in RETAINED + PEAK
        }
