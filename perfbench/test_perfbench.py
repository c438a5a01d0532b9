"""Tests of the benchmark itself: python3 -m pytest -q perfbench"""

from __future__ import annotations

import dataclasses
import functools
import json
import random
import sys

import pytest

import inputs
import reference
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

SMALL = {
    "raster-cli": functools.partial(workloads.raster_cli, size=12, markers=4, rasters=2),
    "hierarchy": functools.partial(workloads.hierarchy, size=8, path_nodes=30),
    "small-graphs": functools.partial(workloads.small_graphs, plateau=3, tanks=12),
}


@pytest.fixture
def small_workloads(monkeypatch):
    """Shrink every workload so a whole run takes well under a second."""
    for name, build in SMALL.items():
        monkeypatch.setitem(workloads.WORKLOADS, name, workloads.Workload(build, 0.01))


GENERATORS = {
    **{name: functools.partial(make, size=10) for name, make in inputs.RASTERS.items()},
    "markers": functools.partial(inputs.distinct_markers, size=10, count=5),
    "path": functools.partial(inputs.increasing_path, nodes=40),
    "plateau": inputs.plateau_graph_text,
    "tanks": inputs.tanks_graph_text,
}


@pytest.mark.parametrize("name", sorted(GENERATORS))
def test_generators_repeat_for_a_seed_and_differ_across_seeds(name):
    make = GENERATORS[name]
    assert make(random.Random(7)) == make(random.Random(7))
    assert len({repr(make(random.Random(seed))) for seed in range(6)}) > 1


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_workload_inputs_repeat_for_a_seed(workload, tmp_path):
    program = run.import_program()
    written = []
    for seed, folder in ((5, "a"), (5, "b"), (6, "c")):
        workdir = tmp_path / folder
        workdir.mkdir()
        ops = SMALL[workload](program, random.Random(seed), workdir)
        files = {path.name: path.read_bytes() for path in sorted(workdir.iterdir())}
        written.append((files, [op.nodes for op in ops], [op.name for op in ops]))
    assert written[0] == written[1]
    if workload != "small-graphs":  # its inputs are objects, not files
        assert written[0][0] != written[2][0]


def _alter_one_value(name, func):
    """Wrap a flooding function so one node's value in its result is wrong."""

    @functools.wraps(func)
    def altered(*args, **kwargs):
        result = func(*args, **kwargs)
        tau = dict(getattr(result, "tau", result))
        first = next(iter(tau))
        tau[first] = 0 if tau[first] else 1
        return dataclasses.replace(result, tau=tau) if hasattr(result, "tau") else tau

    return altered


KINDS = sorted(inputs.RASTERS)


@pytest.mark.parametrize(
    "workload, planted, failing",
    [
        ("raster-cli", "solvers.dijkstra_flood", ["r0/flood-dijkstra", "r1/flood-dijkstra"]),
        ("hierarchy", "dendrogram.dendrogram_flood",
         [f"{kind}/dendro" for kind in KINDS] + ["path/dendrogram_flood"]),
        ("hierarchy", "reductions.contract_close_flood",
         [f"{kind}/contract_close_flood" for kind in KINDS]),
        ("small-graphs", "solvers.berge_flood", None),
    ],
)
def test_a_planted_wrong_answer_is_a_failed_op(workload, planted, failing, tmp_path):
    program = run.import_program()
    ops = SMALL[workload](program, random.Random(3), tmp_path)
    assert run.measure(ops, 1, {}).failures == []
    with spans.patched(_alter_one_value, (planted,)):
        done = run.measure(ops, 1, {})
    if failing is None:  # every op of the workload calls the planted solver
        failing = [op.name for op in ops]
    assert sorted(name for name, _ in done.failures) == sorted(failing)


def test_an_output_that_changes_between_rounds_is_a_failed_op(tmp_path):
    program = run.import_program()
    ops = SMALL["small-graphs"](program, random.Random(3), tmp_path)
    digests: dict[int, str] = {}
    run.measure(ops, 1, digests)
    digests[0] = "another digest"
    done = run.measure(ops, 1, digests)
    assert [name for name, _ in done.failures] == [ops[0].name]


def test_self_time_subtracts_only_direct_children():
    tree = [
        ("a", 0.0, 10.0, -1, 0),
        ("b", 1.0, 4.0, 0, 0),
        ("c", 2.0, 3.0, 1, 0),
        ("d", 5.0, 9.0, 0, 0),
        ("c", 6.0, 6.5, 3, 0),
        ("a", 20.0, 22.0, -1, 1),
    ]
    assert spans.self_times(tree) == {
        "a": (2, 3.0 + 2.0),
        "b": (1, 2.0),
        "c": (2, 1.5),
        "d": (1, 3.5),
    }


def test_tail_percentile_leaves_ten_samples_beyond():
    assert run.tail_percentile([float(v) for v in range(1, 101)]) == (90, 90.0)
    samples = [float(v) for v in range(64)]
    percentile, value = run.tail_percentile(samples)
    assert percentile == 84
    assert sum(1 for v in samples if v > value) == 10
    assert run.tail_percentile([float(v) for v in range(5000)])[0] == 99


def test_traced_run_restores_every_wrapped_attribute(small_workloads, monkeypatch, tmp_path):
    snapshots = []
    real_import = run.import_program

    def recording_import():
        program = real_import()
        snapshots.append({module.__name__: dict(vars(module)) for module in spans._floodgraph_modules()})
        return program

    monkeypatch.setattr(run, "import_program", recording_import)
    monkeypatch.setattr(run, "OUT", tmp_path)
    metrics, done = run.traced("hierarchy", 1, 1.0, tmp_path)
    assert done.failures == []
    assert metrics["cli.main.calls"]["value"] > 0
    assert metrics["graphs.connected_components.calls"]["value"] > 0
    (before,) = snapshots
    for module in spans._floodgraph_modules():
        now = vars(module)
        for attr, value in before[module.__name__].items():
            assert now[attr] is value, f"{module.__name__}.{attr} was not restored"


def test_traced_counters_repeat_and_match_the_declared_layer_metrics(small_workloads, monkeypatch, tmp_path):
    monkeypatch.setattr(run, "OUT", tmp_path)
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK["per_layer"]}
    for workload in sorted(SMALL):
        first, _ = run.traced(workload, 4, 1.0, tmp_path)
        second, _ = run.traced(workload, 4, 1.0, tmp_path)
        assert {name: metric["unit"] for name, metric in first.items()} == declared
        counts = [name for name, unit in declared.items() if unit == "count"]
        counts += [name for name in declared if name.endswith(("useful_ratio", "kept_ratio"))]
        assert {name: first[name] for name in counts} == {name: second[name] for name in counts}
        # Allocations served from the interpreter's free lists escape
        # tracemalloc, and their fill depends on history: near, not exact.
        for name in (name for name, unit in declared.items() if unit == "B/node"):
            assert second[name]["value"] == pytest.approx(first[name]["value"], rel=0.01)


def test_end_to_end_reports_the_declared_metrics(small_workloads, tmp_path):
    metrics, done = run.end_to_end("raster-cli", 2, 1.0, tmp_path)
    assert done.failures == []
    declared = {metric["name"]: metric["unit"] for metric in BENCHMARK["end_to_end"]}
    assert {name: metric["unit"] for name, metric in metrics.items()} == declared
    assert all(metric["value"] > 0 for metric in metrics.values())


def test_scaled_time_uses_the_mean_of_the_samples_around_it():
    assert reference.scaled(0.3, reference.REF_S, reference.REF_S) == pytest.approx(0.3)
    assert reference.scaled(0.3, 2 * reference.REF_S, 4 * reference.REF_S) == pytest.approx(0.1)
    assert reference.kernel() == reference.kernel()


def test_a_gauged_pass_scales_every_op_by_its_neighbouring_samples(tmp_path):
    program = run.import_program()
    ops = SMALL["hierarchy"](program, random.Random(3), tmp_path)
    done = run.measure(ops, 2, {}, gauge=True)
    assert done.failures == []
    assert len(done.scaled) == len(done.times) and len(done.samples) >= 2
    ratios = {round(elapsed / scaled, 9) for elapsed, scaled in zip(done.times, done.scaled)}
    means = {round((before + after) / 2 / reference.REF_S, 9)
             for before, after in zip(done.samples, done.samples[1:])}
    assert ratios <= means
