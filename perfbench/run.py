#!/usr/bin/env python3
"""Layered benchmark of floodgraph: seeded workloads, end-to-end and per-layer metrics.

usage: python3 perfbench/run.py --workload {raster-cli,hierarchy,small-graphs}
                                --seed N --seconds S --trace {0,1}

Run from the root of a checkout; floodgraph is imported from its ``src/``.
Each workload is a closed loop with one client: whole rounds of a fixed op
list, each op timed on its own and its output checked outside the timed
region.  ``--trace 0`` reports the end-to-end metrics, with every time
scaled to a fixed machine speed by the reference kernel in
``reference.py``, sampled between ops; ``--trace 1``
re-runs the rounds untraced and traced, then once under tracemalloc, and
reports per-layer calls, self times, counters and bytes per node.  The
last stdout line is one JSON object; the lines before it say what was
measured.  The exit code is 1 when any op failed and 2 when there is no
floodgraph source to measure.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from contextlib import redirect_stderr
from dataclasses import dataclass, field
from pathlib import Path

import reference
import spans
from workloads import WORKLOADS, Mismatch, Op, Program, SetupError

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUPS = 5
SEGMENT_S = 0.1  # op time between two reference samples


def import_program() -> Program:
    """Import floodgraph afresh from the checkout's src/, dropping any earlier copy."""
    for name in [name for name in sys.modules if name == "floodgraph" or name.startswith("floodgraph.")]:
        del sys.modules[name]
    fg = importlib.import_module("floodgraph")
    if Path(fg.__file__).resolve().parent != (SRC / "floodgraph").resolve():
        raise SetupError(f"imported floodgraph from {fg.__file__}, not from {SRC}")
    return Program(fg, importlib.import_module("floodgraph.cli"))


def set_up(workload: str, seed: int, workdir: Path) -> tuple[float, Program, list[Op]]:
    """Import, generate and write the inputs, prepare them, and run one warm-up op."""
    start = time.perf_counter()
    program = import_program()
    ops = WORKLOADS[workload].build(program, random.Random(seed), workdir)
    with redirect_stderr(io.StringIO()):
        ops[0].check(ops[0].run())
    return time.perf_counter() - start, program, ops


@dataclass
class Pass:
    times: list[float] = field(default_factory=list)
    scaled: list[float] = field(default_factory=list)  # times at the reference speed, when gauged
    samples: list[float] = field(default_factory=list)  # reference samples taken
    nodes: int = 0
    failures: list[tuple[str, str]] = field(default_factory=list)  # (op name, problem)


def _verify(op: Op, index: int, result, digests: dict[int, str]) -> str | None:
    if isinstance(result, Exception):
        return f"raised {type(result).__name__}: {result}"
    try:
        data = op.check(result)
    except Mismatch as exc:
        return str(exc)
    except Exception as exc:  # malformed output breaks the parsing in a check
        return f"check raised {type(exc).__name__}: {exc}"
    digest = hashlib.sha256(data).hexdigest()
    if digests.setdefault(index, digest) != digest:
        return "output differs from the first round's"
    return None


def _gauge(done: Pass, segment: list[float]) -> None:
    """Scale the op times of ``segment`` by the reference samples around it."""
    after = reference.sample()
    done.scaled += [reference.scaled(elapsed, done.samples[-1], after) for elapsed in segment]
    done.samples.append(after)
    segment.clear()


def measure(ops: list[Op], rounds: int, digests: dict[int, str], probe=None,
            done: Pass | None = None, gauge: bool = False) -> Pass:
    """Run whole rounds; time each op alone, then verify it untimed.

    Results are appended to ``done`` when given; an op's id is its position
    in ``done.times``.  With ``gauge``, a reference sample is taken after
    every ``SEGMENT_S`` of op time, and ``done.scaled`` gets each op's time
    at the reference speed.
    """
    done = done if done is not None else Pass()
    captured = io.StringIO()
    segment: list[float] = []  # op times since the last reference sample
    if gauge:
        done.samples.append(reference.sample())
    for round_index in range(rounds):
        for index, op in enumerate(ops):
            if probe is not None:
                probe.op_id = len(done.times)
            with redirect_stderr(captured):
                start = time.perf_counter()
                try:
                    result = op.run()
                except Exception as exc:  # an op that raises is a failed op, not a crash
                    result = exc
                elapsed = time.perf_counter() - start
            if probe is not None:
                probe.op_id = None
            done.times.append(elapsed)
            done.nodes += op.nodes
            if gauge:
                segment.append(elapsed)
                if sum(segment) >= SEGMENT_S:
                    _gauge(done, segment)
            problem = _verify(op, index, result, digests)
            if problem is not None:
                stderr_tail = captured.getvalue().strip()[-300:]
                done.failures.append((op.name, f"round {round_index}: {problem} {stderr_tail}".rstrip()))
            captured.seek(0)
            captured.truncate()
    if segment:
        _gauge(done, segment)
    return done


def tail_percentile(samples: list[float]) -> tuple[int, float]:
    """The highest whole percentile (nearest rank) with at least ten samples above it."""
    ordered = sorted(samples)
    count = len(ordered)
    if count <= 10:
        return 100, ordered[-1]
    percentile = min(99, 100 * (count - 10) // count)
    rank = -(-percentile * count // 100)
    return percentile, ordered[rank - 1]


def rounds_for(workload: str, seconds: float) -> int:
    return max(2, round(seconds / WORKLOADS[workload].round_s))


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "floodgraph").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def _git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "none (not a git checkout)"
    done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, timeout=30)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _process_age() -> float:
    """Seconds since this process started, from /proc at clock-tick resolution."""
    start_ticks = int(Path("/proc/self/stat").read_text().rsplit(")", 1)[1].split()[19])
    uptime = float(Path("/proc/uptime").read_text().split()[0])
    return uptime - start_ticks / os.sysconf("SC_CLK_TCK")


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, Pass]:
    setups, raw_setups = [], []
    for _ in range(SETUPS):
        program = ops = None
        gc.collect()  # each set-up starts without the previous one's garbage
        before = reference.sample()
        elapsed, program, ops = set_up(workload, seed, workdir)
        setups.append(reference.scaled(elapsed, before, reference.sample()))
        raw_setups.append(elapsed)
    _describe(workload, program, ops)
    rounds = rounds_for(workload, seconds)
    first_op_at = _process_age()
    done = measure(ops, rounds, {}, gauge=True)
    p50 = statistics.median(done.scaled)
    percentile, tail = tail_percentile(done.scaled)
    _, raw_tail = tail_percentile(done.times)
    count = len(done.times)
    metrics = {
        "setup_s": _metric(statistics.median(setups), "s"),
        "op_p50_ms": _metric(p50 * 1000, "ms"),
        "op_tail_ms": _metric(tail * 1000, "ms"),
        "nodes_per_s": _metric(done.nodes / sum(done.scaled), "nodes/s"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    print(f"# times are at the reference speed (a reference sample takes {reference.REF_S * 1000:g} ms); "
          f"{len(done.samples)} samples here, median {statistics.median(done.samples) * 1000:.3f} ms, "
          f"range {min(done.samples) * 1000:.3f}-{max(done.samples) * 1000:.3f} ms")
    print(f"# setup_s      {metrics['setup_s']['value']:.4f} s  (median of {SETUPS} set-ups: "
          + " ".join(f"{s:.3f}" for s in setups) + f"; raw median {statistics.median(raw_setups):.4f} s;"
          f" first timed op {first_op_at:.2f} s after process start)")
    print(f"# op_p50_ms    {p50 * 1000:.3f} ms  (p50 of {count} ops, {rounds} rounds; "
          f"raw {statistics.median(done.times) * 1000:.3f} ms)")
    print(f"# op_tail_ms   {tail * 1000:.3f} ms  (p{percentile} of {count} ops, 10+ beyond; "
          f"raw {raw_tail * 1000:.3f} ms)")
    print(f"# nodes_per_s  {metrics['nodes_per_s']['value']:.1f} nodes/s  "
          f"({done.nodes} nodes in {sum(done.scaled):.3f} s of ops at the reference speed; "
          f"raw {done.nodes / sum(done.times):.1f} nodes/s)")
    print(f"# peak_rss_mb  {metrics['peak_rss_mb']['value']:.1f} MB  (ru_maxrss of this process)")
    return metrics, done


def traced(workload: str, seed: int, seconds: float, workdir: Path) -> tuple[dict, Pass]:
    _, program, ops = set_up(workload, seed, workdir)
    _describe(workload, program, ops)
    rounds = rounds_for(workload, seconds / 2)
    digests: dict[int, str] = {}
    plain, with_spans = Pass(), Pass()
    tracer = spans.Tracer()
    # Untraced and traced rounds alternate, so both see the same machine.
    for _ in range(rounds):
        measure(ops, 1, digests, done=plain)
        with spans.patched(tracer.wrap):
            measure(ops, 1, digests, tracer, done=with_spans)
    probe = spans.MemoryProbe()
    with spans.patched(probe.wrap, spans.RETAINED + spans.PEAK):
        tracemalloc.start()
        try:
            memory = measure(ops, 1, digests, probe)
        finally:
            tracemalloc.stop()
    values = spans.layer_metrics(tracer)
    values.update(probe.metrics())
    values["trace.overhead_ratio"] = sum(with_spans.times) / sum(plain.times)
    span_file = OUT / f"spans-{workload}-seed{seed}.tsv"
    with span_file.open("w") as handle:
        handle.write("op\tname\tstart_s\tend_s\tparent\n")
        origin = tracer.spans[0][1] if tracer.spans else 0.0
        for name, start, end, parent, op_id in tracer.spans:
            handle.write(f"{op_id}\t{name}\t{start - origin:.9f}\t{end - origin:.9f}\t{parent}\n")
    print(f"# {rounds} traced rounds, each after an untraced one; {len(tracer.spans)} spans in {span_file}")
    for name, value in values.items():
        print(f"# {name} {value:g} {spans.unit_of(name)}")
    done = Pass(plain.times + with_spans.times + memory.times, 0,
                plain.failures + with_spans.failures + memory.failures)
    return {name: _metric(value, spans.unit_of(name)) for name, value in values.items()}, done


def _describe(workload: str, program: Program, ops: list[Op]) -> None:
    print(f"# floodgraph {program.fg.__file__}  src-sha256 {_source_digest()}  git {_git_sha()}"
          f"  python {platform.python_version()}")
    print(f"# {workload}: {len(ops)} ops a round")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "floodgraph" / "__init__.py").is_file():
        print(f"error: no floodgraph source under {SRC}", file=sys.stderr)
        return 2
    # cli.py falls back to this variable when --connectivity is absent.
    os.environ.pop("FLOODGRAPH_CONNECTIVITY", None)
    sys.path.insert(0, str(SRC))
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT))
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    try:
        run = traced if args.trace else end_to_end
        metrics, done = run(args.workload, args.seed, args.seconds, workdir)
    except (SetupError, Mismatch) as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = len(done.times), len(done.failures)
    print(f"# failed_ops   {failed}/{attempted} = {failed / attempted:g}")
    for name, problem in done.failures[:20]:
        print(f"failed: {name} {problem}", file=sys.stderr)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
