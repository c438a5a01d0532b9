#!/usr/bin/env python3
"""Write one BENCH record: perfbench's end-to-end results, its exact counters and the host.

For each perfbench workload and seed, the record holds:

* the final JSON line of ``perfbench/run.py --trace 0``, each run in a
  fresh process, so every run imports and warms up on its own;
* the counters of one traced round, replayed in this process with
  perfbench's own ``run.set_up``, ``run.measure`` and span tracer.  They
  are the per-layer metrics that are not times (calls, solver counters,
  clusters and their ratios), and they repeat exactly for one seed, so a
  change in them is a change in an algorithm, whatever the host's speed.

The record also holds ``perfbench/reference.py``'s gauge, sampled before
and after the runs, so that records taken at different host speeds can be
compared; the git sha (HEAD when recorded, so a record committed with
its change names the parent) and the digest of ``src/floodgraph``; the Python
version; ``os.cpu_count()``; and whether bytecode is cached.  Exits 1 when
any run reports ``correct: false`` or gives no result.

With ``--check``, nothing is written: one traced round of each workload is
replayed at the seeds of the newest ``BENCH_*.json`` at the repo root, and
every count and ratio metric is compared with that record.  Each difference
is printed with the counter, both values and the file, and the exit status is
then 1.  Counts repeat exactly on any host, and so do the ratios, which are
quotients of counts; times and bytes per node are not checked.

usage: python3 scripts/bench_record.py --out BENCH.json
       python3 scripts/bench_record.py --check
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

import reference  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = (1, 2)
SECONDS = 5  # of op time per end-to-end run, as run.py's --seconds
GAUGE_SAMPLES = 9


def end_to_end(workload: str, seed: int) -> dict:
    """The last stdout line of one ``run.py --trace 0`` process, or why there is none."""
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(SECONDS), "--trace", "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return {"correct": False, "error": f"exit {done.returncode}: {done.stderr.strip()[-300:]}"}


def counters(workload: str, seed: int) -> dict:
    """The exact per-layer metrics of one traced round of ``workload``."""
    workdir = Path(tempfile.mkdtemp(prefix=f"bench-{workload}-", dir=run.OUT))
    try:
        _, _, ops = run.set_up(workload, seed, workdir)
        tracer = spans.Tracer()
        with spans.patched(tracer.wrap):
            done = run.measure(ops, 1, {}, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    exact = {name: value for name, value in spans.layer_metrics(tracer).items()
             if spans.unit_of(name) != "s"}
    return {"failed": len(done.failures), "metrics": exact}


def gauge() -> dict:
    samples = [reference.sample() for _ in range(GAUGE_SAMPLES)]
    return {"median_s": statistics.median(samples), "samples_s": samples}


def newest() -> Path:
    """The ``BENCH_<n>.json`` at the repo root with the largest ``n``."""
    return max(ROOT.glob("BENCH_*.json"), key=lambda path: int(path.stem.partition("_")[2]))


def check(path: Path) -> list[str]:
    """Replay the record's workloads and seeds; one line per count or ratio metric that differs."""
    record = json.loads(path.read_text())
    differences = []
    for workload, seeds in sorted(record["workloads"].items()):
        for seed, entry in sorted(seeds.items()):
            replay = counters(workload, int(seed))
            recorded = {"failed": entry["counters"]["failed"], **entry["counters"]["metrics"]}
            replayed = {"failed": replay["failed"], **replay["metrics"]}
            for name in sorted(recorded.keys() | replayed.keys()):
                if spans.unit_of(name) not in ("count", "ratio"):
                    continue
                old, new = recorded.get(name), replayed.get(name)
                if old != new:
                    differences.append(f"{path.name}: {workload} seed {seed}: {name} "
                                       f"recorded {old}, replayed {new}")
    return differences


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--out", type=Path, help="the JSON file to write")
    mode.add_argument("--check", action="store_true",
                      help="replay the newest BENCH_*.json's counters and compare them")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(run.SRC))
    run.OUT.mkdir(exist_ok=True)
    if args.check:
        path = newest()
        differences = check(path)
        for line in differences:
            print(line, file=sys.stderr)
        print(f"# checked {path.name}; {len(differences)} counters differ", file=sys.stderr)
        return 1 if differences else 0
    runs = [(workload, seed) for workload in sorted(WORKLOADS) for seed in SEEDS]
    before = gauge()
    # every fresh process starts before this one runs a workload: on Linux a child's
    # ru_maxrss starts from the peak of the process it was forked from
    lines = [end_to_end(workload, seed) for workload, seed in runs]
    exact = [counters(workload, seed) for workload, seed in runs]
    after = gauge()
    results: dict[str, dict] = {}
    for (workload, seed), line, counted in zip(runs, lines, exact):
        results.setdefault(workload, {})[str(seed)] = {"end_to_end": line, "counters": counted}
    record = {
        "git_sha": run._git_sha(),
        "src_sha256": run._source_digest(),
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "bytecode_cached": not sys.dont_write_bytecode,
        "seconds": SECONDS,
        "gauge": {"reference_s": reference.REF_S, "before": before, "after": after},
        "workloads": results,
    }
    args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    bad = [f"{workload} seed {seed}" for (workload, seed), line, counted in zip(runs, lines, exact)
           if not line.get("correct") or counted["failed"]]
    for name in bad:
        print(f"failed: {name}", file=sys.stderr)
    print(f"# wrote {args.out}; {len(bad)} of {len(runs)} runs failed", file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
