"""``scripts/bench_record.py --check`` compares ratio metrics as well as counts.

The replay is replaced by the record's own metrics, so no workload runs.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_record", ROOT / "scripts" / "bench_record.py")
bench_record = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_record)

MOVED = ("hierarchy", "1", "reductions.contract_flat_zones.kept_ratio")


def test_check_names_exactly_the_ratio_that_moved(monkeypatch):
    path = bench_record.newest()
    record = json.loads(path.read_text())
    shift = 0.0

    def counters(workload, seed):
        entry = record["workloads"][workload][str(seed)]["counters"]
        metrics = dict(entry["metrics"])
        if (workload, str(seed)) == MOVED[:2]:
            metrics[MOVED[2]] += shift
        return {"failed": entry["failed"], "metrics": metrics}

    monkeypatch.setattr(bench_record, "counters", counters)
    assert bench_record.check(path) == []
    shift = 0.125
    old = record["workloads"][MOVED[0]][MOVED[1]]["counters"]["metrics"][MOVED[2]]
    assert bench_record.check(path) == [
        f"{path.name}: hierarchy seed 1: {MOVED[2]} recorded {old}, replayed {old + shift}"
    ]
