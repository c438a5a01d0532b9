"""The newest BENCH record's counters still hold: ``scripts/bench_record.py --check``."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_newest_bench_record_counts_what_the_code_counts():
    """Every count metric of one traced round per workload and seed equals the record's."""
    script = ROOT / "scripts" / "bench_record.py"
    done = subprocess.run([sys.executable, str(script), "--check"], cwd=ROOT,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stderr.endswith("; 0 counters differ\n")
