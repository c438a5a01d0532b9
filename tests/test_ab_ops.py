"""``scripts/ab_ops.py``'s bootstrap interval of a row's ratio."""

from __future__ import annotations

import gc
import importlib.util
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location("ab_ops", ROOT / "scripts" / "ab_ops.py")
ab_ops = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_ops)


def rounds(rng, count, scale=1.0):
    """Per-round times of one op: a 10 ms median with a few slow rounds, as on a busy host."""
    return [scale * 0.010 * (1 + rng.expovariate(10)) for _ in range(count)]


def test_the_interval_narrows_with_rounds_and_resolves_a_real_change():
    rng = random.Random(1)
    same = [(rounds(rng, 25), rounds(rng, 25))]
    widths = []
    for count in (7, 25):
        low, high = ab_ops.interval("op", [(a[:count], b[:count]) for a, b in same])
        assert low <= ab_ops.ratio(same, list(range(count))) <= high
        widths.append(high - low)
    assert widths[1] < widths[0]
    faster = [(rounds(rng, 25), rounds(rng, 25, scale=0.9))]
    low, high = ab_ops.interval("op", faster)
    assert high < 1 and low < 0.9 < high


def test_the_interval_is_seeded_by_the_row_and_printed_in_its_line():
    rng = random.Random(2)
    members = [(rounds(rng, 9), rounds(rng, 9)) for _ in range(3)]
    assert ab_ops.interval("*/lakes", members) == ab_ops.interval("*/lakes", members)
    low, high = ab_ops.interval("*/lakes", members)
    assert f"  {low:.3f}-{high:.3f}  " in ab_ops.row_line("*/lakes", 8, members)
    one = [([0.010], [0.009])]
    assert ab_ops.interval("op", one) == pytest.approx((0.9, 0.9))  # one round, in every resample


def test_the_ops_run_with_the_collector_off_and_main_turns_it_back_on(monkeypatch, capsys):
    seen = []

    def run():
        seen.append(gc.isenabled())
        return b"out"

    def build(program, rng, workdir):
        return [SimpleNamespace(name="fake/op", run=run, check=lambda result: result)]

    monkeypatch.setattr(sys, "path", list(sys.path))  # main puts its temporary packages first
    monkeypatch.setattr(ab_ops, "load", lambda checkout, package, into: None)
    monkeypatch.setitem(ab_ops.WORKLOADS, "fake", SimpleNamespace(build=build))
    assert gc.isenabled()
    assert ab_ops.main([str(ROOT), str(ROOT), "--workload", "fake", "--rounds", "2"]) == 0
    assert seen == [False] * 6  # a warm-up round and two timed ones, on both sides
    assert gc.isenabled()
    assert "fake/op" in capsys.readouterr().out
