#!/usr/bin/env python3
"""Time one perfbench workload on two checkouts, interleaved op by op.

Each checkout's ``src/floodgraph`` is copied into a temporary directory
under its own package name, so both import into one process.  The
workload's ops are built for both sides from the same seed through this
checkout's ``perfbench/workloads.py``.  A first round warms both sides
up untimed.  Every round runs each op on both sides back to back, and the
side that goes first alternates from op to op and from round to round.
Each output is checked untimed, and the two sides' outputs must be
byte-identical.  A drift in the host's speed thus falls on both sides
alike, which per-layer ``self_s`` figures taken in separate runs cannot
promise.  The collector is off while the rounds run and collects once at
the start of each round, outside every timed call, so no op is charged a
pause for the other side's garbage: the times leave out collector pauses.

Prints each op's median time on both sides and their ratio (second side
over first), then the summed medians: in total, for each op-name prefix
(the part before ``/``, such as ``tanks`` or ``random``) and for each
suffix (the part after the last ``/``, printed as ``*/dendro``) that is
not a number.  Each row then gives the first side's spread: the distance
between the quartiles of its per-round times, as a share of their median.
That spread describes single rounds, so it does not shrink as rounds are
added.  The next column does: the 5% and 95% quantiles of the ratio over
1,000 resamplings of the rounds with replacement (a bootstrap seeded by
the row's name, so a rerun prints the same interval).  A ratio whose
interval excludes 1 is resolved; one whose interval holds 1 is noise.  With
few rounds the interval is too narrow, and even with many a 90% interval
leaves 1 out by chance in about one row of ten.  The
row ends with the rounds in which the second side was faster, such as
``7/7``; a group sums its ops' times in each round.  Exits 1 when an op
fails its check or the sides' outputs differ.

usage: python3 scripts/ab_ops.py BASE CHANGE [--workload hierarchy]
                                 [--seed N] [--rounds N]

``BASE`` and ``CHANGE`` are checkout roots, for example a ``git archive``
of the parent commit and ``.``; the same root twice compares a checkout
with itself.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import random
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import redirect_stderr
from operator import lt
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS, Mismatch, Program  # noqa: E402


def load(checkout: Path, package: str, into: Path) -> Program:
    """Import ``checkout``'s floodgraph as ``package``, copied under ``into``."""
    source = checkout / "src" / "floodgraph"
    if not (source / "__init__.py").is_file():
        sys.exit(f"error: no floodgraph package under {checkout}/src")
    shutil.copytree(source, into / package, ignore=shutil.ignore_patterns("__pycache__"))
    return Program(importlib.import_module(package), importlib.import_module(f"{package}.cli"))


def ratio(members: list[tuple[list[float], list[float]]], rounds: list[int]) -> float:
    """Side b's summed medians over side a's, of ``members``' times in ``rounds``."""
    sum_a, sum_b = (sum(statistics.median([row[side][i] for i in rounds]) for row in members)
                    for side in (0, 1))
    return sum_b / sum_a


def interval(name: str, members: list[tuple[list[float], list[float]]]) -> tuple[float, float]:
    """The 5% and 95% quantiles of the ratio over 1,000 resamplings of the rounds,
    drawn with replacement by a generator seeded with the row's ``name``."""
    rng, count = random.Random(name), len(members[0][0])
    ratios = [ratio(members, rng.choices(range(count), k=count)) for _ in range(1000)]
    cuts = statistics.quantiles(ratios, n=20, method="inclusive")
    return cuts[0], cuts[-1]


def row_line(name: str, width: int, members: list[tuple[list[float], list[float]]]) -> str:
    """The summed medians of ``members``' per-round times on both sides, their
    ratio, the quartile distance of side a's summed times per round over their
    median, the ratio's bootstrap interval, and the rounds in which the summed
    times of side b were lower."""
    sum_a, sum_b = (sum(statistics.median(row[side]) for row in members) for side in (0, 1))
    rounds_a, rounds_b = (list(map(sum, zip(*(row[side] for row in members)))) for side in (0, 1))
    wins = sum(map(lt, rounds_b, rounds_a))
    quartiles = rounds_a * 3  # one round: its one time is every quartile
    if len(rounds_a) > 1:
        quartiles = statistics.quantiles(rounds_a, method="inclusive")
    spread = (quartiles[2] - quartiles[0]) / statistics.median(rounds_a)
    low, high = interval(name, members)
    return (f"{name:<{width}}  {sum_a * 1000:9.3f}  {sum_b * 1000:9.3f}  {sum_b / sum_a:.3f}"
            f"  {spread:8.3f}  {low:.3f}-{high:.3f}  {wins}/{len(rounds_a)}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="hierarchy")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--rounds", type=int, default=5)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        parser.error("--rounds must be at least 1")

    with tempfile.TemporaryDirectory(prefix="ab_ops-") as temp:
        root = Path(temp)
        sys.path.insert(0, str(root / "packages"))
        sides = []
        for tag, checkout in (("a", args.base), ("b", args.change)):
            program = load(checkout.resolve(), f"floodgraph_ab_{tag}", root / "packages")
            workdir = root / tag
            workdir.mkdir()
            sides.append(WORKLOADS[args.workload].build(program, random.Random(args.seed), workdir))
        ops_a, ops_b = sides
        if [op.name for op in ops_a] != [op.name for op in ops_b]:
            sys.exit("error: the two checkouts built different op lists")

        times: list[tuple[list[float], list[float]]] = [([], []) for _ in ops_a]
        failures: list[str] = []
        captured = io.StringIO()
        gc.disable()  # a pause would charge one side's garbage to whichever op runs next
        try:
            for round_index in range(-1, args.rounds):  # round -1 warms up, untimed
                gc.collect()  # once a round, outside every timed call
                for index, pair in enumerate(zip(ops_a, ops_b)):
                    order = (0, 1) if (round_index + index) % 2 == 0 else (1, 0)
                    data: list[bytes | None] = [None, None]
                    for side in order:
                        op = pair[side]
                        with redirect_stderr(captured):
                            start = time.perf_counter()
                            result = op.run()
                            elapsed = time.perf_counter() - start
                        if round_index >= 0:
                            times[index][side].append(elapsed)
                        try:
                            data[side] = op.check(result)
                        except Mismatch as exc:
                            failures.append(f"{op.name} on side {'ab'[side]}: {exc}")
                        captured.seek(0)
                        captured.truncate()
                    if None not in data and data[0] != data[1]:
                        failures.append(f"{pair[0].name}: the two sides' outputs differ")
        finally:
            gc.enable()

    rows = {op.name: pair for op, pair in zip(ops_a, times)}
    width = max(map(len, rows))
    print(f"# {args.workload}, seed {args.seed}, {args.rounds} rounds; a = {args.base}, b = {args.change}")
    print(f"{'op':<{width}}  {'a ms':>9}  {'b ms':>9}  b/a    a spread  b/a 5-95%    b wins")
    for name, (a, b) in rows.items():
        print(row_line(name, width, [(a, b)]))
    groups: dict[str, list[tuple[list[float], list[float]]]] = {"total": list(rows.values())}
    for name, row in rows.items():
        groups.setdefault(name.split("/", 1)[0], []).append(row)
    for name, row in rows.items():
        suffix = name.rsplit("/", 1)[-1]
        if suffix != name and not suffix.isdigit():  # numbered ops form no kind
            groups.setdefault("*/" + suffix, []).append(row)
    for group, members in groups.items():
        print(row_line(group, width, members))
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
