"""Twin inputs: a PGM raster and the text graph written from it give the same reports.

A raster enters through ``read_pgm`` and ``grid_graph``, whose incidences come
from the stencil plan; its text twin, ``serialize_graph(grid_graph(raster, k))``,
enters through ``parse_graph``, whose incidences come from the edge list.  The
names are the same ``"r,c"``, so every command must give the same exit code,
stdout and stderr on both.  The text twin is written from ``grid_graph``'s own
edge list, so a fault in that list shows on both sides alike:
``tests/test_csr.py`` checks the grid's edges against a validated build.
"""

from __future__ import annotations

import io
import random
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from floodgraph import grid_graph, serialize_graph
from floodgraph.cli import main

ALGOS = ("berge", "dijkstra", "prim", "core", "dendro")
UNKNOWN = "9,9"  # no raster of at most 8 rows has this pixel


def pgm(rows: list[list[int]], magic: str, maxval: int) -> bytes:
    """``rows`` as P2 or P5 under ``maxval``, with 16-bit P5 samples above 255."""
    header = f"{magic}\n{len(rows[0])} {len(rows)}\n{maxval}\n".encode("ascii")
    if magic == "P2":
        return header + "".join(" ".join(map(str, row)) + "\n" for row in rows).encode("ascii")
    return header + b"".join(value.to_bytes(1 + (maxval > 255), "big")
                             for row in rows for value in row)


def run(*argv: object) -> tuple[int, str, str]:
    """One CLI call in-process: its exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(list(map(str, argv)))
    return code, out.getvalue(), err.getvalue()


@st.composite
def twins(draw):
    """A raster of 1..8 rows and columns in P2 or P5, 8- or 16-bit, a connectivity,
    and a seed for the ceiling, markers, nodes and tau drawn over it."""
    height, width = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    maxval = draw(st.sampled_from([3, 300]))
    rows = [[draw(st.integers(0, maxval)) for _ in range(width)] for _ in range(height)]
    magic, k = draw(st.sampled_from(["P2", "P5"])), draw(st.sampled_from([4, 8]))
    return rows, magic, maxval, k, draw(st.integers(0, 2**32))


@settings(max_examples=100)
@given(twins())
def test_a_raster_and_its_text_twin_give_the_same_reports(twin):
    rows, magic, maxval, k, seed = twin
    rng = random.Random(seed)
    names = [f"{r},{c}" for r in range(len(rows)) for c in range(len(rows[0]))]

    def pick() -> str:  # a node of the raster, or one that it lacks
        return rng.choice(names) if rng.random() < 0.8 else UNKNOWN

    with tempfile.TemporaryDirectory() as temp:
        root = Path(temp)
        raster, text = root / "raster.pgm", root / "raster.fg"
        raster.write_bytes(pgm(rows, magic, maxval))
        text.write_text("".join(serialize_graph(grid_graph(rows, k))), encoding="utf-8")

        # a partial ceiling above the ground, in node order or shuffled; the second file
        # may name an unknown node, or put one node at 0, perhaps below its ground
        grounds = [level for row in rows for level in row]
        lines = [f"{name} {rng.randint(level, maxval)}"
                 for name, level in zip(names, grounds) if rng.random() < 0.4]
        if rng.random() < 0.5:
            rng.shuffle(lines)
        known, ceiling = root / "known.txt", root / "ceiling.txt"
        known.write_text("".join(line + "\n" for line in lines))
        if rng.random() < 0.2:
            lines.insert(rng.randrange(len(lines) + 1), f"{UNKNOWN} 1")
        elif lines and rng.random() < 0.2:
            at = rng.randrange(len(lines))
            lines[at] = lines[at].split()[0] + " 0"
        ceiling.write_text("".join(line + "\n" for line in lines))
        markers = root / "markers.txt"
        marked = rng.sample(names, rng.randint(0, min(3, len(names))))
        labels = rng.sample(range(1, 10), len(marked))  # distinct, as segment asks
        markers.write_text("".join(f"{name} {label}\n" for name, label in zip(marked, labels)))

        # a tau that flood writes, perhaps raised at one node so that it is no flooding
        tau = root / "tau.txt"
        code, out, err = run("flood", "--graph", raster, "--connectivity", k, "--algo", "core",
                             "--ceiling", known)
        assert (code, err) == (0, "")
        if rng.random() < 0.3:
            taus = out.splitlines()
            at = rng.randrange(len(taus))
            node, level = taus[at].split()
            taus[at] = f"{node} {int(level) + 1}" if level != "inf" else f"{node} 0"
            out = "".join(line + "\n" for line in taus)
        tau.write_text(out)

        commands = [
            *(["flood", "--algo", algo, "--derive-edges", "--ceiling", ceiling, "--stats",
               "--validate-after"] for algo in ALGOS),
            ["segment", "--derive-edges", "--markers", markers, "--tau", "--stats",
             "--engine", rng.choice(["dijkstra", "prim"])],
            ["fldist", "--derive-edges", "--from", pick()],
            ["mst", "--derive-edges"],
            ["dendro", "--derive-edges", "--flood", "--ceiling", ceiling],
            ["lakes", "--tau", tau],
            ["validate", "--tau", tau],
            ["contract", "--ceiling", ceiling],
            ["localflood", "--ceiling", ceiling, "--node", pick()],
        ]
        for command, *options in commands:
            on_raster = run(command, "--graph", raster, "--connectivity", k, *options)
            on_text = run(command, "--graph", text, "--connectivity", k, *options)
            assert on_raster == on_text, (command, *options)


@settings(max_examples=40)
@given(twins(), st.sampled_from(ALGOS))
def test_a_raster_ceiling_and_its_values_file_give_the_same_reports(twin, algo):
    rows, magic, maxval, k, seed = twin
    rng = random.Random(seed)
    levels = [[rng.randint(level, maxval) for level in row] for row in rows]  # above the ground
    node = f"{rng.randrange(len(rows))},{rng.randrange(len(rows[0]))}"
    with tempfile.TemporaryDirectory() as temp:
        root = Path(temp)
        raster, as_pgm, as_text = root / "raster.pgm", root / "ceiling.pgm", root / "ceiling.txt"
        raster.write_bytes(pgm(rows, magic, maxval))
        as_pgm.write_bytes(pgm(levels, magic, maxval))
        as_text.write_text("".join(f"{r},{c} {level}\n" for r, row in enumerate(levels)
                                   for c, level in enumerate(row)))
        for command, *options in (
            ["flood", "--algo", algo, "--derive-edges", "--stats"],
            ["dendro", "--derive-edges", "--flood"],
            ["contract"],
            ["localflood", "--node", node],
        ):
            graph = ["--graph", raster, "--connectivity", k]
            on_pgm = run(command, *graph, *options, "--ceiling", as_pgm)
            on_text = run(command, *graph, *options, "--ceiling", as_text)
            assert on_pgm == on_text, (command, *options)
