"""Byte-level golden guard: every CLI command against committed outputs.

Inputs live in ``tests/golden/``.  Outputs on the small fixtures are stored
in full under ``tests/golden/expected/``; outputs on the seeded 64x64
raster are stored as sha256 digests in ``tests/golden/raster64.sha256`` to
keep the repository small.  A case's outputs are its stdout, its stderr
when non-empty, and any file it writes besides stdout (``--label-pgm``).
The stdout of ``scripts/fixture_walkthrough.py`` is kept in full as
``expected/walkthrough.txt``.

Regenerate only when a change of output is intended:

    PYTHONPATH=src python3 tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import runpy
from pathlib import Path

import pytest

from floodgraph.cli import main

GOLDEN = Path(__file__).parent / "golden"
EXPECTED = GOLDEN / "expected"
DIGESTS = GOLDEN / "raster64.sha256"
WALKTHROUGH = Path(__file__).parent.parent / "scripts" / "fixture_walkthrough.py"

FLOOD_ALGOS = ("berge", "dijkstra", "prim", "core", "dendro")


def _flood(graph: str, algo: str, *extra: str) -> list[str]:
    derive = [] if algo == "core" or graph in ("tank.fg", "dendro.fg") else ["--derive-edges"]
    return ["flood", "--graph", graph, "--algo", algo, *derive, *extra]


# (case name, argv, exit code).  Bare arguments naming a file in tests/golden/
# become paths to it; "@<case>" becomes a file holding that case's stdout;
# "%<name>" becomes a fresh output file that is part of the case's outputs.
CASES: list[tuple[str, list[str], int]] = [
    # chain: node-weighted path with omega attributes
    *[(f"chain-flood-{a}", _flood("chain.fg", a), 0) for a in FLOOD_ALGOS],
    ("chain-flood-jacobi", _flood("chain.fg", "berge", "--schedule", "jacobi"), 0),
    ("chain-flood-stats", _flood("chain.fg", "dijkstra", "--validate-after", "--stats"), 0),
    *[(f"chain-flood-{s}-stats", _flood("chain.fg", "berge", "--schedule", s, "--stats"), 0)
      for s in ("gauss_seidel", "jacobi")],
    ("chain-flood-dendro-stats", _flood("chain.fg", "dendro", "--stats"), 0),
    ("chain-flood-no-derive", ["flood", "--graph", "chain.fg", "--algo", "prim"], 1),
    ("chain-segment", ["segment", "--graph", "chain.fg", "--markers", "chain-markers.txt",
                       "--derive-edges"], 0),
    ("chain-segment-tau", ["segment", "--graph", "chain.fg", "--markers",
                           "chain-markers.txt", "--derive-edges", "--tau", "--stats"], 0),
    ("chain-fldist", ["fldist", "--graph", "chain.fg", "--from", "c", "--derive-edges"], 0),
    ("chain-mst", ["mst", "--graph", "chain.fg", "--derive-edges"], 0),
    ("chain-dendro", ["dendro", "--graph", "chain.fg", "--derive-edges"], 0),
    ("chain-dendro-flood", ["dendro", "--graph", "chain.fg", "--derive-edges", "--flood"], 0),
    ("chain-lakes", ["lakes", "--graph", "chain.fg", "--tau", "chain-tau.txt"], 0),
    ("chain-validate", ["validate", "--graph", "chain.fg", "--tau", "chain-tau.txt"], 0),
    ("chain-lakes-below-ground", ["lakes", "--graph", "chain.fg", "--tau", "chain-low-tau.txt"], 1),
    ("chain-contract", ["contract", "--graph", "chain.fg"], 0),
    ("chain-localflood", ["localflood", "--graph", "chain.fg", "--node", "c"], 0),
    # tank: edge-weighted line of tanks
    *[(f"tank-flood-{a}", _flood("tank.fg", a, "--ceiling", "tank-ceiling.txt"), 0)
      for a in FLOOD_ALGOS if a != "core"],
    ("tank-flood-core", _flood("tank.fg", "core"), 1),
    ("tank-flood-prim-stats", _flood("tank.fg", "prim", "--ceiling", "tank-ceiling.txt",
                                     "--stats"), 0),
    ("tank-segment-tau", ["segment", "--graph", "tank.fg", "--markers", "tank-markers.txt",
                          "--engine", "prim", "--tau"], 0),
    ("tank-fldist", ["fldist", "--graph", "tank.fg", "--from", "D"], 0),
    ("tank-mst", ["mst", "--graph", "tank.fg"], 0),
    ("tank-dendro-flood", ["dendro", "--graph", "tank.fg", "--flood", "--ceiling",
                           "tank-ceiling.txt"], 0),
    ("tank-dendro-ceiling-no-flood", ["dendro", "--graph", "tank.fg", "--ceiling",
                                      "tank-ceiling.txt"], 2),
    ("tank-lakes", ["lakes", "--graph", "tank.fg", "--tau", "tank-tau.txt"], 0),
    ("tank-validate", ["validate", "--graph", "tank.fg", "--tau", "tank-tau.txt"], 0),
    ("tank-validate-invalid", ["validate", "--graph", "tank.fg", "--tau", "tank-bad-tau.txt"], 1),
    ("tank-lakes-invalid", ["lakes", "--graph", "tank.fg", "--tau", "tank-bad-tau.txt"], 1),
    # strip: 1x6 plain PGM whose flat-zone contraction is the chain
    *[(f"strip-flood-{a}", _flood("strip.pgm", a, "--ceiling", "strip-ceiling.txt"), 0)
      for a in FLOOD_ALGOS],
    ("strip-segment-pgm", ["segment", "--graph", "strip.pgm", "--markers",
                           "strip-markers.txt", "--derive-edges", "--label-pgm",
                           "%labels.pgm"], 0),
    ("strip-dendro", ["dendro", "--graph", "strip.pgm", "--derive-edges"], 0),
    ("strip-lakes", ["lakes", "--graph", "strip.pgm", "--tau", "strip-tau.txt"], 0),
    ("strip-contract", ["contract", "--graph", "strip.pgm"], 0),
    ("strip-contract-ceiling", ["contract", "--graph", "strip.pgm", "--ceiling",
                                "strip-ceiling.txt"], 0),
    ("strip-localflood", ["localflood", "--graph", "strip.pgm", "--ceiling",
                          "strip-ceiling.txt", "--node", "0,3"], 0),
    # zones: a ground and edge weights, two flat zones joined by two cross edges
    # (w=7, then w=5), and a ceiling on three of the four nodes
    ("zones-contract", ["contract", "--graph", "zones.fg"], 0),
    # dendro: edge-weighted tree realizing the eleven-leaf dendrogram
    ("dendro-dendro", ["dendro", "--graph", "dendro.fg"], 0),
    ("dendro-dendro-flood", ["dendro", "--graph", "dendro.fg", "--flood", "--ceiling",
                             "dendro-ceiling.txt"], 0),
    ("dendro-flood-dendro", _flood("dendro.fg", "dendro", "--ceiling", "dendro-ceiling.txt"), 0),
    ("dendro-fldist", ["fldist", "--graph", "dendro.fg", "--from", "h"], 0),
    # raster64: 64x64 P5 raster drawn from random.Random(64064): levels 0..12,
    # then a ceiling of ground + 0..4 on ~10% of pixels, then 20 markers
    *[(f"raster64-flood-{a}", _flood("raster64.pgm", a, "--ceiling", "raster64-ceiling.txt"), 0)
      for a in FLOOD_ALGOS],
    *[(f"raster64-flood-{s}-stats", _flood("raster64.pgm", "berge", "--ceiling",
                                           "raster64-ceiling.txt", "--schedule", s, "--stats"), 0)
      for s in ("gauss_seidel", "jacobi")],
    ("raster64-flood-dijkstra-stats", _flood("raster64.pgm", "dijkstra", "--ceiling",
                                             "raster64-ceiling.txt", "--stats"), 0),
    ("raster64-flood-prim-stats", _flood("raster64.pgm", "prim", "--ceiling",
                                         "raster64-ceiling.txt", "--stats"), 0),
    ("raster64-segment", ["segment", "--graph", "raster64.pgm", "--markers",
                          "raster64-markers.txt", "--derive-edges"], 0),
    ("raster64-segment-tau", ["segment", "--graph", "raster64.pgm", "--markers",
                              "raster64-markers.txt", "--derive-edges", "--tau"], 0),
    ("raster64-segment-pgm", ["segment", "--graph", "raster64.pgm", "--markers",
                              "raster64-markers.txt", "--derive-edges", "--label-pgm",
                              "%labels.pgm"], 0),
    ("raster64-fldist", ["fldist", "--graph", "raster64.pgm", "--from", "31,31",
                         "--derive-edges"], 0),
    ("raster64-mst", ["mst", "--graph", "raster64.pgm", "--derive-edges"], 0),
    ("raster64-dendro", ["dendro", "--graph", "raster64.pgm", "--derive-edges"], 0),
    ("raster64-dendro-flood", ["dendro", "--graph", "raster64.pgm", "--derive-edges",
                               "--flood", "--ceiling", "raster64-ceiling.txt"], 0),
    ("raster64-lakes", ["lakes", "--graph", "raster64.pgm", "--tau", "@raster64-flood-core"], 0),
    ("raster64-validate", ["validate", "--graph", "raster64.pgm", "--tau",
                           "@raster64-flood-core"], 0),
    ("raster64-contract", ["contract", "--graph", "raster64.pgm"], 0),
    ("raster64-contract-ceiling", ["contract", "--graph", "raster64.pgm", "--ceiling",
                                   "raster64-ceiling.txt"], 0),
    ("raster64-localflood", ["localflood", "--graph", "raster64.pgm", "--ceiling",
                             "raster64-ceiling.txt", "--node", "40,17"], 0),
    # the same raster under 8-connectivity, which adds the diagonal edges
    *[(f"raster64-flood-{a}-c8", _flood("raster64.pgm", a, "--ceiling", "raster64-ceiling.txt",
                                        "--connectivity", "8"), 0) for a in ("dijkstra", "core")],
    ("raster64-segment-c8", ["segment", "--graph", "raster64.pgm", "--markers",
                             "raster64-markers.txt", "--derive-edges", "--connectivity", "8"], 0),
    ("raster64-mst-c8", ["mst", "--graph", "raster64.pgm", "--derive-edges",
                         "--connectivity", "8"], 0),
    ("raster64-dendro-c8", ["dendro", "--graph", "raster64.pgm", "--derive-edges",
                            "--connectivity", "8"], 0),
]


def run_case(argv: list[str], code: int, workdir: Path, stdout_of: dict[str, bytes]) -> dict[str, bytes]:
    """Run one case in-process; return its named outputs (bytes)."""
    resolved: list[str] = []
    extra: dict[str, Path] = {}
    for arg in argv:
        if arg.startswith("@"):
            path = workdir / f"{arg[1:]}.stdout"
            path.write_bytes(stdout_of[arg[1:]])
            resolved.append(str(path))
        elif arg.startswith("%"):
            extra[arg[1:]] = workdir / arg[1:]
            resolved.append(str(extra[arg[1:]]))
        elif (GOLDEN / arg).is_file():
            resolved.append(str(GOLDEN / arg))
        else:
            resolved.append(arg)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        actual = main(resolved)
    assert actual == code, (argv, err.getvalue())
    outputs = {"stdout": out.getvalue().encode("utf-8")}
    if err.getvalue():
        outputs["stderr"] = err.getvalue().encode("utf-8")
    for name, path in extra.items():
        outputs[name] = path.read_bytes()
    return outputs


def all_outputs(workdir: Path) -> dict[str, bytes]:
    """Every case's outputs, keyed ``<case>.<output>``, in case order."""
    stdout_of: dict[str, bytes] = {}
    flat: dict[str, bytes] = {}
    for name, argv, code in CASES:
        outputs = run_case(argv, code, workdir, stdout_of)
        stdout_of[name] = outputs["stdout"]
        flat.update({f"{name}.{part}": data for part, data in outputs.items()})
    return flat


def _digest_lines() -> dict[str, str]:
    lines = DIGESTS.read_text().splitlines()
    return {key: digest for digest, key in (line.split("  ", 1) for line in lines)}


@pytest.fixture(scope="module")
def produced(tmp_path_factory):
    return all_outputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("name", [name for name, _, _ in CASES])
def test_golden_output(produced, name):
    keys = sorted(key for key in produced if key.split(".", 1)[0] == name)
    if name.startswith("raster64-"):
        stored = _digest_lines()
        expected_keys = sorted(key for key in stored if key.split(".", 1)[0] == name)
        assert keys == expected_keys
        for key in keys:
            assert hashlib.sha256(produced[key]).hexdigest() == stored[key], key
    else:
        expected_keys = sorted(p.name for p in EXPECTED.glob(f"{name}.*"))
        assert keys == expected_keys
        for key in keys:
            assert produced[key] == (EXPECTED / key).read_bytes(), key


def walkthrough_output() -> bytes:
    """Stdout of the walkthrough script, run in-process."""
    script = runpy.run_path(str(WALKTHROUGH))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert script["main"]() == 0
    return out.getvalue().encode("utf-8")


def test_walkthrough_output():
    assert walkthrough_output() == (EXPECTED / "walkthrough.txt").read_bytes()


def regenerate() -> None:
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        produced = all_outputs(Path(workdir))
    EXPECTED.mkdir(exist_ok=True)
    for stale in EXPECTED.iterdir():
        stale.unlink()
    digests = []
    for key, data in produced.items():
        if key.startswith("raster64-"):
            digests.append(f"{hashlib.sha256(data).hexdigest()}  {key}\n")
        else:
            (EXPECTED / key).write_bytes(data)
    DIGESTS.write_text("".join(digests))
    (EXPECTED / "walkthrough.txt").write_bytes(walkthrough_output())


if __name__ == "__main__":
    regenerate()
