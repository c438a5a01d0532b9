#!/usr/bin/env python3
"""Line census: name every executable line of src/floodgraph that no check runs.

Runs tier-1 (``pytest`` over ``tests``), ``pytest perfbench``,
``scripts/random_agreement_sweep.py`` and ``scripts/fixture_walkthrough.py``,
each in a child process of its own that records, through the stdlib's
``sys.monitoring`` (Python 3.12 or later), every line of ``src/floodgraph``
it executes.  A line is executable when the compiled module holds an
instruction on it other than a function's entry (``RESUME``, and
``RETURN_GENERATOR`` for a generator), which reports no line of its own;
a ``def`` line runs as the statement that binds the function.

The processes that these four start (the CLI tests' children, say) are not
monitored.  The lines that only such a child runs are excused by content,
not by number: ``main``'s closed-pipe branch and the ``__main__`` guard of
``cli.py``.  An excuse that matches no unrun line is stale and is reported.

Prints each unrun line and a summary; exits 1 when a line is unrun, an
excuse is stale or a run fails, and 0 otherwise.

usage: python scripts/line_census.py
"""

from __future__ import annotations

import dis
import json
import os
import subprocess
import sys
import tempfile
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "floodgraph"

# The checks, each run as ``python -m`` (a module) or as a script path.  Tier-1
# draws its Hypothesis examples from one seed, so that a line only a lucky draw
# reaches is unrun on every census, not on some.
RUNS = [
    ("tier-1", "module", ["pytest", "-q", "--continue-on-collection-errors",
                          "--hypothesis-seed=0"]),
    ("perfbench", "module", ["pytest", "-q", "perfbench"]),
    ("random_agreement_sweep", "path", ["scripts/random_agreement_sweep.py"]),
    ("fixture_walkthrough", "path", ["scripts/fixture_walkthrough.py"]),
]

# Lines that only a child process runs, by module and stripped content.
CHILD_ONLY = {
    "cli.py": [
        # main's closed-pipe branch: a reader closed stdout early
        "devnull = os.open(os.devnull, os.O_WRONLY)",
        "os.dup2(devnull, 1)  # so the flush at exit cannot fail again",
        "os.close(devnull)",
        "return 141",
        # the __main__ guard of ``python -m floodgraph.cli``
        "sys.exit(main())",
    ],
}

# Runs in each child before the check: records the package's executed lines
# (each location once, then disabled) and writes them as JSON at exit.
RECORDER = """\
import atexit, json, os, runpy, sys
package, out, kind, target, *args = sys.argv[1:]
monitoring = sys.monitoring
tool = monitoring.COVERAGE_ID
inside, seen = {}, set()

def line(code, number):
    name = code.co_filename
    path = inside.get(name)
    if path is None:
        resolved = os.path.realpath(name)
        path = inside[name] = resolved if os.path.dirname(resolved) == package else ""
    if path:
        seen.add((path, number))
    return monitoring.DISABLE

def dump():
    with open(out, "w", encoding="utf-8") as handle:
        json.dump(sorted(seen), handle)

monitoring.use_tool_id(tool, "line census")
monitoring.register_callback(tool, monitoring.events.LINE, line)
monitoring.set_events(tool, monitoring.events.LINE)
atexit.register(dump)
sys.argv = [target, *args]
if kind == "module":
    runpy.run_module(target, run_name="__main__", alter_sys=True)
else:
    runpy.run_path(target, run_name="__main__")
"""


def code_objects(code: types.CodeType):
    yield code
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from code_objects(const)


def executable_lines(path: Path) -> set[int]:
    """The lines that hold an instruction other than a function's entry."""
    top = compile(path.read_text(encoding="utf-8"), str(path), "exec")
    return {
        instruction.positions.lineno
        for code in code_objects(top)
        for instruction in dis.get_instructions(code)
        if instruction.opname not in ("RESUME", "RETURN_GENERATOR")
        and instruction.positions.lineno is not None
    }


def record(name: str, kind: str, argv: list[str], out: Path) -> tuple[int, set]:
    """Run one check under the recorder: its exit status and the lines it ran."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    target, *args = argv
    command = [sys.executable, "-c", RECORDER, str(PACKAGE.resolve()), str(out), kind,
               target, *args]
    print(f"line census: running {name}", flush=True)
    child = subprocess.run(command, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    status = child.returncode
    if status:  # the end of its report, where pytest names its failures
        print(*child.stdout.splitlines()[-20:], sep="\n", file=sys.stderr)
    ran = set()
    if out.exists():
        ran = {(path, number) for path, number in json.loads(out.read_text(encoding="utf-8"))}
    return status, ran


def main() -> int:
    if sys.version_info < (3, 12):
        print("line census: needs Python 3.12 or later (sys.monitoring)", file=sys.stderr)
        return 2
    ran: set = set()
    failed = []
    with tempfile.TemporaryDirectory() as scratch:
        for index, (name, kind, argv) in enumerate(RUNS):
            status, lines = record(name, kind, argv, Path(scratch) / f"{index}.json")
            if status:
                failed.append(f"{name} exited {status}")
            ran |= lines
    unrun, stale = [], []
    total = excused = 0
    for path in sorted(PACKAGE.glob("*.py")):
        text = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        missed = sorted(number for number in lines if (str(path.resolve()), number) not in ran)
        excuses = CHILD_ONLY.get(path.name, [])
        used = set()
        for number in missed:
            content = text[number - 1].strip()
            if content in excuses:
                used.add(content)
                excused += 1
            else:
                unrun.append(f"{path.relative_to(ROOT)}:{number}: {content}")
        stale += [f"{path.name}: {content!r}" for content in excuses if content not in used]
    for line in unrun:
        print(line)
    for excuse in stale:
        print(f"stale excuse, the line runs in-process or is gone: {excuse}")
    for failure in failed:
        print(f"run failed: {failure}")
    print(f"line census: {total} executable lines in src/floodgraph, {len(unrun)} unrun, "
          f"{excused} excused as child-only, by {', '.join(name for name, _, _ in RUNS)}")
    return 1 if unrun or stale or failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
