"""List the functions of ``src/repro`` that no entry script of the repository
calls.

Each entry script runs in its own subprocess under a profile hook
(``sys.setprofile`` and ``threading.setprofile``) that records every code
object called, in every thread:

* every example, ``examples/*.py``;
* every perfbench workload of ``BENCHMARK.json``, for one second, untraced
  and traced;
* every benchmark CLI, ``benchmarks/bench_*.py``.  The four engine
  micro-benchmarks and the Fig. 5 inference benchmark run with
  ``--quick --no-record``, so they write no ``BENCH_*.json`` point.

A called code object matches a ``def`` of ``src/repro`` (nested ones
included) by file, name and first line; a decorated function's code starts
at its first decorator.  Every ``def`` that no entry script calls must be on the
allowlist ``reach_allowlist.txt`` beside this script, whose header names the
four kinds of function it admits.  The probe prints what it found and exits
1 when an uncalled function is not on the allowlist, when an allowlist entry
names no function or is malformed, or when an entry script exits non-zero.
An entry whose function some script did call is reported, not failed: which
library paths a script reaches can differ between Python and numpy versions.

The scripts run two at a time; on a two-core machine the whole set takes
about two minutes.  Usage (takes no options)::

    python tools/reach_probe.py
"""

from __future__ import annotations

import ast
import atexit
import json
import os
import runpy
import subprocess
import sys
import tempfile
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
ALLOWLIST = Path(__file__).resolve().with_name("reach_allowlist.txt")
KINDS = ("operator", "override", "dunder", "safety")
ENGINE_BENCHMARKS = (
    "bench_accounting.py",
    "bench_data_dependent.py",
    "bench_fig5_inference_scalability.py",
    "bench_matmat_engine.py",
    "bench_telemetry.py",
)
# An entry script runs as ``python -c _CHILD <result file> <script> <args...>``.
_CHILD = (
    "import sys; sys.path[0] = {tools!r}; import reach_probe; "
    "reach_probe.run_traced(sys.argv[1], sys.argv[2:])"
)


def run_traced(result_file: str, argv: list[str]) -> None:
    """Run the script ``argv[0]`` as ``__main__`` with ``argv[1:]`` as its
    arguments, recording every code object called; at interpreter exit,
    after the script's threads are joined, write those under ``src/repro``
    to ``result_file`` as ``[file, name, first line]`` rows."""
    called: set = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    def write() -> None:
        sys.setprofile(None)
        prefix = str(PACKAGE) + os.sep
        rows = set()
        for code in frozenset(called):
            path = os.path.realpath(code.co_filename)
            if path.startswith(prefix):
                rows.add((path, code.co_name, code.co_firstlineno))
        Path(result_file).write_text(json.dumps(sorted(rows)))

    sys.argv = list(argv)
    sys.path[0] = os.path.dirname(os.path.abspath(argv[0]))
    atexit.register(write)
    threading.setprofile(hook)
    sys.setprofile(hook)
    runpy.run_path(argv[0], run_name="__main__")


def entry_scripts() -> list[list[str]]:
    """Every entry script's command line: the script and its arguments."""
    workloads = json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]
    perfbench = [
        ["perfbench/run.py", "--workload", workload["name"], "--seed", "1",
         "--seconds", "1", "--trace", trace]
        for workload in workloads
        for trace in ("0", "1")
    ]
    examples = [[f"examples/{path.name}"] for path in sorted((ROOT / "examples").glob("*.py"))]
    benchmarks = [
        [f"benchmarks/{path.name}",
         *(("--quick", "--no-record") if path.name in ENGINE_BENCHMARKS else ())]
        for path in sorted((ROOT / "benchmarks").glob("bench_*.py"))
    ]
    # The perfbench runs are the longest: start them first.
    return perfbench + examples + benchmarks


def definitions() -> dict[tuple[str, str, int], tuple[str, int]]:
    """Every ``def`` under ``src/repro``: (file, name, first line) → its
    allowlist name, ``<path under src/repro>::<qualified name>``, and its
    length in lines."""
    found = {}

    def visit(node, path: Path, qualifier: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                first = child.decorator_list[0].lineno if child.decorator_list else child.lineno
                name = f"{path.relative_to(PACKAGE).as_posix()}::{qualifier}{child.name}"
                found[(str(path), child.name, first)] = (name, child.end_lineno - first + 1)
                visit(child, path, f"{qualifier}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, f"{qualifier}{child.name}.")
            else:
                visit(child, path, qualifier)

    for path in sorted(PACKAGE.rglob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.resolve(), "")
    return found


def read_allowlist() -> tuple[dict[str, str], list[str]]:
    """The allowlist's entries (name → kind) and its malformed lines."""
    entries, malformed = {}, []
    for number, line in enumerate(ALLOWLIST.read_text().splitlines(), 1):
        if not line.strip() or line.startswith("#"):
            continue
        fields = line.split(None, 2)
        if len(fields) < 3 or fields[0] not in KINDS or fields[1] in entries:
            malformed.append(f"{ALLOWLIST.name}:{number}: {line}")
        else:
            entries[fields[1]] = fields[0]
    return entries, malformed


def run_script(argv: list[str], result_file: Path) -> tuple[int, str, set]:
    """Run one entry script under the profile hook: its exit status, the tail of
    its standard error, and the (file, name, first line) keys it called."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    # Two scripts share the machine's cores; one BLAS thread each.
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"
    child = _CHILD.format(tools=str(Path(__file__).resolve().parent))
    done = subprocess.run(
        [sys.executable, "-c", child, str(result_file), *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=1800,
    )
    called = set()
    if result_file.exists():
        called = {tuple(row) for row in json.loads(result_file.read_text())}
    return done.returncode, done.stderr[-2000:], called


def main() -> int:
    commands = entry_scripts()
    with tempfile.TemporaryDirectory() as scratch, ThreadPoolExecutor(max_workers=2) as pool:
        futures = [
            pool.submit(run_script, argv, Path(scratch) / f"script{index}.json")
            for index, argv in enumerate(commands)
        ]
        results = [future.result() for future in futures]

    status = 0
    called = set()
    for argv, (code, stderr, keys) in zip(commands, results):
        called |= keys
        if code != 0:
            status = 1
            print(f"FAILED entry script (exit {code}): {' '.join(argv)}\n{stderr}")

    defined = definitions()
    entries, malformed = read_allowlist()
    names = {name for name, _ in defined.values()}
    uncalled = {name: lines for key, (name, lines) in defined.items() if key not in called}
    missing = sorted(set(uncalled) - set(entries))
    unknown = sorted(set(entries) - names)
    reached = sorted(set(entries) & names - set(uncalled))

    print(
        f"reach probe: {len(commands)} entry scripts; {len(defined) - len(uncalled)} of "
        f"{len(defined)} defs under src/repro called; {len(uncalled)} uncalled "
        f"({sum(uncalled.values())} lines); {len(entries)} allowlist entries"
    )
    for line in malformed:
        print(f"MALFORMED allowlist entry (want '<kind> <path>::<name> <reason>', "
              f"kind one of {', '.join(KINDS)}): {line}")
    for name in missing:
        print(f"UNCALLED, not on the allowlist: {name}")
    for name in unknown:
        print(f"ALLOWLISTED, but no such function: {name}")
    for name in reached:
        print(f"note: allowlisted, but an entry script called it: {name}")
    if malformed or missing or unknown:
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
