"""Function-level census: which functions of ``src/repro`` does a run reach?

    PYTHONPATH=src python tools/census.py run -m pytest -x -q
    PYTHONPATH=src python tools/census.py run examples/quickstart.py
    python tools/census.py report

``run`` executes a module (``-m NAME``) or a script under a
``sys.setprofile`` hook (every thread, and every process forked from it)
and writes the code locations it entered under ``--data`` (``.census/``),
one file per process.  Forked engine workers leave through ``os._exit``,
which skips ``atexit``, so a child writes its file just before that call.
``report`` lists each function defined under ``src/repro`` that no run
entered and :data:`ALLOWED` does not explain, and each allowlist entry
that matches nothing (stale); it exits 1 if there is either.  Stdlib only.
"""

from __future__ import annotations

import argparse
import ast
import atexit
import fnmatch
import os
import runpy
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "repro"

#: ``path::qualname`` glob (path relative to src/repro) -> why tier-1, the
#: examples and the benchmark smoke never reach it, yet it stays
ALLOWED = {
    "datacutter/engine.py::Engine.*": "Protocol stubs: matched, never called",
    "datacutter/obs/trace.py::TraceCollector.*": "Protocol stubs: matched, never called",
    "serve/client.py::Client.*": "Protocol stubs: matched, never called",
    "serve/plancache.py::PlanCacheProtocol.*": "Protocol stubs: matched, never called",
    "serve/requests.py::Service.plan": "Protocol stub: matched, never called",
    "serve/client.py::BaseClient.submit": "abstract: every client overrides it",
    "datacutter/filters.py::SourceFilter.generate": "abstract: every source overrides it",
    "datacutter/streams.py::DistributionPolicy.choose": "abstract: every policy overrides it",
    "*.__repr__": "text for debuggers and logs; no code path formats these objects",
    "*.__str__": "text for debuggers and logs; no code path formats these objects",
    "datacutter/recovery/faults.py::FaultInjector.wrap_heartbeat.<locals>.beat":
        "runs only in a worker that its test then kills, so it writes no file",
}

_seen: set = set()


def _hook(frame, event, arg):
    if event == "call":
        _seen.add(frame.f_code)


def _dump(data: Path) -> None:
    sys.setprofile(None)
    codes = list(_seen)  # one C-level copy: other threads may still add
    prefix = str(SRC) + os.sep
    real = {f: os.path.realpath(f) for f in {c.co_filename for c in codes}}
    rows = {
        f"{Path(real[c.co_filename][len(prefix):]).as_posix()}:{c.co_firstlineno}\n"
        for c in codes
        if real[c.co_filename].startswith(prefix)
    }
    data.mkdir(parents=True, exist_ok=True)
    (data / f"{os.getpid()}-{os.urandom(4).hex()}.txt").write_text("".join(sorted(rows)))


def run(data: Path, target: list[str]) -> None:
    real_exit = os._exit

    def exit_after_dump(code):
        _dump(data)
        real_exit(code)

    os._exit = exit_after_dump
    os.register_at_fork(after_in_child=_seen.clear)
    atexit.register(_dump, data)
    threading.setprofile(_hook)
    sys.setprofile(_hook)
    if target[0] == "-m":
        sys.argv = target[1:]
        runpy.run_module(target[1], run_name="__main__", alter_sys=True)
    else:
        sys.argv = list(target)
        sys.path.insert(0, str(Path(target[0]).resolve().parent))
        runpy.run_path(target[0], run_name="__main__")


def defined() -> dict[str, str]:
    """``path:first line`` -> ``path::qualname`` of every function under
    src/repro; the first line is the first decorator's, as in
    ``co_firstlineno``."""
    out: dict[str, str] = {}

    def visit(node, prefix: str, path: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qual = prefix + child.name
                line = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[f"{path}:{line}"] = f"{path}::{qual}"
                visit(child, qual + ".<locals>.", path)
            elif isinstance(child, ast.ClassDef):
                visit(child, prefix + child.name + ".", path)
            else:
                visit(child, prefix, path)

    for file in sorted(SRC.rglob("*.py")):
        path = file.relative_to(SRC).as_posix()
        visit(ast.parse(file.read_text(), str(file)), "", path)
    return out


def report(data: Path) -> int:
    files = list(data.glob("*.txt"))
    if not files:
        sys.exit(f"census: no data under {data}; use 'run' first")
    reached = {line for f in files for line in f.read_text().split()}
    functions = defined()
    unreached = sorted(q for key, q in functions.items() if key not in reached)
    bad = [q for q in unreached if not any(fnmatch.fnmatchcase(q, p) for p in ALLOWED)]
    stale = [p for p in ALLOWED if not any(fnmatch.fnmatchcase(q, p) for q in unreached)]
    print(
        f"census: {len(functions)} functions, {len(functions) - len(unreached)} "
        f"reached by {len(files)} processes, {len(unreached) - len(bad)} allowed"
    )
    for qual in bad:
        print(f"  unreached: {qual}")
    for pattern in stale:
        print(f"  stale allowlist entry: {pattern}")
    return 1 if bad or stale else 0


def main(argv: list[str]) -> int | None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", type=Path, default=ROOT / ".census")
    parser.add_argument("command", choices=("run", "report"))
    parser.add_argument("target", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)
    if args.command == "report":
        return report(args.data)
    if not args.target:
        parser.error("run needs a script or -m MODULE")
    run(args.data, args.target)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
