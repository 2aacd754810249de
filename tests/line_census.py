"""Line census of src/roughfilter: which code lines a run executes, and
which it never does; and how many lines of each kind a module has.

pytest does not collect this module (its name does not start with test_).
Four ways to run it, from the root of the repository:

  python3 tests/line_census.py workloads [--seed 4242] [--hits FILE]
      one cycle of each benchmark workload of bench/workloads.py (set-up,
      warm-up and every unit of the cycle's rounds), then the report
  PYTHONPATH=src:tests python3 -m pytest -q -p line_census
      the test suite as a pytest plugin; the report is printed at the end,
      and the hits go to $LINE_CENSUS_OUT if that is set
  python3 tests/line_census.py report FILE [FILE ...]
      the report for the union of hit files written by the other two
  python3 tests/line_census.py lines [REV [REV]]
      code, docstring, comment and blank lines per module of the working
      tree, or of git revision REV (read by `git show REV:path`); with two
      revisions, the counts of both and the change from the first

A line counts as docstring when it lies in the docstring of a module, class
or function (ast; blank lines inside it too), as comment when it holds only
a comment (tokenize), as blank when it is empty elsewhere, and as code
otherwise.

Tracing starts before roughfilter is imported, so module-level lines count
as run. A code line is a line number that the compiled module attributes
to an instruction (co_lines of the module and every nested code object),
less blank, comment and docstring lines. The report lists each code line no
traced frame ever reached, as path:line: source, and the count per module.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import threading
import tokenize
import types

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "roughfilter")


class LineTracer:
    """Records (file, line) for every line event of a frame whose code lies
    under src/roughfilter; frames elsewhere are not traced line by line."""

    def __init__(self):
        self.hits = {}  # absolute file path -> set of line numbers
        # co_filename -> the local tracer of its file, or None outside
        # PACKAGE; made once per file, so that tracing allocates nothing
        # per call (the suite measures allocations with tracemalloc)
        self._locals = {}

    def _global(self, frame, event, arg):
        name = frame.f_code.co_filename
        if name not in self._locals:
            self._locals[name] = self._local_for(os.path.abspath(name))
        return self._locals[name]

    def _local_for(self, path: str):
        if not path.startswith(PACKAGE + os.sep):
            return None
        lines = self.hits.setdefault(path, set())

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    def start(self):
        threading.settrace(self._global)
        sys.settrace(self._global)

    def stop(self):
        sys.settrace(None)
        threading.settrace(None)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({os.path.relpath(f, ROOT): sorted(v) for f, v in self.hits.items()},
                      fh)


def code_lines(path: str) -> set:
    """The code lines of one module (see the module docstring)."""
    with open(path, encoding="utf-8") as fh:
        src = fh.read()
    lines, stack = set(), [compile(src, path, "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
    for node in ast.walk(ast.parse(src)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            lines -= set(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    text = src.splitlines()
    return {n for n in lines if text[n - 1].strip()
            and not text[n - 1].lstrip().startswith("#")}


KINDS = ("code", "docstring", "comment", "blank")


def line_kinds(src: str) -> dict:
    """The number of lines of each of KINDS in one module's source."""
    text = src.splitlines()
    doc = set()
    for node in ast.walk(ast.parse(src)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            doc.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    comment = {tok.start[0] for tok in tokenize.generate_tokens(io.StringIO(src).readline)
               if tok.type == tokenize.COMMENT
               and not text[tok.start[0] - 1][:tok.start[1]].strip()}
    counts = dict.fromkeys(KINDS, 0)
    for n, line in enumerate(text, 1):
        kind = ("docstring" if n in doc else "comment" if n in comment
                else "code" if line.strip() else "blank")
        counts[kind] += 1
    return counts


def module_sources(rev: str = None) -> dict:
    """Module file name -> source of src/roughfilter, in the working tree
    or at git revision rev."""
    if rev is None:
        return {name: pathlib.Path(PACKAGE, name).read_text(encoding="utf-8")
                for name in sorted(os.listdir(PACKAGE)) if name.endswith(".py")}
    listing = subprocess.run(["git", "ls-tree", "--name-only", f"{rev}:src/roughfilter"],
                             cwd=ROOT, check=True, capture_output=True, text=True).stdout
    return {name: subprocess.run(["git", "show", f"{rev}:src/roughfilter/{name}"],
                                 cwd=ROOT, check=True, capture_output=True,
                                 text=True).stdout
            for name in sorted(listing.split()) if name.endswith(".py")}


def lines_report(revs) -> None:
    """Print the line kinds of each module and the total, for the working
    tree or one revision; for two, both counts and the change."""
    tables = [{name: line_kinds(src) for name, src in module_sources(rev).items()}
              for rev in (revs or [None])]
    names = sorted(set().union(*tables))
    labels = list(revs) if revs else ["working tree"]
    print("# " + " -> ".join(labels))
    print(f"{'module':<16}" + "".join(f"{k:>22}" for k in KINDS + ("total",)))
    zero = dict.fromkeys(KINDS, 0)
    for name in names + ["total"]:
        rows = [{k: sum(t[n][k] for n in t) for k in KINDS} if name == "total"
                else t.get(name, zero) for t in tables]
        cells = []
        for k in KINDS + ("total",):
            vals = [sum(r.values()) if k == "total" else r[k] for r in rows]
            cell = " -> ".join(str(v) for v in vals)
            if len(vals) == 2:
                cell += f" ({vals[1] - vals[0]:+d})"
            cells.append(f"{cell:>22}")
        print(f"{name:<16}" + "".join(cells))


def report(hits: dict) -> None:
    """Print the never-run code lines of every module and their count."""
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        missed = sorted(code_lines(path) - set(hits.get(path, ())))
        with open(path, encoding="utf-8") as fh:
            text = fh.read().splitlines()
        for n in missed:
            print(f"{os.path.relpath(path, ROOT)}:{n}: {text[n - 1].strip()}")
        print(f"# {name}: {len(missed)} code lines never run")
        total += len(missed)
    print(f"# total: {total} code lines never run")


def run_workloads(seed: int) -> LineTracer:
    """The tracer of one cycle of each benchmark workload at `seed`."""
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "bench")]
    tracer = LineTracer()
    tracer.start()
    try:
        import workloads

        for name in workloads.WORKLOADS:
            with tempfile.TemporaryDirectory() as workdir:
                wl = workloads.make(name, seed, False, workdir)
                try:
                    wl.setup()
                    wl.warmup()
                    for r in range(wl.cycle):
                        for unit in wl.round(r):
                            unit.check(unit.call())
                finally:
                    wl.close()
    finally:
        tracer.stop()
    return tracer


# -- pytest plugin (-p line_census) -------------------------------------------

_PLUGIN_TRACER = LineTracer()


def pytest_configure(config):
    _PLUGIN_TRACER.start()


def pytest_unconfigure(config):
    _PLUGIN_TRACER.stop()
    if os.environ.get("LINE_CENSUS_OUT"):
        _PLUGIN_TRACER.dump(os.environ["LINE_CENSUS_OUT"])
    report(_PLUGIN_TRACER.hits)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = ap.add_subparsers(dest="mode", required=True)
    wl = sub.add_parser("workloads", help="one cycle of each benchmark workload")
    wl.add_argument("--seed", type=int, default=4242)
    wl.add_argument("--hits", help="also write the hits to this JSON file")
    rp = sub.add_parser("report", help="report on hit files")
    rp.add_argument("files", nargs="+")
    ln = sub.add_parser("lines", help="line kinds per module")
    ln.add_argument("revs", nargs="*", metavar="REV", help="git revisions, at most two")
    args = ap.parse_args(argv)
    if args.mode == "lines":
        if len(args.revs) > 2:
            ap.error("lines takes at most two revisions")
        lines_report(args.revs)
        return 0
    if args.mode == "workloads":
        tracer = run_workloads(args.seed)
        if args.hits:
            tracer.dump(args.hits)
        hits = tracer.hits
    else:
        hits = {}
        for name in args.files:
            with open(name, encoding="utf-8") as fh:
                for path, lines in json.load(fh).items():
                    hits.setdefault(os.path.join(ROOT, path), set()).update(lines)
    report(hits)
    return 0


if __name__ == "__main__":
    sys.exit(main())
