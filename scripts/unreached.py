"""List the `src/skkinv` functions that no command of a fixed request set calls.

    python scripts/unreached.py

Under `sys.setprofile`, in-process through `skkinv.cli.run`, this runs:

- every golden request of `tests/test_golden_reports.py` (`ARGV`), plain and
  with `--json`;
- the seed-7 deck of each benchmark workload (`gen.generate(W, 7, decks=1)`
  from `bench/gen.py`, read only), plain and with `--json`;
- `selftest --seed 0` and `selftest --seed 1`.

The decks are generated with the profiler off, because `bench/gen.py` itself
calls into `skkinv` to build inputs. It then prints `module qualname lines`
for each function defined in `src/skkinv` that was never called, and a total.
A function's lines run from its first decorator to its last line; code
objects are matched by that first line too, which is where a decorated
function's code starts. Lambdas and comprehensions are not listed.
"""

from __future__ import annotations

import ast
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "skkinv"
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench"), str(ROOT / "tests")]

called: set = set()


def _record(frame, event, arg):
    if event == "call":
        called.add(frame.f_code)


def defs(node, prefix=""):
    """(qualname, first line, last line) of every def under an AST node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            name = prefix + child.name
            yield name, min([child.lineno] + [d.lineno for d in child.decorator_list]), child.end_lineno
            yield from defs(child, name + ".<locals>.")
        elif isinstance(child, ast.ClassDef):
            yield from defs(child, prefix + child.name + ".")
        else:
            yield from defs(child, prefix)


def main() -> int:
    sys.setprofile(_record)
    from skkinv.cli import run
    sys.setprofile(None)

    import gen
    import test_golden_reports as golden

    decks = [gen.generate(w, 7, decks=1) for w in gen.WORKLOADS]
    home = os.getcwd()
    sys.setprofile(_record)
    try:
        with tempfile.TemporaryDirectory() as scratch:
            golden._observe(golden.ARGV, Path(scratch))
        for requests, files in decks:
            with tempfile.TemporaryDirectory() as scratch:
                for name, text in files.items():
                    Path(scratch, name).write_text(text, encoding="utf-8")
                os.chdir(scratch)
                for req in requests:
                    run(req["argv"])
                    run(req["argv"] + ["--json"])
                os.chdir(home)
        for seed in ("0", "1"):
            run(["selftest", "--seed", seed])
    finally:
        sys.setprofile(None)
        os.chdir(home)

    reached = {(str(Path(c.co_filename).resolve()), c.co_firstlineno) for c in called}
    unreached = [(path.stem, name, last - first + 1)
                 for path in sorted(PACKAGE.glob("*.py"))
                 for name, first, last in defs(ast.parse(path.read_text(encoding="utf-8")))
                 if (str(path), first) not in reached]
    for module, qualname, lines in unreached:
        print(module, qualname, lines)
    print(f"total {len(unreached)} functions, {sum(v[2] for v in unreached)} lines")
    return 0


if __name__ == "__main__":
    sys.exit(main())
