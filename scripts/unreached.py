"""Gate the `src/skkinv` functions that no command of a fixed request set calls.

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

Every function allowed to stay unreached is in `KEPT` with the reason it
stays. The script exits 1 when an unreached function is missing from `KEPT`
(new dead code: delete it, or give it a reason) or when a `KEPT` entry was
reached or no longer exists (drop the entry), and 0 otherwise.
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

_TRACER = "bench/tracer.py resolves it by getattr"
_SCRIPTS = "scripts/ or the CI fixture step use it"
_GROUP = "the scalar and TQFT group law"
_BUILDER = "a test builder; moving it into tests/ would not make the code smaller"

# (module, qualname) -> why the function stays although no request calls it
KEPT = {
    ("cli", "main"): "the console-script entry point",
    ("cli", "_help"): "--help, which no golden or deck request asks for; README runs it",
    ("exact_linalg", "IntMatrix.from_rows"): _BUILDER,
    ("exact_linalg", "IntMatrix.to_rows"): _BUILDER,
    ("exact_linalg", "rational_rank"): _TRACER,
    ("fixtures", "circle"): _SCRIPTS,
    ("fixtures", "projective_plane6"): _SCRIPTS,
    ("simplicial", "SimplicialComplex.vertices"): _BUILDER,
    ("simplicial", "SimplicialComplex.simplices"): _TRACER,
    ("simplicial", "SimplicialComplex.reversed_orientation"): _SCRIPTS,
    ("simplicial", "boundary_matrix"): _TRACER,
    ("simplicial", "disjoint_union"): _BUILDER,
    ("simplicial", "complex_to_json"): _SCRIPTS,
    ("surfaces", "Surface.as_multiset"): "the tests' oracle for surface normal forms",
    ("tqft", "RationalScalar.inverse"): _GROUP,
    ("tqft", "RationalScalar.abs_value"): _GROUP,
    ("tqft", "ExpScalar.inverse"): _GROUP,
    ("tqft", "InvertibleTQFT2.inverse"): _GROUP,
}


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
    names = {(module, qualname) for module, qualname, _ in unreached}
    unkept = sorted(names - KEPT.keys())
    stale = sorted(KEPT.keys() - names)
    for module, qualname in unkept:
        print(f"unreached and not in KEPT: {module} {qualname}", file=sys.stderr)
    for module, qualname in stale:
        print(f"in KEPT but reached or gone: {module} {qualname}", file=sys.stderr)
    return 1 if unkept or stale else 0


if __name__ == "__main__":
    sys.exit(main())
