"""Print one digest per request of a benchmark deck, to compare report bytes
between two source trees.

    python scripts/deck_reports.py WORKLOAD SEED...

For each seed, the requests of `gen.generate(WORKLOAD, seed, decks=1)` from
`bench/gen.py` are run in-process through `skkinv.cli.run`, once plain and
once with `--json`, in a scratch directory holding the deck's input files.
Each request prints one line: the seed, its index in the deck, its kind, the
two exit codes and a SHA-256 digest of the exit codes and both reports. The
package is imported from the `src/` of the tree this script sits in, so the
outputs of two trees are byte-identical exactly when every report is:

    diff <(python OLD/scripts/deck_reports.py words 3 7 19) \\
         <(python NEW/scripts/deck_reports.py words 3 7 19)
"""

from __future__ import annotations

import argparse
import hashlib
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen  # noqa: E402  (bench/gen.py, read only)
from skkinv.cli import run  # noqa: E402


def digest(argv) -> tuple[int, int, str]:
    plain, as_json = run(argv), run(argv + ["--json"])
    h = hashlib.sha256()
    for part in (str(plain.exit_code), plain.report, str(as_json.exit_code), as_json.report):
        h.update(part.encode("utf-8"))
        h.update(b"\0")
    return plain.exit_code, as_json.exit_code, h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=gen.WORKLOADS)
    parser.add_argument("seeds", type=int, nargs="+")
    args = parser.parse_args(argv)
    home = os.getcwd()
    for seed in args.seeds:
        requests, files = gen.generate(args.workload, seed, decks=1)
        with tempfile.TemporaryDirectory() as scratch:
            for name, text in files.items():
                Path(scratch, name).write_text(text, encoding="utf-8")
            os.chdir(scratch)
            try:
                for i, req in enumerate(requests):
                    code, json_code, hexdigest = digest(req["argv"])
                    print(f"{seed} {i} {req['kind']} {code} {json_code} {hexdigest}")
            finally:
                os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
