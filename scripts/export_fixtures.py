#!/usr/bin/env python3
"""Write the complex fixtures and a sample cut/paste script as files under
fixtures/ for command-line use. fixtures/catalog_dim8.json is a static file,
checked against `dim8_catalog()` by the tests."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from skkinv import fixtures
from skkinv.simplicial import complex_to_json

SAMPLE_SCRIPT = """\
# cut the torus open along a non-separating curve, then close it again
cut 0 nonsep
paste 0~1
"""


def main():
    out = ROOT / "fixtures"
    out.mkdir(exist_ok=True)
    for name, factory in fixtures.FIXTURES.items():
        (out / f"{name}.json").write_text(complex_to_json(factory()) + "\n")
        print(f"wrote fixtures/{name}.json")
    (out / "torus_roundtrip.cutpaste").write_text(SAMPLE_SCRIPT)
    print("wrote fixtures/torus_roundtrip.cutpaste")


if __name__ == "__main__":
    main()
