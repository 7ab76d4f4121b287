"""Report bytes of a fixed list of requests, pinned against a recorded file.

`golden_reports.json` holds, per request, the exit code, the plain report and
the `--json` report. Arguments are templates: `{root}` is the repository root
and `{scripts}` a directory holding the cut/paste scripts in `SCRIPTS`.

Regenerate the file (only when a report is meant to change) with

    PYTHONPATH=src python tests/test_golden_reports.py
"""

import json
from pathlib import Path

from skkinv.cli import run

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).with_name("golden_reports.json")

SCRIPTS = {
    "bad_matching.cutpaste": "paste 99~1 2~2\n",
    "missing_circle.cutpaste": "paste 0~99\n",
    "twice.cutpaste": "paste 0~1 1~2\n",
    "handles.cutpaste": "cut 0 nonsep\ncut 0 sep 1 0,3\npaste 4~5 6~1\npaste 2~3\n",
    "clusters.cutpaste": "paste 0~3 4~6\ncut 0 sep 0 -\npaste 1~2\n",
}

_FIX = "{root}/fixtures/"
_COMPLEXES = ("circle", "sphere2", "torus7", "projective_plane6", "sphere3", "sphere4", "cp2_9")

# 200 layers in dimension 1: each acap either closes into a circle at the next
# acup or carries a through-strand on a zigzag
_LONG_DIM1 = " ; ".join(["pid | acap | pid", "pid | acup | pid",
                         "acap | pid | pid", "pid | acup | pid"] * 50)

ARGV = (
    [["homology", _FIX + f"{name}.json", "--coefficients", coefficients]
     for name in ("circle", "torus7", "projective_plane6", "sphere3", "cp2_9")
     for coefficients in ("integers", "rationals", "mod2")]
    + [["homology", _FIX + f"{name}.json"] for name in ("sphere2", "sphere4")]
    + [["invariants", _FIX + f"{name}.json"] for name in _COMPLEXES]
    + [["skk", "class", _FIX + f"{name}.json"]
       for name in ("circle", "sphere2", "torus7", "sphere4", "cp2_9")]
    + [["skk", "class", "--surface", expr]
       for expr in ("g1b0 + g2b0", "g2b0", "g0b3", "G3B0+g0b0")]
    + [["cutpaste", _FIX + "torus_roundtrip.cutpaste", "--start", "g1b0"],
       ["cutpaste", "{scripts}/bad_matching.cutpaste", "--start", "g0b3"],
       ["cutpaste", "{scripts}/missing_circle.cutpaste", "--start", "g0b3"],
       ["cutpaste", "{scripts}/twice.cutpaste", "--start", "g0b3"],
       ["cutpaste", "{scripts}/handles.cutpaste", "--start", "g2b1 + g0b2"],
       ["cutpaste", "{scripts}/clusters.cutpaste", "--start", "g0b2 + g1b2 + g0b1 + g2b2"]]
    + [["cob", "normal-form", "copants ; pants"],
       ["cob", "normal-form", "cap | cap ; swap ; pants"],
       ["cob", "normal-form", "cap ; copants ; swap ; id | copants ; id | pants ; pants ; cup"],
       ["cob", "normal-form", "acap ; pid | acap | pid ; acup | acup", "--dim", "1"],
       ["cob", "normal-form", "pid | pid ; acup", "--dim", "1"],
       ["cob", "normal-form", "cap ; pants"],
       ["cob", "normal-form", "cap ; capp"],
       ["cob", "normal-form", _LONG_DIM1, "--dim", "1"],
       ["cob", "normal-form", "cap ; copants ; pid | id"],
       ["cob", "normal-form", "acap ; pid | pid ; id", "--dim", "1"],
       ["cob", "eval", "cap ; cup", "--cap", "2", "--cup", "3"],
       ["cob", "eval", "cap ; copants ; pants ; cup", "--cap=-3/2", "--cup", "5/7"],
       ["cob", "eval", "cap | cap ; pants ; cup", "--cap-exp", "1/2", "--cup-exp=-3"],
       ["cob", "eval", "cap ; cup", "--cap", "0", "--cup", "2"],
       ["cob", "eval", "cap | id ; pants ; copants ; pants", "--cap=-3/2", "--cup", "5/7"]]
    + [["tqft", "verify", "--cap", "2", "--cup", "1/2", "--seed", "0", "--budget", "12"],
       ["tqft", "verify", "--cap-exp", "1", "--cup-exp=-2/3", "--seed", "3", "--budget", "12"],
       ["tqft", "verify", "--cap", "2", "--cup", "3", "--budget", "12", "--corrupt"],
       ["tqft", "verify", "--cap", "2", "--cup", "3", "--budget", "0"],
       ["tqft", "verify", "--cap-exp=7", "--cup-exp=-9/5", "--seed", "761527", "--budget", "100",
        "--corrupt"],
       ["tqft", "verify", "--cap=-3", "--cup=7/4", "--budget", "100"]]
    + [["tqft", "verify", *scalars, "--seed", "5", "--budget", "300", *corrupt]
       for scalars in (["--cap=-5/3", "--cup", "7"], ["--cap-exp", "2/3", "--cup-exp=-4"])
       for corrupt in ([], ["--corrupt"])]
    + [["skk", "verify-sequence", "--grid", "1", "--seed", "0"],
       ["skk", "verify-sequence", "--grid", "1", "--seed", "2", "--corrupt-splitting"],
       ["skk", "verify-sequence", "--grid", "0"],
       ["skk", "verify-sequence", "--grid", "6", "--corrupt-splitting"]]
    + [["skk", "demo-bsigma"],
       ["skk", "demo-bsigma", "--catalog", _FIX + "catalog_dim8.json"]]
    + [["selftest", "--seed", seed] for seed in ("0", "1")]
)


def _observe(argv_templates, tmp_path):
    for name, text in SCRIPTS.items():
        (tmp_path / name).write_text(text)
    entries = []
    for template in argv_templates:
        argv = [a.format(root=ROOT, scripts=tmp_path) for a in template]
        plain, as_json = run(argv), run(argv + ["--json"])
        entries.append({"argv": template, "exit_code": plain.exit_code,
                        "report": plain.report, "json_exit_code": as_json.exit_code,
                        "json_report": as_json.report})
    return entries


def test_reports_match_the_recorded_bytes(tmp_path):
    recorded = json.loads(GOLDEN.read_text(encoding="utf-8"))
    assert [entry["argv"] for entry in recorded] == ARGV
    observed = _observe(ARGV, tmp_path)
    mismatched = [" ".join(want["argv"]) for want, got in zip(recorded, observed) if want != got]
    assert mismatched == []


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        entries = _observe(ARGV, Path(scratch))
    GOLDEN.write_text(json.dumps(entries, indent=1, ensure_ascii=False) + "\n", encoding="utf-8")
