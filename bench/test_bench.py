"""Tests of the benchmark itself: oracle, generator, tracer and entry point.

Run with `python3 -m pytest bench/test_bench.py` from the repository root.
"""

from __future__ import annotations

import filecmp
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import gen  # noqa: E402
import oracle  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402


def _issue(workdir, requests, kinds=None):
    """Send requests through the real handler; yields (request, result)."""
    import skkinv.cli as cli

    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for req in requests:
            if kinds is None or req["kind"] in kinds:
                yield req, cli.run(req["argv"] + ["--json"])
    finally:
        os.chdir(cwd)


def _requests(workdir):
    return [json.loads(line) for line in (workdir / gen.REQUESTS).read_text().splitlines()]


@pytest.fixture(scope="module", params=gen.WORKLOADS)
def deck(request, tmp_path_factory):
    workdir = tmp_path_factory.mktemp(request.param)
    gen.write_inputs(str(workdir), request.param, seed=11, decks=1)
    return workdir, _requests(workdir)


def test_every_request_of_a_deck_passes_the_oracle(deck):
    workdir, requests = deck
    for req, result in _issue(workdir, requests):
        assert oracle.check(req["expect"], result.exit_code, result.report) is None, req["argv"]


def _tamper(doc: dict) -> dict:
    """Change the one field each check relies on."""
    doc = json.loads(json.dumps(doc))
    if "betti" in doc:
        doc["betti"][0] += 1
    elif "chi" in doc and "closed" in doc:
        doc["chi"] += 2
    elif doc.get("command") == "skk class":
        doc["value"] = doc["value"] + 1 if isinstance(doc["value"], int) else [9, 9]
    elif "components" in doc:
        doc["components"][0]["out"] = doc["components"][0]["out"] + [99]
    elif doc.get("command") == "cob eval":
        doc["value"] = "exp(1/7)" if doc["value"] != "exp(1/7)" else "1"
    elif "checks" in doc:
        doc["checks"][1]["passed"] = not doc["checks"][1]["passed"]
    elif "trace" in doc:
        doc["trace"][-1]["chi"] += 2
    elif "values" in doc:
        doc["values"]["D8"] = doc["values"]["CP4_minus_D8"]
    else:
        raise AssertionError(f"no tampering rule for {doc}")
    return doc


def test_oracle_rejects_tampered_responses(deck):
    workdir, requests = deck
    cheap = {"genus_hom_mod2", "genus_invariants", "genus_class", "rp2_hom", "sphere_hom",
             "sphere_invariants", "short_nf", "short_nf1", "short_eval", "nf", "eval",
             "closed_eval", "verify_corrupt", "cutpaste", "class", "demo",
             "verify_sequence", "verify_sequence_corrupt", "not_closed", "bad_word",
             "bad_script"}
    checked = 0
    for req, result in _issue(workdir, requests, cheap):
        expect = req["expect"]
        assert oracle.check(expect, result.exit_code, result.report) is None
        wrong_exit = {0: 1, 1: 0, 2: 0}[result.exit_code]
        assert oracle.check(expect, wrong_exit, result.report) is not None
        if expect["check"] != "exit":
            tampered = json.dumps(_tamper(json.loads(result.report)))
            assert oracle.check(expect, result.exit_code, tampered) is not None, req["argv"]
            assert oracle.check(expect, result.exit_code, "not json") is not None
            garbled = json.dumps({key: [None] if key != "schema" else value
                                  for key, value in json.loads(result.report).items()})
            assert oracle.check(expect, result.exit_code, garbled) is not None
        checked += 1
    assert checked >= 10


@pytest.mark.parametrize("workload", gen.WORKLOADS)
def test_same_seed_gives_byte_identical_inputs(tmp_path, workload):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    gen.write_inputs(str(a), workload, seed=5, decks=2)
    gen.write_inputs(str(b), workload, seed=5, decks=2)
    gen.write_inputs(str(c), workload, seed=6, decks=2)
    names = sorted(os.listdir(a))
    assert names == sorted(os.listdir(b))
    match, mismatch, errors = filecmp.cmpfiles(a, b, names, shallow=False)
    assert mismatch == [] and errors == [] and match == names
    assert (a / gen.REQUESTS).read_bytes() != (c / gen.REQUESTS).read_bytes()


def test_decks_keep_their_mix_across_seeds():
    kinds = [sorted(r["kind"] for r in gen.generate("complexes", seed, decks=1)[0])
             for seed in (1, 2)]
    assert kinds[0] == kinds[1]


def _traced_references():
    """Every (owner, name) in skkinv bound to a traced function, with its value."""
    import importlib

    import skkinv.cli  # noqa: F401  (loads every layer module)

    originals = []
    for mod_name, functions in LAYERS.items():
        module = importlib.import_module(f"skkinv.{mod_name}")
        for qualified in functions:
            if "." in qualified:
                cls_name, attr = qualified.split(".")
                owner = getattr(module, cls_name)
                originals.append(owner.__dict__[attr])
            else:
                originals.append(getattr(module, qualified))
    refs = []
    for name, module in sorted(sys.modules.items()):
        if name == "skkinv" or name.startswith("skkinv."):
            for attr, value in vars(module).items():
                if any(value is fn for fn in originals):
                    refs.append((module, attr, value))
    from skkinv.simplicial import SimplicialComplex
    refs.append((SimplicialComplex, "simplices", SimplicialComplex.__dict__["simplices"]))
    return refs


def test_tracer_wraps_then_restores_every_reference(tmp_path):
    import skkinv.cli as cli

    refs = _traced_references()
    aliases = {(owner.__name__, attr) for owner, attr, _ in refs}
    # names under which callers reach the layers, not only the defining modules
    assert ("skkinv.simplicial", "smith_normal_form") in aliases
    assert ("skkinv.skk", "complex_signature") in aliases
    assert ("skkinv.tqft", "normal_form") in aliases

    gen.write_inputs(str(tmp_path), "complexes", seed=3, decks=1)
    requests = _requests(tmp_path)
    req = next(r for r in requests if r["kind"] == "genus_hom_z")
    tracer = Tracer()
    with tracer:
        for owner, attr, original in refs:
            assert vars(owner)[attr] is not original, (owner, attr)
        tracer.request_id = 0
        cwd = os.getcwd()
        os.chdir(tmp_path)
        try:
            result = cli.run(req["argv"] + ["--json"])
        finally:
            os.chdir(cwd)
    assert oracle.check(req["expect"], result.exit_code, result.report) is None
    for owner, attr, original in refs:
        assert vars(owner)[attr] is original, (owner, attr)
    assert tracer.restored()

    summary = tracer.summary()
    assert summary["cli.run"]["calls"] == 1
    assert summary["simplicial.homology"]["calls"] == 1
    assert summary["exact_linalg.smith_normal_form"]["calls"] == 2
    assert summary["exact_linalg.smith_normal_form"]["entries"] > 0
    spans = tmp_path / "spans.tsv"
    count = tracer.write_spans(str(spans))
    lines = spans.read_text().splitlines()
    assert len(lines) == count + 1
    rows = [line.split("\t") for line in lines[1:]]
    by_index = {row[1]: row for row in rows}
    homology = next(row for row in rows if row[3] == "simplicial.homology")
    assert by_index[homology[2]][3] == "cli.run"
    assert all(row[0] == "0" and int(row[5]) >= int(row[4]) for row in rows)


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "words", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
