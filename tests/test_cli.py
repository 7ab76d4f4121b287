"""Command-line interface: subcommands, exit codes, and report formats."""

import ast
import itertools
import json
import os
import runpy
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from skkinv import fixtures
from skkinv.cli import (
    COMMANDS,
    MAX_SURFACE_CIRCLES,
    MAX_SURFACE_COMPONENTS,
    MAX_TRACE_WEIGHT,
    TRACE_COMPONENT_WEIGHT,
    _parse,
    run,
)
from skkinv.rationals import int_text
from skkinv.skk import MAX_GRID
from skkinv.tqft import MAX_BUDGET, MAX_BUDGET_BITS, MAX_SCALAR_BITS
from skkinv.simplicial import SimplicialComplex, complex_to_json

ROOT = Path(__file__).resolve().parent.parent
FIXTURES_DIR = ROOT / "fixtures"
TESTS_DIR = ROOT / "tests"


@pytest.fixture
def cp2_file(tmp_path):
    path = tmp_path / "cp2.json"
    path.write_text(complex_to_json(fixtures.cp2_9()))
    return str(path)


@pytest.fixture
def torus_file(tmp_path):
    path = tmp_path / "torus.json"
    path.write_text(complex_to_json(fixtures.torus7()))
    return str(path)


class TestHomologyCommand:
    def test_betti_output(self, torus_file):
        result = run(["homology", torus_file])
        assert result.exit_code == 0
        assert "[1, 2, 1]" in result.report

    def test_json_report(self, torus_file):
        result = run(["homology", torus_file, "--json"])
        doc = json.loads(result.report)
        assert doc["schema"] == 1
        assert doc["betti"] == [1, 2, 1]

    def test_missing_file(self):
        result = run(["homology", "/no/such/file.json"])
        assert result.exit_code == 2

    def test_malformed_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"dim": 2, "facets": [[0,1,2]], "shiny": true}')
        result = run(["homology", str(path)])
        assert result.exit_code == 2
        assert "shiny" in result.report


class TestInvariantsCommand:
    def test_cp2(self, cp2_file):
        result = run(["invariants", cp2_file])
        assert result.exit_code == 0
        assert "chi = 3" in result.report
        assert "sigma = 1" in result.report

    @pytest.mark.parametrize("command", [["invariants"], ["skk", "class"]])
    def test_inconsistent_orientation_is_input_error(self, tmp_path, command):
        K = fixtures.cp2_9()
        path = tmp_path / "cp2_all_plus.json"
        path.write_text(complex_to_json(SimplicialComplex(4, K.facets, (1,) * len(K.facets))))
        result = run(command + [str(path)])
        assert result.exit_code == 2
        assert "orientation" in result.report

    def test_unoriented_cp2_enumerates_the_closure_once(self, tmp_path, monkeypatch):
        # chi, closedness, orientation and the intersection form all read one face index
        import skkinv.simplicial

        K = fixtures.cp2_9()
        path = tmp_path / "cp2_unoriented.json"
        path.write_text(complex_to_json(SimplicialComplex(4, K.facets)))
        built = []
        real = skkinv.simplicial.FaceIndex

        def counting(*args):
            built.append(args)
            return real(*args)

        monkeypatch.setattr(skkinv.simplicial, "FaceIndex", counting)
        result = run(["invariants", str(path)])
        assert result.exit_code == 0
        assert "sigma = 1" in result.report or "sigma = -1" in result.report
        assert len(built) == 1

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    @pytest.mark.parametrize("command", [["homology"], ["invariants"], ["skk", "class"]])
    @pytest.mark.parametrize("signs", [[1], [1, -1, 1, -1, 1]])
    def test_orientation_count_mismatch_is_input_error(self, tmp_path, command, json_flag,
                                                        signs):
        # the four facets of the boundary of the 3-simplex with one sign, or five
        path = tmp_path / "sphere2_signs.json"
        path.write_text(json.dumps({"dim": 2, "facets": [list(f) for f in
                                                          fixtures.sphere2().facets],
                                    "orientations": signs}))
        result = run(command + [str(path)] + json_flag)
        assert (result.exit_code, result.report) == (
            2, "error: orientation count does not match facet count")

    def test_boolean_dimension_is_input_error(self, tmp_path):
        path = tmp_path / "bool_dim.json"
        path.write_text('{"dim": true, "facets": [[0, 1], [1, 2], [0, 2]]}')
        assert run(["invariants", str(path)]).exit_code == 2


def _sphere_copies(copies):
    """Disjoint copies of the boundary of the 5-simplex, as a complex document."""
    facets = []
    for c in range(copies):
        vertices = range(6 * c, 6 * c + 6)
        facets += [[v for v in vertices if v != omit] for omit in vertices]
    return json.dumps({"dim": 4, "facets": facets})


class TestLargestAcceptedDocuments:
    def test_simplex16_reduces_to_nothing(self, monkeypatch):
        import skkinv.simplicial as simplicial

        shapes = []
        real = simplicial.smith_normal_form

        def recording(A):
            shapes.append((A.rows, A.cols))
            return real(A)

        monkeypatch.setattr(simplicial, "smith_normal_form", recording)
        result = run(["homology", str(FIXTURES_DIR / "simplex16.json"), "--json"])
        assert result.exit_code == 0
        doc = json.loads(result.report)
        assert doc["betti"] == [1] + [0] * 16
        assert doc["torsion"] == [[]] * 17
        # every cell is removed by the reduction: Smith sees 16 empty matrices
        assert shapes == [(0, 0)] * 16

    def test_682_four_spheres(self, tmp_path):
        # 682 copies of the boundary of the 5-simplex: the closure bound is full
        path = tmp_path / "spheres.json"
        path.write_text(_sphere_copies(682))
        result = run(["homology", str(path), "--json"])
        assert result.exit_code == 0
        assert json.loads(result.report)["betti"] == [682, 0, 0, 0, 682]
        result = run(["invariants", str(path), "--json"])
        assert result.exit_code == 0
        doc = json.loads(result.report)
        assert (doc["chi"], doc["kervaire_semicharacteristic"], doc["sigma"]) == (1364, 682, 0)
        path.write_text(_sphere_copies(683))
        assert run(["homology", str(path)]).exit_code == 2


class TestCutpasteCommand:
    def test_script_run(self, tmp_path):
        script = tmp_path / "moves.txt"
        script.write_text("cut 0 nonsep\npaste 0~1\n")
        result = run(["cutpaste", str(script), "--start", "g1b0"])
        assert result.exit_code == 0
        assert "chi 0" in result.report

    def test_bad_move_is_input_error(self, tmp_path):
        script = tmp_path / "moves.txt"
        script.write_text("cut 0 nonsep\n")
        result = run(["cutpaste", str(script), "--start", "g0b0"])
        assert result.exit_code == 2

    def test_bad_surface_expression(self, tmp_path):
        script = tmp_path / "moves.txt"
        script.write_text("cut 0 nonsep\n")
        result = run(["cutpaste", str(script), "--start", "torus"])
        assert result.exit_code == 2

    def test_trace_size_is_bounded_at_the_start(self, tmp_path):
        script = tmp_path / "empty.txt"
        script.write_text("")
        # k spheres and one more component with r circles weigh the bound exactly
        k, r = divmod(MAX_TRACE_WEIGHT, TRACE_COMPONENT_WEIGHT)
        spheres = "g0b0 + " * (k - 1)
        at_bound = run(["cutpaste", str(script), "--start", f"{spheres}g0b{r}", "--json"])
        assert at_bound.exit_code == 0
        over = run(["cutpaste", str(script), "--start", f"{spheres}g0b{r + 1}", "--json"])
        assert (over.exit_code, over.report) == (
            2, f"error: a cut/paste trace may weigh at most {MAX_TRACE_WEIGHT} in all,"
               f" {TRACE_COMPONENT_WEIGHT} per component and 1 per boundary circle;"
               " this script passes it after 0 of its 0 moves")

    def test_start_terms_are_bounded_before_parsing(self, tmp_path, capsys):
        script = tmp_path / "empty.txt"
        script.write_text("")
        at_bound = run(["cutpaste", str(script), "--start",
                        " + ".join(["g0b0"] * MAX_SURFACE_COMPONENTS), "--json"])
        assert at_bound.exit_code == 0
        capsys.readouterr()
        # one term more is refused before any term is parsed, bad ones included
        for term in ("g0b0", "torus"):
            over = run(["cutpaste", str(script), "--start",
                        " + ".join([term] * (MAX_SURFACE_COMPONENTS + 1))])
            assert (over.exit_code, over.report) == (2, "")
            assert (f"a surface expression may have at most {MAX_SURFACE_COMPONENTS} terms"
                    in capsys.readouterr().err)

    def test_trace_size_is_bounded_as_cuts_add_components(self, tmp_path):
        # after k separating cuts of a sphere: k + 1 components and 2k circles
        def weight(n):
            return sum(TRACE_COMPONENT_WEIGHT * (k + 1) + 2 * k for k in range(n + 1))

        n = max(n for n in range(1000) if weight(n) <= MAX_TRACE_WEIGHT)
        script = tmp_path / "cuts.txt"
        script.write_text("cut 0 sep 0 -\n" * n)
        assert run(["cutpaste", str(script), "--start", "g0b0", "--json"]).exit_code == 0
        script.write_text("cut 0 sep 0 -\n" * (n + 1))
        result = run(["cutpaste", str(script), "--start", "g0b0"])
        assert result.exit_code == 2
        assert result.report.endswith(f"passes it after {n + 1} of its {n + 1} moves")

    def test_circle_heavy_trace_is_accepted(self, tmp_path):
        # a circle weighs a sixteenth of a component: 3 x 65534 circles pass
        script = tmp_path / "moves.txt"
        script.write_text("paste 0~1\ncut 0 sep 0 -\n")
        start = time.perf_counter()
        result = run(["cutpaste", str(script), "--start", "g0b65534", "--json"])
        elapsed = time.perf_counter() - start
        assert result.exit_code == 0
        assert [entry["components"] for entry in json.loads(result.report)["trace"]] == [
            [[0, 65534]], [[1, 65532]], [[0, 1], [1, 65533]]]
        assert elapsed < 1.0


class TestCobCommands:
    def test_normal_form(self):
        result = run(["cob", "normal-form", "copants ; pants"])
        assert result.exit_code == 0
        assert "genus 1" in result.report

    def test_eval_rational(self):
        result = run(["cob", "eval", "cap ; cup", "--cap", "2", "--cup", "3"])
        assert result.exit_code == 0
        assert result.report == "6"

    def test_eval_exponential(self):
        result = run(["cob", "eval", "cap ; cup", "--cap-exp", "1", "--cup-exp", "1/2"])
        assert result.report == "exp(3/2)"

    def test_mixed_variants_rejected(self):
        result = run(["cob", "eval", "cap", "--cap", "2", "--cup-exp", "1"])
        assert result.exit_code == 2

    def test_syntax_error_position(self):
        result = run(["cob", "eval", "cap ; cupp", "--cap", "2", "--cup", "3"])
        assert result.exit_code == 2
        assert "character 6" in result.report

    def test_arity_error(self):
        result = run(["cob", "normal-form", "pants ; pants"])
        assert result.exit_code == 2

    def test_eval_prints_answers_beyond_the_digit_limit(self):
        # str(int) refuses more than 4300 digits; the value is 10**4400
        argv = ["cob", "eval", " | ".join(["cap"] * 4400), "--cap", "10", "--cup", "3"]
        result = run(argv)
        assert (result.exit_code, result.report) == (0, "1" + "0" * 4400)
        assert json.loads(run(argv + ["--json"]).report)["value"] == "1" + "0" * 4400

    def test_answer_size_is_bounded_at_the_power_of_two(self):
        # 4096**n = 2**(12n) has 12n + 1 bits: n = 21,845 is the largest
        # accepted answer (78,913 digits); one more cap is refused before its
        # power is taken, as 2**(12(n + 1)) has at least 12(n + 1) + 1 bits
        n = (MAX_SCALAR_BITS - 1) // 12
        argv = ["cob", "eval", " | ".join(["cap"] * n), "--cap", "4096", "--cup", "3"]
        assert run(argv).report == int_text(4096 ** n)
        over = run(["cob", "eval", " | ".join(["cap"] * (n + 1)), "--cap", "4096",
                    "--cup", "3"])
        assert over.exit_code == 2
        assert over.report == (f"error: a power in the answer would have at least"
                               f" {12 * (n + 1) + 1} bits; at most {MAX_SCALAR_BITS} are allowed")

    def test_answer_size_is_the_exact_size_of_the_answer(self):
        # 3**60 has 96 bits, so its k-th power has between 95k + 1 and 96k
        # bits; k = 2757 passes the least size and fails on the exact one
        cap = 3 ** 60
        for k in (2756, 2757):
            assert 95 * k + 1 <= MAX_SCALAR_BITS < 96 * k
        argv = ["cob", "eval", " | ".join(["cap"] * 2756), f"--cap={cap}", "--cup=3"]
        assert run(argv).report == int_text(cap ** 2756)
        over = run(["cob", "eval", " | ".join(["cap"] * 2757), f"--cap={cap}", "--cup=3"])
        assert over.exit_code == 2
        assert over.report == (f"error: the answer has {(cap ** 2757).bit_length()} bits;"
                               f" at most {MAX_SCALAR_BITS} are allowed")

    def test_small_answers_pass_whatever_their_powers(self):
        # powers of -1 have one bit; 2**200000 * 2**-200000 is 1 although
        # the powers together need 400,002 bits
        caps = " | ".join(["cap"] * 140_000)
        assert run(["cob", "eval", caps, "--cap=-1", "--cup=3"]).report == "1"
        word = " | ".join(["cap"] * 1000 + ["cup"] * 1000)
        assert run(["cob", "eval", word, f"--cap={2 ** 200}", f"--cup=1/{2 ** 200}"]).report == "1"

    def test_answer_size_bound_counts_negative_exponents(self):
        def pants(m):  # m pants side by side: the value is cap**-m
            return " | ".join(["pants"] * m)

        # 4096**-m has a 1-bit numerator and a 12m + 1 bit denominator
        n = (MAX_SCALAR_BITS - 2) // 12
        assert run(["cob", "eval", pants(n), "--cap=4096", "--cup=3"]).exit_code == 0
        over = run(["cob", "eval", pants(n + 1), "--cap=4096", "--cup=3", "--json"])
        assert over.exit_code == 2 and "bits" in over.report
        # exponentials carry no such bound: the answer is exp(-(n + 1) * 10**100)
        result = run(["cob", "eval", pants(n + 1), f"--cap-exp={10 ** 100}", "--cup-exp=3"])
        assert result.report == f"exp({-(n + 1) * 10 ** 100})"


class TestTqftVerifyCommand:
    def test_passes(self):
        result = run(["tqft", "verify", "--cap", "2", "--cup", "1/2",
                      "--seed", "3", "--budget", "60"])
        assert result.exit_code == 0

    def test_negative_budget_rejected(self):
        result = run(["tqft", "verify", "--cap", "2", "--cup", "1/2", "--budget", "-5"])
        assert result.exit_code == 2
        assert "budget" in result.report

    def test_budget_beyond_bound_rejected(self):
        for budget in (MAX_BUDGET + 1, 10 ** 9):
            result = run(["tqft", "verify", "--cap", "2", "--cup", "1/2",
                          "--budget", str(budget)])
            assert result.exit_code == 2
            assert result.report == f"error: word budget may be at most {MAX_BUDGET}, got {budget}"

    def test_budget_is_weighed_by_rational_scalar_bits(self):
        # 2**2046 has 2047 bits and 1 has 1, so budget 1024 weighs the bound exactly
        assert MAX_BUDGET_BITS == 2048 * 1024
        scalars = [f"--cap={2 ** 2046}", "--cup=1"]
        at_bound = run(["tqft", "verify", *scalars, "--budget", "1024"])
        assert at_bound.exit_code == 0
        over = run(["tqft", "verify", *scalars, "--budget", "1025", "--json"])
        assert (over.exit_code, over.report) == (
            2, f"error: word budget times the bits of the rational scalars and fractional"
               f" exponents may be at most {MAX_BUDGET_BITS}, got 1025 * 2048")
        # a denominator counts too: 1/2**2046 has 1 + 2047 bits
        over = run(["tqft", "verify", "--cap=1", f"--cup=-1/{2 ** 2046}", "--budget", "1025"])
        assert over.report.endswith("got 1025 * 2049")

    def test_exponential_scalars_are_not_weighed(self):
        # an integral exponent weighs nothing, and -1/3 weighs 1 + 2 bits
        result = run(["tqft", "verify", "--cap-exp=" + "7" * 4000, "--cup-exp=-1/3",
                      "--budget", "300"])
        assert result.exit_code == 0

    def test_budget_is_weighed_by_fractional_exponent_bits(self):
        # 1/2**2046 has 1 + 2047 bits and the integral exponent 5 none, so
        # budget 1024 weighs the bound exactly
        scalars = [f"--cap-exp=1/{2 ** 2046}", "--cup-exp=5"]
        at_bound = run(["tqft", "verify", *scalars, "--budget", "1024"])
        assert at_bound.exit_code == 0
        over = run(["tqft", "verify", *scalars, "--budget", "1025", "--json"])
        assert (over.exit_code, over.report) == (
            2, f"error: word budget times the bits of the rational scalars and fractional"
               f" exponents may be at most {MAX_BUDGET_BITS}, got 1025 * 2048")
        # two exponents with 4000-digit numerators and denominators
        big = "7" * 4000 + "/" + "3" * 3999 + "1"
        over = run(["tqft", "verify", f"--cap-exp={big}", f"--cup-exp=-{big}", "--budget", "3000"])
        assert over.exit_code == 2
        assert over.report.startswith("error: word budget times the bits of the rational scalars"
                                      " and fractional exponents")

    def test_corrupt_flag_finds_violation(self):
        result = run(["tqft", "verify", "--cap", "2", "--cup", "1/2",
                      "--seed", "3", "--budget", "60", "--corrupt"])
        assert result.exit_code == 1
        assert "FAIL" in result.report


class TestSkkCommands:
    def test_class_surface_expression(self):
        result = run(["skk", "class", "--surface", "g1b0 + g2b0"])
        assert result.exit_code == 0
        assert "-1" in result.report

    def test_class_file(self, cp2_file):
        result = run(["skk", "class", cp2_file])
        assert result.exit_code == 0
        assert "(3, 1)" in result.report

    def test_class_refuses_klein_bottle(self, tmp_path):
        """The 4x4 grid, vertex 4i+j, with (4, j) glued to (0, -j mod 4): a
        closed surface of chi 0, as a torus has, but not orientable."""
        from skkinv.simplicial import NotOrientable, homology
        from skkinv.skk import skk_class

        def vertex(i, j):
            return 4 * (i % 4) + (-j if i == 4 else j) % 4

        facets = []
        for i, j in itertools.product(range(4), repeat=2):
            a, b = vertex(i, j), vertex(i + 1, j + 1)
            facets += [(a, vertex(i + 1, j), b), (a, vertex(i, j + 1), b)]
        K = SimplicialComplex.from_facets(2, facets)
        assert homology(K).torsion[1] == (2,)
        with pytest.raises(NotOrientable):
            skk_class(K)
        path = tmp_path / "klein.json"
        path.write_text(complex_to_json(K))
        result = run(["skk", "class", str(path)])
        assert (result.exit_code, result.report) == (
            2, "error: orientation traversal hit a contradiction")

    def test_class_refuses_wedge_of_cp2_and_sphere4(self, tmp_path):
        """CP2 and S4 wedged at a vertex: closed and oriented, Betti numbers
        (1, 0, 1, 0, 2), chi 4 and sigma 1. No closed oriented 4-manifold
        has odd chi - sigma."""
        from skkinv.simplicial import disjoint_union, homology, orient

        union = disjoint_union(fixtures.cp2_9(), orient(fixtures.sphere4()))
        wedge = SimplicialComplex.from_facets(
            4, [tuple(0 if v == 9 else v for v in f) for f in union.facets], union.orientations)
        assert homology(wedge).betti == (1, 0, 1, 0, 2)
        path = tmp_path / "wedge.json"
        path.write_text(complex_to_json(wedge))
        for json_flag in ([], ["--json"]):
            result = run(["skk", "class", str(path), *json_flag])
            assert (result.exit_code, result.report) == (2, "error: chi - sigma = 3 is odd")

    @pytest.mark.parametrize("name, betti", [("torus7", (1, 6, 3)),
                                             ("sphere4", (1, 0, 0, 0, 3))])
    def test_class_refuses_wedge_of_three_copies(self, tmp_path, name, betti):
        """Three copies wedged at one vertex are closed and oriented, and
        their chi - sigma is even, so no parity test refuses them; but their
        facets, joined through codimension-1 faces, form three pieces in one
        component."""
        from skkinv.simplicial import disjoint_union, homology, orient
        from skkinv.skk import NotClosedManifold, skk_class

        K = orient(fixtures.FIXTURES[name]())
        union = disjoint_union(disjoint_union(K, K), K)
        n = len(K.vertices())
        wedge = SimplicialComplex.from_facets(
            K.dim, [tuple(0 if v % n == 0 else v for v in f) for f in union.facets],
            union.orientations)
        assert homology(wedge).betti == betti
        with pytest.raises(NotClosedManifold):
            skk_class(wedge)
        path = tmp_path / "wedge.json"
        path.write_text(complex_to_json(wedge))
        for json_flag in ([], ["--json"]):
            result = run(["skk", "class", str(path), *json_flag])
            assert (result.exit_code, result.report) == (
                2, "error: complex is a wedge: two of its pieces meet at a vertex")

    def test_class_needs_input(self):
        result = run(["skk", "class"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_class_refuses_file_and_surface(self, json_flag):
        sphere = str(FIXTURES_DIR / "sphere2.json")
        result = run(["skk", "class", "--surface", "g3b0", sphere, *json_flag])
        assert (result.exit_code, result.report) == (
            2, "error: give a complex file or --surface, not both")

    def test_verify_sequence(self):
        result = run(["skk", "verify-sequence", "--grid", "2", "--seed", "1"])
        assert result.exit_code == 0

    def test_verify_sequence_corrupted(self):
        result = run(["skk", "verify-sequence", "--grid", "2", "--seed", "1",
                      "--corrupt-splitting"])
        assert result.exit_code == 1

    def test_verify_sequence_negative_grid_rejected(self):
        result = run(["skk", "verify-sequence", "--grid", "-3"])
        assert result.exit_code == 2
        assert "grid" in result.report

    def test_verify_sequence_grid_beyond_bound_rejected(self):
        for grid in (MAX_GRID + 1, 100000):
            result = run(["skk", "verify-sequence", "--grid", str(grid)])
            assert result.exit_code == 2
            assert result.report == f"error: grid half-width may be at most {MAX_GRID}, got {grid}"

    def test_verify_sequence_measures_each_sample_once(self, monkeypatch):
        # the samples are measured once per process, at import, so a request measures none
        import skkinv.surfaces as surfaces

        calls = []
        real = surfaces.chi

        def counting(S):
            calls.append(S)
            return real(S)

        monkeypatch.setattr(surfaces, "chi", counting)
        for corrupt in ([], ["--corrupt-splitting"]):
            calls.clear()
            run(["skk", "verify-sequence", "--grid", "2"] + corrupt)
            assert calls == []

    def test_demo_bsigma(self):
        result = run(["skk", "demo-bsigma"])
        assert result.exit_code == 0
        assert "=> 1" in result.report
        assert "exp(10)" in result.report

    def test_demo_bsigma_custom_catalog(self, tmp_path):
        path = tmp_path / "catalog.json"
        path.write_text((FIXTURES_DIR / "catalog_dim8.json").read_text())
        result = run(["skk", "demo-bsigma", "--catalog", str(path)])
        assert result.exit_code == 0
        assert "exp(10)" in result.report

    @pytest.mark.parametrize("json_flag", [[], ["--json"]])
    def test_demo_bsigma_ignores_label_orientation(self, tmp_path, json_flag):
        """No construction reads orientation, so a reversed S7 on D8 gives
        the same report."""
        doc = _dim8_catalog_doc()
        reports = []
        for label in ("S7", "-S7"):
            _piece_entry(doc, "D8")["boundary"] = [label]
            path = tmp_path / "catalog.json"
            path.write_text(json.dumps(doc))
            result = run(["skk", "demo-bsigma", "--catalog", str(path), *json_flag])
            assert result.exit_code == 0
            reports.append(result.report)
        assert reports[0] == reports[1]

    @staticmethod
    def _catalog_without_identities(tmp_path, p2_by_piece):
        """The dim-8 catalog with no identities, so a closed-up piece resolves
        to no named piece and its p2 is the sum over its parts."""
        doc = _dim8_catalog_doc()
        doc["identities"] = []
        for piece in doc["pieces"]:
            piece["attributes"] = {}
        for name, p2 in p2_by_piece.items():
            _piece_entry(doc, name)["attributes"]["p2"] = p2
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_demo_bsigma_sums_p2_over_parts(self, tmp_path):
        # D8 capped by D8 is D8 + D8; capped by CP4_minus_D8 it is D8 + CP4_minus_D8
        path = self._catalog_without_identities(tmp_path, {"D8": "1/2", "CP4_minus_D8": "7"})
        result = run(["skk", "demo-bsigma", "--catalog", path])
        assert (result.exit_code, result.report) == (
            0, "capping choice D8 => exp(1); capping choice CP4_minus_D8 => exp(15/2)")
        result = run(["skk", "demo-bsigma", "--catalog", path, "--json"])
        assert result.exit_code == 0
        assert json.loads(result.report)["values"] == {"D8": "exp(1)",
                                                       "CP4_minus_D8": "exp(15/2)"}

    def test_demo_bsigma_part_without_p2(self, tmp_path):
        path = self._catalog_without_identities(tmp_path, {})
        for extra in ([], ["--json"]):
            result = run(["skk", "demo-bsigma", "--catalog", path] + extra)
            assert (result.exit_code, result.report) == (
                2, "error: piece 'D8' has no attribute 'p2'")


class TestDeterminism:
    def test_identical_seeds_give_identical_reports(self):
        args = ["tqft", "verify", "--cap", "3", "--cup", "1/3",
                "--seed", "9", "--budget", "40", "--json"]
        first, second = run(args), run(args)
        assert first.report == second.report
        assert first.exit_code == second.exit_code

    def test_verify_sequence_deterministic(self):
        args = ["skk", "verify-sequence", "--grid", "3", "--seed", "4", "--json"]
        assert run(args).report == run(args).report


def _namespace(argv):
    """The arguments `run` would hand the command's handler, as a dict."""
    return vars(_parse(list(argv))[1])


class TestParserReuse:
    """`COMMANDS` is read, never written: no request sees what an earlier one set."""

    @pytest.fixture
    def sequence(self, torus_file, tmp_path):
        script = tmp_path / "moves.cutpaste"
        script.write_text("cut 0 nonsep\npaste 0~1\n")
        scalars = ["--cap", "2", "--cup", "1/2"]
        return [
            ["homology", torus_file, "--coefficients", "mod2", "--json"],
            ["homology", torus_file, "--json"],
            ["homology", torus_file, "--coefficients", "reals"],  # bad choice
            ["cob", "normal-form", "acap ; acup", "--dim", "1", "--json"],
            ["cob", "normal-form", "acap ; acup"],  # dimension 2 by default: input error
            ["cob", "eval", "cap ; cup", *scalars, "--json"],
            ["cob", "eval", "cap ; cup"],  # --cap/--cup unset again: input error
            ["cob", "eval", "cap ; cup", "--cap-exp", "1", "--cup-exp", "1/2"],
            ["cob", "eval"],  # missing argument
            ["tqft", "verify", *scalars, "--seed", "5", "--budget", "7", "--corrupt", "--json"],
            ["tqft", "verify", *scalars, "--json"],
            ["tqft", "verify", *scalars, "--budget", "-1"],  # input error
            ["skk", "verify-sequence", "--grid", "1", "--seed", "3", "--corrupt-splitting",
             "--json"],
            ["skk", "verify-sequence", "--grid", "x"],  # not an integer
            ["skk", "verify-sequence", "--json"],
            ["skk", "demo-bsigma", "--catalog", str(tmp_path / "missing.json")],  # input error
            ["skk", "demo-bsigma", "--json"],
            ["skk", "class", "--surface", "g2b0", "--json"],
            ["skk", "class"],  # input error
            ["cutpaste", str(script), "--start", "g1b0"],
            ["cutpaste", str(script)],  # missing --start
            ["--help"],
            ["cob", "eval", "--help"],
            ["nonsense"],
            ["invariants", torus_file, "--json"],
        ]

    def test_results_do_not_depend_on_earlier_requests(self, sequence, capsys):
        table = repr(COMMANDS)
        alone = []
        for argv in sequence:
            result = run(argv)
            alone.append((result, capsys.readouterr()))
        twice = [(run(argv), capsys.readouterr()) for argv in sequence + sequence]
        interleaved = [(run(argv), capsys.readouterr())
                       for pair in zip(sequence, reversed(sequence)) for argv in pair]
        assert twice == alone + alone
        assert interleaved == [x for pair in zip(alone, reversed(alone)) for x in pair]
        assert repr(COMMANDS) == table

    def test_defaults_do_not_leak(self, sequence):
        for argv in sequence:
            run(argv)
        unset = {
            ("homology", "f"): {"coefficients": "integers"},
            ("cob", "normal-form", "w"): {"dim": 2},
            ("cob", "eval", "w"): {"cap": None, "cup": None, "cap_exp": None, "cup_exp": None},
            ("tqft", "verify"): {"seed": 0, "budget": 200, "corrupt": False, "cap": None},
            ("skk", "verify-sequence"): {"grid": 4, "seed": 0, "corrupt_splitting": False},
            ("skk", "demo-bsigma"): {"catalog": None},
            ("skk", "class"): {"file": None, "surface": None},
        }
        for argv, expected in unset.items():
            namespace = _namespace(argv)
            assert {key: namespace[key] for key in expected} == expected
            assert namespace["json"] is False

    def test_import_builds_nothing_and_selftest_loads_on_demand(self):
        # what the import adds, so that a site which preloads a module passes
        code = (
            "import json, sys\n"
            "before = set(sys.modules)\n"
            "import skkinv.cli as cli\n"
            "added = set(sys.modules) - before\n"
            "facts = {'loaded': sorted({'skkinv.selftest', 'skkinv.fixtures'} & set(sys.modules)),\n"
            "         'package': sorted(m for m in added if m.split('.')[0] == 'skkinv'),\n"
            "         'heavy': sorted({'dataclasses', 'inspect', 'fractions', 'decimal',\n"
            "                          'argparse', 'gettext'} & added)}\n"
            "facts['selftest_exit'] = cli.run(['selftest', '--seed', '0']).exit_code\n"
            "print(json.dumps(facts))\n"
        )
        assert json.loads(_fresh_python(code)) == {
            "loaded": [], "package": ["skkinv", "skkinv.cli"], "heavy": [],
            "selftest_exit": 0}


def _fresh_python(code):
    """Standard output of `code` run by a new interpreter that finds the source tree."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True).stdout


@pytest.mark.parametrize("argv, unused", [
    (["cob", "eval", "cap ; cup", "--cap", "2", "--cup", "3"],
     ["simplicial", "exact_linalg", "intersection_form", "surfaces", "skk", "virtual_bordism"]),
    (["homology", str(FIXTURES_DIR / "torus7.json")],
     ["cobordism", "tqft", "surfaces", "skk", "virtual_bordism"]),
], ids=["cob-eval", "homology"])
def test_command_loads_only_its_layers(argv, unused):
    code = (
        "import json, sys\n"
        "import skkinv.cli as cli\n"
        f"exit_code = cli.run({argv!r}).exit_code\n"
        f"unused = {{'skkinv.' + name for name in {unused!r}}}\n"
        "print(json.dumps([exit_code, sorted(unused & set(sys.modules))]))\n"
    )
    assert json.loads(_fresh_python(code)) == [0, []]


def test_word_and_surface_layers_load_no_linear_algebra():
    code = (
        "import json, sys\n"
        "import skkinv.tqft\n"
        "heavy = {'skkinv.surfaces', 'skkinv.simplicial', 'skkinv.exact_linalg'}\n"
        "by_tqft = heavy & set(sys.modules)\n"
        "import skkinv.cobordism, skkinv.surfaces\n"
        "loaded = (heavy - {'skkinv.surfaces'}) & set(sys.modules)\n"
        "print(json.dumps([sorted(by_tqft), sorted(loaded)]))\n"
    )
    assert json.loads(_fresh_python(code)) == [[], []]
    catalog_only = (
        "import json, sys\n"
        "import skkinv.virtual_bordism\n"
        "print(json.dumps(sorted({'skkinv.simplicial', 'skkinv.exact_linalg'}"
        " & set(sys.modules))))\n"
    )
    assert json.loads(_fresh_python(catalog_only)) == []


class TestShippedFixtureFiles:
    def test_cp2_fixture_is_what_the_search_script_prints(self, monkeypatch, capsys):
        monkeypatch.setattr(sys, "path", list(sys.path))  # the script puts src/ on the path
        script = runpy.run_path(str(ROOT / "scripts" / "gen_cp2_fixture.py"))
        script["main"]()
        lines = capsys.readouterr().out.splitlines()
        start = lines.index("facets:")
        signs = lines.index("orientation signs (signature +1):")
        facets = [ast.literal_eval(line.strip().rstrip(",")) for line in lines[start + 1:signs]]
        K = fixtures.cp2_9()
        assert facets == list(K.facets)
        assert ast.literal_eval(lines[signs + 1].strip()) == K.orientations

    def test_files_match_in_code_fixtures(self):
        from skkinv.simplicial import complex_from_json

        for name, factory in fixtures.FIXTURES.items():
            path = FIXTURES_DIR / f"{name}.json"
            assert path.exists(), f"missing fixtures/{name}.json"
            assert complex_from_json(path.read_text()) == factory()

    def test_catalog_files_match_defaults(self):
        from skkinv.virtual_bordism import catalog_from_json, dim8_catalog

        path = FIXTURES_DIR / "catalog_dim8.json"
        assert catalog_from_json(path.read_text()) == dim8_catalog()

    def test_cp2_invariants_via_shipped_file(self):
        result = run(["invariants", str(FIXTURES_DIR / "cp2_9.json")])
        assert result.exit_code == 0
        assert "chi = 3" in result.report and "sigma = 1" in result.report

    def test_sample_script_runs(self):
        result = run(["cutpaste", str(FIXTURES_DIR / "torus_roundtrip.cutpaste"),
                      "--start", "g1b0"])
        assert result.exit_code == 0
        assert result.report.endswith("((1, 0),) chi 0")


class TestUsageErrors:
    def test_unknown_command(self):
        assert run(["nonsense"]).exit_code == 2

    def test_missing_required_argument(self):
        assert run(["cutpaste", "script.txt"]).exit_code == 2

    def test_eval_without_scalars(self):
        assert run(["cob", "eval", "cap ; cup"]).exit_code == 2

    @pytest.mark.parametrize("argv", [
        ["cob", "eval", "cap ; cup", "--cap", "2", "--cup", "3", "--bogus"],  # unknown option
        ["cob", "eval", "cap ; cup", "--cap", "2", "--cup"],  # missing value
        ["homology", "f.json", "--coefficients", "reals"],  # bad choice
        ["cob", "normal-form", "cap ; cup", "--dim", "3"],  # bad choice
        ["homology", "f.json", "--coefficients"],  # missing value
        ["homology"],  # missing positional
        ["homology", "f.json", "g.json"],  # one positional too many
        ["homology", "f.json", "--json=1"],  # a flag takes no value
        ["tqft", "verify", "--cap", "2", "--cup", "3", "--cor"],  # prefixes are refused
        ["cob", "eval", "cap ; cup", "--cap-e", "2", "--cup-exp", "3"],
        ["cob"], ["--json", "homology", "f.json"], [],
    ])
    def test_usage_errors_go_to_standard_error(self, argv, capsys):
        assert run(argv) == (2, "", None)
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("skkinv")

    @pytest.mark.parametrize("argv, message", [
        (["tqft", "verify", "--seed", "1" * 5000], "argument --seed: Exceeds the limit"),
        (["skk", "verify-sequence", "--grid", "x"], "argument --grid: invalid literal for int()"),
        (["skk", "class", "--surface", "g" + "1" * 5000 + "b0"], "argument --surface: Exceeds"),
        (["cob", "eval", "cap", "--cap", "1/0", "--cup", "2"], "argument --cap: "),
    ])
    def test_bad_option_values_are_usage_errors(self, argv, message, capsys):
        assert run(argv) == (2, "", None)
        assert message in capsys.readouterr().err

    def test_an_option_takes_the_next_word_as_its_value(self):
        sphere = ["cob", "eval", "cap ; cup"]
        assert run(sphere + ["--cap", "-2", "--cup", "3"]).report == "-6"
        assert run(sphere + ["--cap=-1/2", "--cup", "3"]).report == "-3/2"
        assert run(sphere + ["--cap", "-1/2", "--cup", "3"]).report == "-3/2"
        assert (run(sphere + ["--cap-exp", "1", "--cup-exp", "-9/5"]).report
                == run(sphere + ["--cap-exp", "1", "--cup-exp=-9/5"]).report == "exp(-4/5)")

    def test_options_and_positionals_mix_in_any_order(self, torus_file):
        expected = run(["homology", torus_file, "--coefficients", "mod2", "--json"])
        assert expected.exit_code == 0
        for argv in (["homology", "--json", torus_file, "--coefficients", "mod2"],
                     ["homology", "--coefficients=mod2", "--json", torus_file]):
            assert run(argv) == expected

    @pytest.mark.parametrize("argv, listed", [
        (["--help"], list(COMMANDS)),
        (["-h"], list(COMMANDS)),
        (["cob", "--help"], ["cob normal-form", "cob eval"]),
        (["cob", "eval", "--help"], ["cob eval"]),
        (["cob", "eval", "cap ; cup", "-h", "--bogus"], ["cob eval"]),
        (["skk", "class", "--help"], ["skk class"]),
    ])
    def test_help_lists_the_table_on_standard_output(self, argv, listed, capsys):
        assert run(argv) == (0, "", None)
        out, err = capsys.readouterr()
        assert err == ""
        assert [line.split(" [")[0] for line in out.splitlines()
                if line.startswith("skkinv ")] == [f"skkinv {name}" for name in listed]
        for name in listed:
            assert COMMANDS[name][1] in out

    def test_help_through_the_console_entry_point(self):
        done = subprocess.run([sys.executable, "-m", "skkinv.cli", "cob", "eval", "--help"],
                              env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                              capture_output=True, text=True)
        assert (done.returncode, done.stderr) == (0, "")
        assert "skkinv cob eval [--json] [--cap FRACTION]" in done.stdout


def _dim8_catalog_doc():
    return json.loads((FIXTURES_DIR / "catalog_dim8.json").read_text())


def _piece_entry(doc, name):
    return next(entry for entry in doc["pieces"] if entry["name"] == name)


def _drop_d8(doc):
    doc["pieces"].remove(_piece_entry(doc, "D8"))
    doc["b_sigma"] = {"S7": "CP4_minus_D8"}


def _drop_cp4_p2(doc):
    del _piece_entry(doc, "CP4")["attributes"]["p2"]


def _zero_denominator_p2(doc):
    _piece_entry(doc, "CP4")["attributes"]["p2"] = "1/0"


def _b_sigma_as_pairs(doc):
    doc["b_sigma"] = [["S7", "D8"]]


def _null_identity_piece(doc):
    doc["identities"][0]["pieces"] = ["D8", None]


def _boolean_l(doc):
    doc["l"] = True


def _fractional_chi(doc):
    doc["pieces"].append({"name": "X", "chi": 1.5})


def _exponent_p2(doc):
    _piece_entry(doc, "CP4")["attributes"]["p2"] = "1e1000000000"


def _odd_dimension(doc):
    doc["dim"] = 7


class TestInputErrors:
    """Exit 2 means the input is at fault; anything else must not be reported so."""

    @pytest.mark.parametrize("mutate", [
        _drop_d8, _drop_cp4_p2, _zero_denominator_p2, _b_sigma_as_pairs,
        _null_identity_piece, _boolean_l, _fractional_chi, _exponent_p2, _odd_dimension,
    ])
    def test_malformed_catalog(self, tmp_path, mutate):
        doc = _dim8_catalog_doc()
        mutate(doc)
        path = tmp_path / "catalog.json"
        path.write_text(json.dumps(doc))
        result = run(["skk", "demo-bsigma", "--catalog", str(path)])
        assert result.exit_code == 2
        assert result.report.startswith("error: ")

    @pytest.mark.parametrize("argv", [
        ["cob", "eval", "cap ; cup", "--cap", "1/0", "--cup", "2"],
        ["cob", "eval", "cap ; cup", "--cap-exp", "1/0", "--cup-exp", "1"],
        ["cob", "eval", "cap ; cup", "--cap", "0", "--cup", "2"],
        ["tqft", "verify", "--cap", "2", "--cup", "0", "--budget", "1"],
        ["skk", "class", "--surface", "g1b-1"],
        ["skk", "class", "--surface", "g1b0 + g 1b0"],
        ["skk", "class", "--surface", "g" + "1" * 5000 + "b0"],  # beyond int()'s digit limit
        ["cob", "eval", "cap ; cup", "--cap-exp=1e1000000000", "--cup-exp", "1"],
        ["tqft", "verify", "--cap", "1E2", "--cup", "3", "--budget", "1"],
    ])
    def test_malformed_argv_value(self, argv):
        assert run(argv).exit_code == 2

    def test_surface_beyond_circle_bound(self, capsys):
        # 16 bytes that would ask `surfaces.surface` for 10**12 circle identifiers
        result = run(["skk", "class", "--surface", "g0b1000000000000"])
        assert (result.exit_code, result.report) == (2, "")
        assert f"at most {MAX_SURFACE_CIRCLES} boundary circles" in capsys.readouterr().err
        at_bound = run(["skk", "class", "--surface", f"g0b{MAX_SURFACE_CIRCLES}"])
        assert at_bound.report == "error: surface has boundary circles"  # parsed, then refused
        over = run(["skk", "class", "--surface", f"g1b{MAX_SURFACE_CIRCLES - 1} + g0b2"])
        assert (over.exit_code, over.report) == (2, "")

    def test_surface_beyond_term_bound(self, capsys):
        at_bound = run(["skk", "class", "--surface",
                        " + ".join(["g0b0"] * MAX_SURFACE_COMPONENTS)])
        assert (at_bound.exit_code, at_bound.report) == (0, f"dim 2 class: {MAX_SURFACE_COMPONENTS}")
        over = run(["skk", "class", "--surface",
                    " + ".join(["g0b0"] * (MAX_SURFACE_COMPONENTS + 1))])
        assert (over.exit_code, over.report) == (2, "")
        assert (f"a surface expression may have at most {MAX_SURFACE_COMPONENTS} terms"
                in capsys.readouterr().err)

    def test_negative_boundary_count(self, tmp_path):
        script = tmp_path / "moves.cutpaste"
        script.write_text("# no moves\n")
        assert run(["cutpaste", str(script), "--start", "g0b-2"]).exit_code == 2

    @pytest.mark.parametrize("command", [["homology"], ["skk", "demo-bsigma", "--catalog"]])
    @pytest.mark.parametrize("text", ["[" * 100000, '{"dim": ' + "1" * 5000 + "}"])
    def test_unparsable_json(self, tmp_path, command, text):
        path = tmp_path / "doc.json"
        path.write_text(text)
        assert run(command + [str(path)]).exit_code == 2

    def test_facetless_document(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text('{"dim": 2, "facets": []}')
        assert run(["homology", str(path)]).exit_code == 2

    def test_closure_beyond_bound(self, tmp_path):
        # 88 bytes whose facet closure has 2**18 faces
        path = tmp_path / "dim17.json"
        path.write_text(json.dumps({"dim": 17, "facets": [list(range(18))]}))
        result = run(["invariants", str(path)])
        assert result.exit_code == 2
        assert "closure" in result.report

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes(b'{"dim": 1, "facets": [[0, 1]], "\xe9": 1}')
        assert run(["homology", str(path)]).exit_code == 2

    def test_internal_fault_is_not_an_input_error(self, monkeypatch):
        import skkinv.simplicial

        def broken(*args, **kwargs):
            raise ValueError("shape mismatch in matrix product")

        monkeypatch.setattr(skkinv.simplicial, "homology", broken)
        with pytest.raises(ValueError, match="shape mismatch"):
            run(["homology", str(FIXTURES_DIR / "torus7.json")])


# -- fuzzing: no input ends in a traceback ------------------------------------------

_COMPLEX_COMMANDS = (
    ["homology"], ["homology", "--coefficients", "rationals"],
    ["homology", "--coefficients", "mod2"], ["invariants"], ["skk", "class"],
)
_COMPLEX_FIXTURES = tuple(FIXTURES_DIR / f"{name}.json" for name in (
    "circle", "sphere2", "torus7", "projective_plane6", "sphere3", "sphere4", "cp2_9"))
# the dim-2 and dim-4 catalogs are seeds only: demo-bsigma rejects them (no D8)
_CATALOG_SEEDS = (FIXTURES_DIR / "catalog_dim8.json", TESTS_DIR / "catalog_dim4.json",
                  TESTS_DIR / "catalog_dim2.json")
_JSON_KEYS = ("dim", "l", "facets", "orientations", "pieces", "b_sigma", "identities",
              "name", "chi", "sigma", "boundary", "attributes", "equals", "p2", "S7")
_json_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.sampled_from([1.5, -0.5]),
    st.sampled_from(["", "S7", "-S7", "D8", "CP4", "CP4_minus_D8", "p2", "1/0", "-1/2", "x",
                     "1e1000000000"]),
    st.builds(lambda: list(range(18))),  # a facet whose closure is beyond the bound
)
_json_values = st.recursive(
    _json_leaves,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_JSON_KEYS), inner, max_size=3),
    max_leaves=6,
)


def _paths(node, prefix=()):
    yield prefix
    children = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in children:
        yield from _paths(child, prefix + (key,))


@st.composite
def _mutated_documents(draw, seed):
    """A seed JSON document with up to three nodes replaced, deleted or added."""
    doc = json.loads(seed.read_text())
    for _ in range(draw(st.integers(0, 3))):
        path = draw(st.sampled_from(list(_paths(doc))))
        action = draw(st.sampled_from(("replace", "delete", "add")))
        parent, node = None, doc
        for key in path:
            parent, node = node, node[key]
        if action == "replace" and parent is not None:
            parent[path[-1]] = draw(_json_values)
        elif action == "replace":
            doc = draw(_json_values)
        elif action == "delete" and parent is not None:
            del parent[path[-1]]
        elif isinstance(node, dict):
            node[draw(st.sampled_from(_JSON_KEYS))] = draw(_json_values)
        elif isinstance(node, list):
            node.insert(draw(st.integers(0, len(node))), draw(_json_values))
    return json.dumps(doc)


_small_ints = st.integers(-3, 6).map(str)
_scalar_texts = st.one_of(_small_ints, st.sampled_from(
    ["0", "1/0", "-1/2", "2/3", "0.5", "1e2", "abc", "", "-", "3/-2", "1e1000000000",
     "-2E-9", "9" * 4000, "-1/" + "3" * 4000]))
_surface_terms = st.one_of(
    st.builds("g{}b{}".format, st.integers(0, 3), st.integers(0, 3)),
    st.sampled_from(["g1b-1", "g-1b0", "G2B0", "g1", "b0", "gb", "g1b0b1", "torus", " ", "g 1b0",
                     "g0b1000000000000", "g2b131073"]),
)
_surface_exprs = st.lists(_surface_terms, min_size=1, max_size=3).map(" + ".join)
_script_tokens = st.one_of(_small_ints, st.sampled_from(
    ["cut", "paste", "nonsep", "sep", "-", "0~1", "1~2", "0~0", "2~3", "3~-1", "0,1", "1,2",
     "~", "x", "#"]))
_scripts = st.lists(st.lists(_script_tokens, max_size=5).map(" ".join), max_size=8).map(
    "\n".join)
_words = st.lists(st.sampled_from(
    ["id", "swap", "cap", "cup", "pants", "copants", "pid", "acap", "acup", "|", ";", "capp",
     ""]), max_size=12).map(" ".join)
# one layer of up to 80 caps or pants: with a 4000-digit scalar, beyond the answer bound
_wide_words = st.builds(lambda g, n: " | ".join([g] * n), st.sampled_from(("cap", "pants")),
                        st.integers(1, 80))


@st.composite
def _scalar_argv(draw):
    flags = draw(st.sampled_from((("--cap", "--cup"), ("--cap-exp", "--cup-exp"),
                                  ("--cap", "--cup-exp"), ("--cap",), ())))
    return [f"{flag}={draw(_scalar_texts)}" for flag in flags]


class TestNoTraceback:
    """Malformed documents, scripts, words and argv values end in exit 0, 1 or 2."""

    @pytest.fixture(scope="class")
    def workdir(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz")

    @staticmethod
    def _check(argv):
        result = run(argv)
        assert result.exit_code in (0, 1, 2)
        if result.exit_code == 2 and result.report:
            assert result.report.startswith("error: ")

    @given(st.data())
    @settings(max_examples=120, deadline=None, derandomize=True)
    def test_complex_documents(self, workdir, data):
        text = data.draw(st.sampled_from(_COMPLEX_FIXTURES).flatmap(_mutated_documents))
        path = workdir / "complex.json"
        path.write_text(text)
        self._check(data.draw(st.sampled_from(_COMPLEX_COMMANDS)) + [str(path)])

    @given(st.sampled_from(_CATALOG_SEEDS).flatmap(_mutated_documents))
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_catalog_documents(self, workdir, text):
        path = workdir / "catalog.json"
        path.write_text(text)
        self._check(["skk", "demo-bsigma", "--catalog", str(path)])

    @given(_scripts, _surface_exprs)
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_cutpaste_scripts(self, workdir, script, start):
        path = workdir / "moves.cutpaste"
        path.write_text(script)
        self._check(["cutpaste", str(path), "--start", start])

    @given(st.integers(0, 400), st.sampled_from(("g0b0", "g2b3 + g1b0", "g0b65536", "g0b131072")))
    @settings(max_examples=15, deadline=None, derandomize=True)
    def test_trace_sizes(self, workdir, cuts, start):
        path = workdir / "cuts.cutpaste"
        path.write_text("cut 0 sep 0 -\n" * cuts)
        self._check(["cutpaste", str(path), "--start", start])

    @given(_wide_words, st.sampled_from(("cap", "cup")),
           st.sampled_from(("", "-exp")), st.sampled_from(("9" * 4000, "-1/" + "3" * 4000, "2")))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_answer_sizes(self, word, which, variant, value):
        other = "cup" if which == "cap" else "cap"
        self._check(["cob", "eval", word, f"--{which}{variant}={value}", f"--{other}{variant}=3"])

    @given(st.integers(-2, 4) | st.sampled_from((MAX_BUDGET + 1, 10 ** 9)), st.booleans())
    @settings(max_examples=20, deadline=None, derandomize=True)
    def test_budgets(self, budget, corrupt):
        self._check(["tqft", "verify", "--cap", "2", "--cup", "3", "--budget", str(budget)]
                    + (["--corrupt"] if corrupt else []))

    @given(_words | _wide_words, st.sampled_from(("1", "2")), _scalar_argv())
    @settings(max_examples=80, deadline=None, derandomize=True)
    def test_words(self, word, dim, scalars):
        self._check(["cob", "normal-form", word, "--dim", dim])
        self._check(["cob", "eval", word] + scalars)

    @given(_scalar_argv(), st.integers(-3, 3) | st.sampled_from((MAX_GRID + 1, 10 ** 6)),
           st.integers(-2, 4) | st.sampled_from((MAX_BUDGET + 1, 10 ** 9)), _surface_exprs,
           st.booleans())
    @settings(max_examples=60, deadline=None, derandomize=True)
    def test_argv_values(self, scalars, grid, budget, surface, corrupt):
        extra = ["--corrupt"] if corrupt else []
        self._check(["tqft", "verify", "--budget", str(budget)] + scalars + extra)
        self._check(["skk", "verify-sequence", "--grid", str(grid)]
                    + (["--corrupt-splitting"] if corrupt else []))
        self._check(["skk", "class", "--surface", surface])
