"""Command-line interface: subcommands, exit codes, and report formats."""

import json

import pytest

from skkinv import fixtures
from skkinv.cli import run
from skkinv.simplicial import SimplicialComplex, complex_to_json


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

    def test_boolean_dimension_is_input_error(self, tmp_path):
        path = tmp_path / "bool_dim.json"
        path.write_text('{"dim": true, "facets": [[0, 1], [1, 2], [0, 2]]}')
        assert run(["invariants", str(path)]).exit_code == 2


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


class TestTqftVerifyCommand:
    def test_passes(self):
        result = run(["tqft", "verify", "--cap", "2", "--cup", "1/2",
                      "--seed", "3", "--budget", "60"])
        assert result.exit_code == 0

    def test_negative_budget_rejected(self):
        result = run(["tqft", "verify", "--cap", "2", "--cup", "1/2", "--budget", "-5"])
        assert result.exit_code == 2
        assert "budget" in result.report

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

    def test_class_needs_input(self):
        result = run(["skk", "class"])
        assert result.exit_code == 2

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

    def test_demo_bsigma(self):
        result = run(["skk", "demo-bsigma"])
        assert result.exit_code == 0
        assert "=> 1" in result.report
        assert "exp(10)" in result.report

    def test_demo_bsigma_custom_catalog(self, tmp_path):
        from skkinv.virtual_bordism import catalog_to_json, dim8_catalog

        path = tmp_path / "catalog.json"
        path.write_text(catalog_to_json(dim8_catalog()))
        result = run(["skk", "demo-bsigma", "--catalog", str(path)])
        assert result.exit_code == 0
        assert "exp(10)" in result.report


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


class TestShippedFixtureFiles:
    FIXTURES_DIR = __import__("pathlib").Path(__file__).resolve().parent.parent / "fixtures"

    def test_files_match_in_code_fixtures(self):
        from skkinv.simplicial import complex_from_json

        for name, factory in fixtures.FIXTURES.items():
            path = self.FIXTURES_DIR / f"{name}.json"
            assert path.exists(), f"missing fixtures/{name}.json"
            assert complex_from_json(path.read_text()) == factory()

    def test_catalog_files_match_defaults(self):
        from skkinv.virtual_bordism import DEFAULT_CATALOGS, catalog_from_json

        for dim, factory in DEFAULT_CATALOGS.items():
            path = self.FIXTURES_DIR / f"catalog_dim{dim}.json"
            assert catalog_from_json(path.read_text()) == factory()

    def test_cp2_invariants_via_shipped_file(self):
        result = run(["invariants", str(self.FIXTURES_DIR / "cp2_9.json")])
        assert result.exit_code == 0
        assert "chi = 3" in result.report and "sigma = 1" in result.report

    def test_sample_script_runs(self):
        result = run(["cutpaste", str(self.FIXTURES_DIR / "torus_roundtrip.cutpaste"),
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
