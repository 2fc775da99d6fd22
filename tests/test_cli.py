"""CLI tests: golden files, exit codes, and byte-for-byte determinism."""

import io
import json
from pathlib import Path

import pytest

from glaurent.cli import load_instance, main

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

GOLDEN_CASES = {
    "standard_kernel.txt": ["kernel", "standard.json"],
    "standard_positivity.txt": ["positivity", "standard.json"],
    "standard_component_2.txt": ["component", "standard.json", "--degree", "2"],
    "standard_component_2.json": ["component", "standard.json", "--degree", "2", "--json"],
    "mixed_sign_kernel.txt": ["kernel", "mixed_sign.json"],
    "mixed_sign_positivity.txt": ["positivity", "mixed_sign.json"],
    "mixed_sign_component_3.txt": ["component", "mixed_sign.json", "--degree", "3"],
    "mixed_sign_component_0.json": ["component", "mixed_sign.json", "--degree", "0", "--json"],
    "mod2_kernel.txt": ["kernel", "mod2.json"],
    "mod2_positivity.txt": ["positivity", "mod2.json"],
    "mod2_component_1.txt": ["component", "mod2.json", "--degree", "1"],
}


def run_cli(argv):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def expand(argv):
    return [str(DATA / a) if a.endswith(".json") and "--" not in a else a for a in argv]


class TestGoldenFiles:
    @pytest.mark.parametrize("fname", sorted(GOLDEN_CASES))
    def test_matches_committed_output(self, fname):
        code, out, _ = run_cli(expand(GOLDEN_CASES[fname]))
        assert code == 0
        assert out == (GOLDEN / fname).read_text(encoding="utf-8")

    @pytest.mark.parametrize("fname", sorted(GOLDEN_CASES))
    def test_repeated_runs_identical(self, fname):
        argv = expand(GOLDEN_CASES[fname])
        first = run_cli(argv)
        second = run_cli(argv)
        assert first == second


class TestInstanceLoading:
    def test_valid_file(self):
        spec = load_instance(str(DATA / "standard.json"))
        assert (spec.r, spec.s, spec.p, spec.torsion) == (2, 0, 1, ())
        assert spec.weights.rows == ((1, 1),)

    def test_torsion_file(self):
        spec = load_instance(str(DATA / "mod2.json"))
        assert spec.torsion == (2,) and spec.p == 0

    def test_optional_name_ignored(self):
        spec = load_instance(str(DATA / "not_faithful.json"))
        assert spec.weights.rows == ((1, 1), (2, 2))


class TestExitCodes:
    def test_missing_file_is_parse_error(self):
        code, _, err = run_cli(["kernel", str(DATA / "does_not_exist.json")])
        assert code == 2
        assert "error" in err

    def test_malformed_json(self):
        code, _, err = run_cli(["kernel", str(DATA / "not_json.txt")])
        assert code == 2

    def test_wrong_matrix_dimensions(self):
        code, _, err = run_cli(["kernel", str(DATA / "bad_dims.json")])
        assert code == 2
        assert "error" in err

    def test_not_faithful_instance(self):
        code, _, err = run_cli(["kernel", str(DATA / "not_faithful.json")])
        assert code == 3
        assert "faithful" in err

    def test_bad_torsion_order(self):
        code, _, err = run_cli(["kernel", str(DATA / "bad_torsion.json")])
        assert code == 3

    def test_bad_degree_string(self):
        code, _, _ = run_cli(
            ["component", str(DATA / "standard.json"), "--degree", "x"]
        )
        assert code == 2

    def test_wrong_degree_length(self):
        code, _, _ = run_cli(
            ["component", str(DATA / "standard.json"), "--degree", "1,2"]
        )
        assert code == 2

    def test_degree_not_found_within_bound(self):
        code, out, _ = run_cli(
            ["component", str(DATA / "standard.json"), "--degree", "-1"]
        )
        assert code == 4
        assert "within bound 10" in out

    def test_degree_conclusively_absent(self):
        code, out, _ = run_cli(
            ["component", str(DATA / "even_only.json"), "--degree", "1"]
        )
        assert code == 4
        assert "component is zero" in out

    def test_bound_flag_respected(self):
        code, out, _ = run_cli(
            ["component", str(DATA / "standard.json"), "--degree", "-1", "--bound", "4"]
        )
        assert code == 4
        assert "within bound 4" in out

    @pytest.mark.parametrize(
        "field, value",
        [
            ("L", [[1.7, 1]]),
            ("L", [[True, 1]]),
            ("L", [["1", 1]]),
            ("torsion", [2.9]),
            ("torsion", ["2"]),
            ("r", "2"),
            ("s", 0.0),
            ("p", True),
        ],
    )
    def test_non_integer_values_rejected(self, tmp_path, field, value):
        doc = {"p": 0, "torsion": [2], "r": 2, "s": 0, "L": [[1, 1]]}
        doc[field] = value
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(["kernel", str(path)])
        assert (code, out) == (2, "")
        assert "expected an integer" in err

    def test_negative_bound_is_parse_error(self, capsys):
        code, out, _ = run_cli(
            ["component", str(DATA / "standard.json"), "--degree", "-1", "--bound", "-1"]
        )
        assert (code, out) == (2, "")
        assert "search bound must be >= 0" in capsys.readouterr().err

    def test_positivity_on_all_valid_files(self):
        for name in ["standard.json", "mixed_sign.json", "identity.json",
                     "mod2.json", "laurent_excess.json"]:
            code, out, _ = run_cli(["positivity", str(DATA / name)])
            assert code == 0 and out


class TestJsonOutput:
    def test_finite_document_shape(self):
        code, out, _ = run_cli(
            ["component", str(DATA / "standard.json"), "--degree", "2", "--json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "finite"
        assert doc["dim"] == 3
        assert doc["basis"] == ["x1^2", "x1*x2", "x2^2"]
        assert doc["representative"] == [2, 0]

    def test_module_document_shape(self):
        code, out, _ = run_cli(
            ["component", str(DATA / "mod2.json"), "--degree", "1", "--json"]
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["kind"] == "module"
        assert doc["s0_generators"] == ["x1^2", "x1*x2", "x2^2"]
        assert len(doc["module_generators"]) == 12

    def test_not_in_q_document(self):
        code, out, _ = run_cli(
            ["component", str(DATA / "standard.json"), "--degree", "-1", "--json"]
        )
        assert code == 4
        doc = json.loads(out)
        assert doc["kind"] == "not_in_q"
        assert doc["conclusive"] is False

    def test_kernel_trivial_output(self):
        code, out, _ = run_cli(["kernel", str(DATA / "identity.json")])
        assert code == 0
        assert out == "l = 0, kernel trivial\n"
