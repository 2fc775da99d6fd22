"""CLI tests: golden files, exit codes, and byte-for-byte determinism."""

import inspect
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from glaurent import components, grading
from glaurent.cli import _PARSER, load_instance, main

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).parent.parent / "src"
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
    "unit_line_component_2.txt": ["component", "unit_line.json", "--degree", "2"],
    "unit_line_component_2.json": ["component", "unit_line.json", "--degree", "2", "--json"],
    "unit_mixed_component_2.txt": ["component", "unit_mixed.json", "--degree", "2"],
    "unit_mixed_kernel.txt": ["kernel", "unit_mixed.json"],
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

    @pytest.mark.parametrize(
        "content",
        [b'{"p": 1, "r": 2, "s": 0, "L": [[1, 1]], "name": "\xff"}',
         b"[" * 100_000 + b"]" * 100_000],
        ids=["not_utf8", "nested_past_recursion_limit"],
    )
    def test_undecodable_document_is_parse_error(self, tmp_path, content):
        path = tmp_path / "instance.json"
        path.write_bytes(content)
        code, out, err = run_cli(["kernel", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: invalid instance document: ")
        assert len(err.splitlines()) == 1

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

    @pytest.mark.parametrize("degree", ["1_0", "\u0662", "1.0", "+", "", " ", "1,", "0x1"])
    def test_degree_entries_are_ascii_integers(self, degree):
        code, out, err = run_cli(
            ["component", str(DATA / "standard.json"), "--degree", degree]
        )
        assert (code, out) == (2, "")
        assert "invalid degree" in err

    @pytest.mark.parametrize("instance, degree, first",
                             [("standard.json", " +2 ", "degree: (2)"),
                              ("identity.json", "1, 2", "degree: (1, 2)"),
                              ("identity.json", "+1,-1", "degree: (1, -1)")])
    def test_degree_entries_allow_sign_and_spaces(self, instance, degree, first):
        code, out, _ = run_cli(["component", str(DATA / instance), "--degree", degree])
        assert out.splitlines()[0] == first
        assert code in (0, 4)

    @pytest.mark.parametrize("argv", [["--degree", "-1,2"], ["--degree=-1,2"],
                                      ["--bound", "3", "--degree", "-1,2"]])
    def test_negative_degree_spaced_or_joined(self, argv):
        code, out, _ = run_cli(["component", str(DATA / "identity.json"), *argv])
        assert out.splitlines()[0] == "degree: (-1, 2)"
        assert code == 4

    def test_degree_flag_last_is_usage_error(self):
        code, out, err = run_cli(["component", str(DATA / "identity.json"), "--degree"])
        assert (code, out) == (2, "")
        assert "expected one argument" in err

    @pytest.mark.parametrize("bound", ["1_0", "\u0662", "4.0", ""])
    def test_bound_is_an_ascii_integer(self, bound):
        code, out, err = run_cli(
            ["component", str(DATA / "standard.json"), "--degree", "2", "--bound", bound]
        )
        assert (code, out) == (2, "")
        assert "invalid _bound value" in err

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

    def test_default_bound_is_the_library_default(self):
        # the CLI, find_representative, component and component_dimension
        # all read grading.SEARCH_BOUND
        assert grading.SEARCH_BOUND == 10
        args = _PARSER.parse_args(["component", "f.json", "--degree", "1"])
        assert args.bound == grading.SEARCH_BOUND
        for f in (grading.find_representative, components.component,
                  components.component_dimension):
            default = inspect.signature(f).parameters["search_bound"].default
            assert default == grading.SEARCH_BOUND

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

    @pytest.mark.parametrize(
        "doc",
        [
            {"p": 1, "torsion": "", "r": 2, "s": 0, "L": [[1, 1]]},
            {"p": 1, "torsion": {}, "r": 2, "s": 0, "L": [[1, 1]]},
            {"p": 0, "r": 2, "s": 0, "L": {}},
            {"p": 0, "r": 2, "s": 0, "L": ""},
            {"p": 1, "r": 2, "s": 0, "L": [{}]},
        ],
    )
    def test_non_array_values_rejected(self, tmp_path, doc):
        # strings and objects iterate as empty or as their keys; each of the
        # first four was once read as an empty list and accepted
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code, out, err = run_cli(["kernel", str(path)])
        assert (code, out) == (2, "")
        assert "must be an array" in err

    def test_negative_bound_is_parse_error(self, capsys):
        code, out, err = run_cli(
            ["component", str(DATA / "standard.json"), "--degree", "-1", "--bound", "-1"]
        )
        assert (code, out) == (2, "")
        assert "search bound must be >= 0" in err
        assert capsys.readouterr() == ("", "")

    def test_positivity_on_all_valid_files(self):
        for name in ["standard.json", "mixed_sign.json", "identity.json",
                     "mod2.json", "laurent_excess.json"]:
            code, out, _ = run_cli(["positivity", str(DATA / name)])
            assert code == 0 and out


class TestParserStreams:
    """argparse writes its usage, errors and help to ``main``'s own streams."""

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["component", "f.json"], "the following arguments are required: --degree"),
            (["frobnicate"], "invalid choice"),
            ([], "usage:"),
        ],
    )
    def test_usage_error_goes_to_err(self, capsys, argv, message):
        code, out, err = run_cli(argv)
        assert (code, out) == (2, "")
        assert message in err
        assert capsys.readouterr() == ("", "")

    @pytest.mark.parametrize("argv", [["--help"], ["component", "--help"]])
    def test_help_goes_to_out(self, capsys, argv):
        code, out, err = run_cli(argv)
        assert (code, err) == (0, "")
        assert out.startswith("usage:")
        assert capsys.readouterr() == ("", "")


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


class TestParserReuse:
    def test_second_call_matches_a_fresh_process(self):
        # the parser is built once per process: options of one call must not
        # leak into the next
        path = str(DATA / "mixed_sign.json")
        code, out, _ = run_cli(["component", path, "--degree", "3", "--bound", "3", "--json"])
        assert code == 0 and json.loads(out)["kind"] == "module"
        argv = ["component", path, "--degree", "3"]
        code, out, err = run_cli(argv)
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        fresh = subprocess.run(
            [sys.executable, "-m", "glaurent", *argv],
            capture_output=True, env=env, timeout=120,
        )
        assert (code, out.encode(), err.encode()) == (
            fresh.returncode, fresh.stdout, fresh.stderr
        )


class TestClosedPipe:
    def test_reader_closing_early_exits_quietly(self, tmp_path):
        # about 85 KB of module generators, more than a pipe buffer holds
        doc = {"p": 1, "torsion": [], "r": 4, "s": 0, "L": [[5, -7, 3, -4]]}
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "glaurent", "component", str(path), "--degree", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, bufsize=0,
        )
        try:
            assert proc.stdout.read(10) == b"degree: (1"
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=120) == 1
        finally:
            proc.kill()
            proc.stderr.close()
        assert err == b""
