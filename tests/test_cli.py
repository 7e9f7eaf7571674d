"""CLI: report shape, determinism, exit codes, verify replay."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

from brieskorn import engine, germ, groebner, microdiff
from brieskorn.cli import main
from brieskorn.poly import MAX_POWER_WORK, Cosets, LimitExceeded, Polynomial, format_rational, parse_polynomial, power_work

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PROBLEMS = os.path.join(ROOT, "problems")


def prob(name):
    return os.path.join(PROBLEMS, name)


def run_main(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


class TestReports:
    def test_report_keys(self, capsys):
        code, out = run_main(["spectrum", prob("cusp.json")], capsys)
        assert code == 0
        report = json.loads(out)
        for key in ("command", "input_digest", "result", "certificates", "bounds", "version"):
            assert key in report
        assert report["command"] == "spectrum"
        assert report["result"]["spectrum"] == ["-1/6", "1/6"]
        assert report["result"]["milnor_number"] == 2

    def test_text_format(self, capsys):
        code, out = run_main(["spectrum", prob("cusp.json"), "--format", "text"], capsys)
        assert code == 0
        assert "spectrum" in out and "-1/6" in out

    def test_determinism_byte_identical(self, capsys):
        args = ["analyze", prob("cusp.json")]
        _code, first = run_main(args, capsys)
        _code, second = run_main(args, capsys)
        assert first == second

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "report.json"
        code, out = run_main(["spectrum", prob("a1.json"), "--out", str(target)], capsys)
        assert code == 0 and out == ""
        report = json.loads(target.read_text())
        assert report["result"]["spectrum"] == ["-1/2"]


class TestExitCodes:
    def test_malformed_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["spectrum", str(bad)])
        assert code == 1

    def test_non_quasihomogeneous(self, tmp_path, capsys):
        f = tmp_path / "nh.json"
        f.write_text(json.dumps({
            "name": "nh", "variables": ["x", "y"], "weights": ["1", "1"],
            "polynomial": "x + y^2",
        }))
        assert main(["spectrum", str(f)]) == 1

    def test_spectrum_nonisolated_is_input_error(self, capsys):
        assert main(["spectrum", prob("barlet35.json")]) == 1

    def test_torsion_ceiling_exit_two(self, capsys):
        code, out = run_main(
            ["torsion", prob("barlet35.json"), "--monomial", "z",
             "--max-t-power", "3", "--max-s-power", "3"],
            capsys,
        )
        assert code == 2  # the s-search hits its ceiling on the weight-0 class

    def test_torsion_resolved_exit_zero(self, capsys):
        code, out = run_main(
            ["torsion", prob("barlet35.json"), "--monomial", "1",
             "--max-t-power", "4", "--max-s-power", "4"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        row = report["result"]["classes"][0]
        assert row["t"]["order"] == 1 and row["s"]["order"] == 2


class TestExplicitBounds:
    """An explicit 0 on the command line is the bound used, never the file's value."""

    # barlet35.json sets max_degree 14 and t/s powers 10; nc22.json sets max_degree 8
    @pytest.mark.parametrize(
        "argv, bounds",
        [
            (["torsion", "barlet35.json", "--monomial", "1", "--max-degree", "0",
              "--max-t-power", "2", "--max-s-power", "2"],
             {"max_degree": 0, "max_t_power": 2, "max_s_power": 2}),
            (["analyze", "barlet35.json", "--max-degree", "0",
              "--max-t-power", "1", "--max-s-power", "1"],
             {"max_degree": 0, "max_t_power": 1, "max_s_power": 1}),
            (["check-p", "nc22.json", "--form-degree", "2", "--max-degree", "0"],
             {"max_degree": 0}),
            (["nc", "nc22.json", "--max-degree", "0"], {"max_degree": 0}),
        ],
    )
    def test_zero_is_reported(self, argv, bounds, capsys):
        code, out = run_main([argv[0], prob(argv[1]), *argv[2:]], capsys)
        assert code == 0
        assert json.loads(out)["bounds"].items() >= bounds.items()

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            # the CLI refuses a search depth below 1 first, naming the flag (full
            # message in TestInputContract)
            (["torsion", "barlet35.json", "--monomial", "1", "--max-t-power", "0"],
             1, "--max-t-power"),
            (["torsion", "barlet35.json", "--monomial", "1", "--max-s-power", "0"],
             1, "--max-s-power"),
            (["micro", "--max-s-power", "0"], 2, "exceeds cap 0"),
        ],
    )
    def test_zero_is_refused_by_the_engine(self, argv, code, message, capsys):
        if argv[0] != "micro":
            argv = [argv[0], prob(argv[1]), *argv[2:]]
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err and "Traceback" not in captured.err


class TestInputContract:
    """Bad input exits 1, an internal fault 3; each prints one line and no traceback."""

    GERM = {"variables": ["x", "y"], "weights": ["1", "1"], "polynomial": "x^2 + y^2"}

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"weights": "11"}, "weights must be a list of rational strings"),
            ({"weights": [0.5, 0.5]}, "weights must be a list of rational strings"),
            ({"weights": [1, 1]}, "weights must be a list of rational strings"),
            ({"variables": ["x"], "weights": ["1"], "polynomial": 5}, "polynomial must be a string"),
            ({"options": {"max_t_power": 2.5}}, "options.max_t_power must be an integer"),
            ({"options": {"max_s_power": None}}, "options.max_s_power must be an integer"),
            ({"weights": ["1/0", "1"]}, "weights[0] = '1/0' has a zero denominator"),
            ({"weights": ["1", "-3/00"]}, "weights[1] = '-3/00' has a zero denominator"),
            ({"weights": ["1", "0.5"]}, "weights[1] = '0.5' is not a rational literal"),
            ({"weights": ["1e3", "1"]}, "weights[0] = '1e3' is not a rational literal"),
            ({"weights": ["1", " 1"]}, "weights[1] = ' 1' is not a rational literal"),
            ({"weights": ["1", "1/-2"]}, "weights[1] = '1/-2' is not a rational literal"),
            ({"weights": ["1", ""]}, "weights[1] = '' is not a rational literal"),
            ({"options": {"max_degree": -1}}, "options.max_degree must be >= 0, got -1"),
            ({"options": {"max_t_power": 0}}, "options.max_t_power must be >= 1, got 0"),
            ({"options": {"max_s_power": 0}}, "options.max_s_power must be >= 1, got 0"),
            ({"variables": ["x", "x"]}, "duplicate variable names"),
            ({"options": {"max_t_powr": 1}}, "unknown option 'max_t_powr'"),
            ({"nmae": "x"}, "unknown key 'nmae'"),
            ({"name": ["x"]}, "name must be a string"),
            ({"variables": ["x", "1"]}, "variables[1] = '1' is not a variable name"),
            ({"variables": ["", "y"]}, "variables[0] = '' is not a variable name"),
            ({"variables": ["x", "x y"]}, "variables[1] = 'x y' is not a variable name"),
            ({"variables": ["²", "y"]}, "variables[0] = '²' is not a variable name"),
            ({"polynomial": "x^² + y^2"},
             "polynomial does not parse: unexpected character '²' (at position 2)"),
            ({"polynomial": "x^2 + y^٢"},
             "polynomial does not parse: unexpected character '٢' (at position 8)"),
        ],
        ids=["weights-string", "weights-floats", "weights-ints", "polynomial-number",
             "option-float", "option-null", "weight-zero-denominator",
             "weight-zero-denominator-padded", "weight-decimal", "weight-exponent",
             "weight-whitespace", "weight-signed-denominator", "weight-empty",
             "option-negative-max-degree", "option-zero-max-t-power", "option-zero-max-s-power",
             "variables-duplicate", "option-misspelt", "key-misspelt", "name-list",
             "variable-digit", "variable-empty", "variable-two-names", "variable-superscript-digit",
             "polynomial-superscript-digit",
             "polynomial-arabic-indic-digit"],
    )
    def test_bad_problem_file(self, change, message, tmp_path, capsys):
        # each message names the file it is about
        path = tmp_path / "p.json"
        path.write_text(json.dumps({**self.GERM, **change}))
        self.expect(["torsion", str(path)], 1, f"{path}: {message}", capsys)

    @pytest.mark.parametrize(
        "blob, verify",
        [(b"\xff\xfe{", False), (b'{"command": "kernel\xff"}', True)],
        ids=["problem-utf-16-bom", "report-byte-ff"],
    )
    def test_input_that_is_not_utf8_json_names_its_file(self, blob, verify, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(blob)
        if verify:
            self.expect(["kernel", prob("cusp.json"), "--verify", str(path)], 1,
                        f"verify: {path}: malformed JSON: ", capsys)
        else:
            self.expect(["kernel", str(path)], 1, f"error: {path}: malformed JSON: ", capsys)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["torsion", prob("barlet35.json"), "--monomial", "1", "--max-degree", "-1"],
             "--max-degree must be >= 0, got -1"),
            (["check-p", prob("cusp.json"), "--max-degree", "-3"], "--max-degree must be >= 0"),
            (["micro", "--factorial-bound", "-1"], "--factorial-bound must be >= 0, got -1"),
            (["micro", "--commutator-bound", "-1"], "--commutator-bound must be >= 0, got -1"),
            (["micro", "--remark-bound", "-2"], "--remark-bound must be >= 0, got -2"),
            (["micro", "--integrate-bound", "-1"], "--integrate-bound must be >= 0, got -1"),
            (["ts", prob("a1.json"), prob("ts_y3.json"), "--k-max", "-1"],
             "--k-max must be >= 0, got -1"),
            (["check-p", prob("cusp.json"), "--form-degree", "7"], "form degree out of range"),
            (["kernel", prob("cusp.json"), "--form-degree", "-1"], "form degree out of range"),
            (["kernel", prob("cusp.json"), "--form-degree", "3"], "form degree out of range"),
            (["analyze", prob("barlet35.json"), "--max-t-power", "0"], "--max-t-power must be >= 1, got 0"),
            (["analyze", prob("barlet35.json"), "--max-s-power", "0"], "--max-s-power must be >= 1, got 0"),
            (["torsion", prob("barlet35.json"), "--max-t-power", "-2"], "--max-t-power must be >= 1, got -2"),
            (["micro", "--max-s-power", "-1"], "--max-s-power must be >= 0, got -1"),
            (["kernel", prob("cusp.json"), "--max-t-power", "-5"], "unrecognized arguments: --max-t-power -5"),
            (["ts", prob("a1.json"), prob("ts_y3.json"), "--max-t-power", "-5", "--max-s-power", "-3"],
             "unrecognized arguments: --max-t-power -5 --max-s-power -3"),
            (["spectrum", prob("cusp.json"), "--max-degree", "3"], "unrecognized arguments: --max-degree 3"),
            (["ts", prob("a1.json"), prob("ts_y3.json"), "--max-degree", "3"],
             "unrecognized arguments: --max-degree 3"),
            (["torsion", prob("barlet35.json"), "--monomial", "0"], "error: --monomial '0' is the zero class"),
            (["torsion", prob("barlet35.json"), "--monomial", "x^²"],
             "error: unexpected character '²' (at position 2)"),
            (["micro", "--max-t-power", "2"], "unrecognized arguments: --max-t-power 2"),
            (["torsion", prob("barlet35.json"), "--seed", "1"], "unrecognized arguments: --seed 1"),
            (["torsion", prob("barlet35.json"), "--bogus"], "unrecognized arguments: --bogus"),
            (["kernel"], "the following arguments are required: problem"),
            ([], "the following arguments are required: command"),
            (["torsion", prob("barlet35.json"), "--max-degree", "abc"],
             "argument --max-degree: invalid int value: 'abc'"),
            (["frobnicate", prob("cusp.json")], "argument command: invalid choice: 'frobnicate'"),
            (["ts", prob("barlet35.json"), prob("ts_y2.json")], "error: the first operand must be isolated"),
            (["ts", prob("a1.json"), prob("barlet35.json")],
             "error: rank/exponent comparison implemented for isolated second operands"),
            (["spectrum", prob("barlet35.json")], "error: C{t}-basis needs an isolated singularity"),
        ],
        ids=["torsion-negative-max-degree", "check-p-negative-max-degree",
             "micro-negative-factorial-bound", "micro-negative-commutator-bound",
             "micro-negative-remark-bound", "micro-negative-integrate-bound",
             "ts-negative-k-max", "check-p-form-degree-above-n", "kernel-negative-form-degree",
             "kernel-form-degree-above-n", "analyze-zero-max-t-power", "analyze-zero-max-s-power",
             "torsion-negative-max-t-power", "micro-negative-max-s-power", "kernel-max-t-power",
             "ts-max-powers", "spectrum-max-degree", "ts-max-degree", "torsion-zero-monomial",
             "torsion-monomial-superscript-digit", "micro-max-t-power", "torsion-seed",
             "unknown-flag", "missing-problem", "missing-command", "max-degree-not-an-integer",
             "unknown-command", "ts-non-isolated-first", "ts-non-isolated-second",
             "spectrum-non-isolated"],
    )
    def test_bad_argument(self, argv, message, capsys):
        self.expect(argv, 1, message, capsys)

    @pytest.mark.parametrize(
        "argv",
        [["spectrum", "{neg}"], ["analyze", "{neg}"], ["ts", "{neg}", prob("a1.json")], ["ts", prob("a1.json"), "{neg}"]],
        ids=["spectrum", "analyze", "ts-first", "ts-second"],
    )
    def test_negative_degree_germ_is_refused(self, argv, tmp_path, capsys):
        # u^2 + v^2 with weights (-1, -1) is isolated, of degree -2: no bound
        # is hit, the weights are to be negated
        path, report = tmp_path / "neg.json", tmp_path / "report.json"
        germ = {"variables": ["u", "v"], "weights": ["-1", "-1"], "polynomial": "u^2 + v^2"}
        path.write_text(json.dumps(germ))
        argv = [str(path) if a == "{neg}" else a for a in argv] + ["--out", str(report)]
        self.expect(argv, 1, "error: deg f = -2 < 0; negate the weights", capsys)
        assert not report.exists()

    def test_non_positive_weight_of_positive_degree_is_refused(self, tmp_path, capsys):
        # x on (x, y) with weights (1, -1) is smooth, so isolated, of degree 1;
        # the C{t}-basis needs every weight positive
        path = tmp_path / "smooth.json"
        path.write_text(json.dumps({"variables": ["x", "y"], "weights": ["1", "-1"], "polynomial": "x"}))
        self.expect(["spectrum", str(path)], 1, "error: C{t}-basis needs positive weights", capsys)

    @pytest.mark.parametrize(
        "polynomial, monomial, at",
        [("(x + y)^1000", "1", "{path}: polynomial: "),
         ("x^2 + y^2 + z^2 + w^2", "(x+y+z)^80", "error: "),
         ("x^2 + y^2 + z^2 + w^2", "(x+y+z+w)^30", "error: "),
         ("x^2 + y^2 + z^2 + w^2", "(x+y+z+w)^25", "error: "),
         ("x^2 + y^2 + z^2 + w^2", "(x+y+y^2)^150", "error: "),
         ("x^2 + y^2 + z^2 + w^2", "(x/3+y/7)^400", "error: ")],
        ids=["problem-file", "three-terms", "four-terms", "four-terms-25", "dependent-terms", "coefficient-bits"],
    )
    def test_a_power_past_the_work_limit_is_a_bound(self, polynomial, monomial, at, tmp_path, capsys):
        # the predicted work of b^k (poly.power_work: the term pairs of the
        # binary-power products, weighted by coefficient size) over 100,000
        # is refused before b^k is expanded (exit 2); each of these takes
        # 0.5 s ((x/3+y/7)^400, refused for its coefficients) or more
        path = tmp_path / "p.json"
        germ = {"variables": ["x", "y", "z", "w"], "weights": ["1"] * 4, "polynomial": polynomial}
        path.write_text(json.dumps(germ))
        position = (polynomial if monomial == "1" else monomial).rindex("^")
        message = f"{at.format(path=path)}a power may take over 100000 term products (at position {position})"
        self.expect(["torsion", str(path), "--monomial", monomial], 2, message, capsys)

    def test_powers_under_the_work_limit_are_read(self):
        # (x+y)^200 and (x+y+z)^40 expand in about 0.1 and 0.2 s, and
        # (x+y)^400, of smaller coefficients than (x/3+y/7)^400, in 0.3 s; a
        # monomial of coefficient 1 costs one product per step, and a square
        # of 141 terms 141^2 term pairs
        xyzw = ["x", "y", "z", "w"]
        assert len(parse_polynomial("(x + y)^200 + (x + y + z)^40", xyzw)) == 201 + 861
        assert len(parse_polynomial("(x*y)^100000 + (x + y)^99 + x^100000000", ["x", "y"])) == 102
        square = "(" + " + ".join(f"x^{i}" for i in range(141)) + ")^2"
        assert len(parse_polynomial(square, ["x"])) == 281
        assert power_work(parse_polynomial("x + y", xyzw), 400) < MAX_POWER_WORK
        with pytest.raises(LimitExceeded, match="over 100000 term products"):
            parse_polynomial("(x/3 + y/7)^400", xyzw)

    @pytest.mark.parametrize(
        "argv",
        [["spectrum", "{big}"], ["analyze", "{big}"],
         ["ts", prob("a1.json"), "{big}"], ["ts", "{big}", prob("a1.json")]],
        ids=["spectrum", "analyze", "ts-second", "ts-first"],
    )
    def test_a_jacobian_quotient_past_the_box_limit_is_a_bound(self, argv, tmp_path, capsys):
        # x^100000000 is read (one term), but its quotient basis 1, x, ...,
        # x^99999998 lies in a box over 10,000 exponents
        # (groebner.MAX_QUOTIENT_BOX): refused before any is listed (exit 2)
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"variables": ["u"], "weights": ["1"], "polynomial": "u^100000000"}))
        argv = [str(path) if a == "{big}" else a for a in argv]
        self.expect(argv, 2, "error: the Jacobian quotient lies in a box of 99999999 exponents, over 10000", capsys)

    @pytest.mark.parametrize("monomial", ["x^150", "(2*x)^1000", "(2*x)^1000000"])
    def test_a_slice_walk_past_the_limit_is_a_bound(self, monomial, tmp_path, capsys):
        # the first s-block of x^150 vol on x^2 + y^2 + z^2 + w^2 lists the
        # monomials of weight 150 in four variables, over 50,000
        # (poly.MAX_SLICE_WALK): refused as the walk passes it (exit 2); without
        # the limit x^150 took about 50 s and 660 MB to exhaust its bounds
        path = tmp_path / "q4.json"
        path.write_text(json.dumps({"variables": ["x", "y", "z", "w"], "weights": ["1"] * 4,
                                    "polynomial": "x^2 + y^2 + z^2 + w^2"}))
        argv = ["torsion", str(path), "--monomial", monomial, "--max-t-power", "3", "--max-s-power", "3"]
        self.expect(argv, 2, "error: a weight slice holds over 50000 monomials", capsys)

    @pytest.mark.parametrize(
        "germ, message",
        [
            ({"variables": ["x", "y"], "weights": ["3", "2"], "polynomial": "x^2 + y^3"}, "nc needs a monomial germ"),
            ({"variables": ["x", "y"], "weights": ["1", "1"], "polynomial": "2*x*y"},
             "nc needs f = product of all variables with exponents >= 1"),
            ({"variables": ["x", "y"], "weights": ["1", "1"], "polynomial": "x^2"},
             "nc needs f = product of all variables with exponents >= 1"),
        ],
        ids=["cusp", "coefficient-two", "missing-variable"],
    )
    def test_nc_refuses_a_germ_that_is_not_a_product_of_all_variables(self, germ, message, tmp_path, capsys):
        path = tmp_path / "nc.json"
        path.write_text(json.dumps(germ))
        self.expect(["nc", str(path)], 1, f"error: {path}: {message}", capsys)

    @pytest.mark.parametrize(
        "argv, code, digest",
        [
            (["torsion", "--monomial", "1", "--max-t-power", "2", "--max-s-power", "2"], 2,
             "78a7fdbd01e4fd66b968fecec5354a85582c420a14f1e5b11ba93a5b84d2622a"),
            (["check-p", "--max-degree", "4"], 0, "a5d9834507a0e490f7ccf719d6b89b8875c12c1ad80a60ea39b2a9a12f9180f8"),
        ],
        ids=["torsion", "check-p"],
    )
    def test_commands_that_list_no_quotient_answer_past_the_box_limit(self, argv, code, digest, tmp_path, capsys):
        # J(f) = (x^19999, y) lies in a box of 19,999 exponents, over the limit;
        # isolation is read from its pure-power leads, so these answer by
        # theorem with the reports the slice route wrote (digests recorded there)
        path, report = tmp_path / "long.json", tmp_path / "report.json"
        path.write_text(json.dumps({"variables": ["x", "y"], "weights": ["1", "10000"], "polynomial": "x^20000 + y^2"}))
        assert main([argv[0], str(path), *argv[1:], "--out", str(report)]) == code
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest
        capsys.readouterr()

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["torsion", "--help"], ["micro", "-h"]])
    def test_help_and_version_exit_zero(self, argv, capsys):
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert captured.out and captured.err == ""

    def test_zero_denominator_literal(self, capsys):
        argv = ["torsion", prob("barlet35.json"), "--monomial", "1/0"]
        self.expect(argv, 1, "division by zero", capsys)

    def test_unexpected_exception_is_an_internal_error(self, monkeypatch, capsys):
        def broken(*args, **kwargs):
            raise RuntimeError("boom\non two lines")

        monkeypatch.setattr(engine, "torsion_order_t", broken)
        argv = ["torsion", prob("barlet35.json"), "--monomial", "1"]
        self.expect(argv, 3, "internal error: RuntimeError: boom on two lines", capsys)

    @pytest.mark.parametrize(
        "mutate",
        [lambda std: std[1:], lambda std: std[:-1], lambda std: [*std, (1, 0)]],
        ids=["drop-first", "drop-last", "add-x"],
    )
    def test_a_wrong_standard_monomial_is_an_invariant_violation(self, mutate, monkeypatch, capsys):
        # cusp's standard monomials are 1 and y; a C{t}-basis built on one too
        # few or one too many is caught by its slice counts or by mu
        original = groebner.standard_monomials
        monkeypatch.setattr(groebner, "standard_monomials", lambda gens: mutate(original(gens)))
        self.expect(["spectrum", prob("cusp.json")], 3, "invariant violation: ", capsys)

    def test_a_standard_monomial_of_the_wrong_key_is_an_invariant_violation(self, monkeypatch, capsys):
        # x^3 + y^3 has standard monomials 1, x, y, xy; a second x in place
        # of y keeps every weight's count but not the count of each key
        original = groebner.standard_monomials
        y_as_x = {(0, 1): (1, 0)}
        monkeypatch.setattr(groebner, "standard_monomials", lambda gens: [y_as_x.get(e, e) for e in original(gens)])
        self.expect(["spectrum", prob("x3y3.json")], 3, "new C{t}-generators of key", capsys)

    @pytest.mark.parametrize(
        "solve, message",
        [
            (lambda columns, target: None, "s^(2p) is not a combination"),
            (lambda columns, target: [Fraction(0)] * len(columns), "remark26 solution failed re-verification"),
        ],
        ids=["no-solution", "wrong-solution"],
    )
    def test_a_broken_remark_solve_is_an_invariant_violation(self, solve, message, monkeypatch, capsys):
        monkeypatch.setattr(microdiff.linalg, "solve_columns", solve)
        self.expect(["micro"], 3, f"invariant violation: {message}", capsys)

    def test_a_stray_assertion_error_is_an_internal_error(self, monkeypatch, capsys):
        def broken(*args):
            raise AssertionError("boom")

        monkeypatch.setattr(microdiff, "remark26_solve", broken)
        self.expect(["micro"], 3, "internal error: AssertionError: boom", capsys)

    @staticmethod
    def expect(argv, code, message, capsys):
        assert main(argv) == code
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert message in captured.err and "Traceback" not in captured.err


class TestCommands:
    def test_kernel_barlet(self, capsys):
        code, out = run_main(["kernel", prob("barlet35.json")], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["generator_count"] >= 4

    def test_nc(self, capsys):
        code, out = run_main(["nc", prob("nc22.json")], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["e"] == 2
        assert report["result"]["ranks"] == {"0": 2, "1": 2}
        assert report["result"]["residue_eigenvalues"]["0"] == ["0", "1/2"]
        assert report["result"]["kernel_identity"]["holds"]

    def test_micro(self, capsys):
        code, out = run_main(
            ["micro", "--factorial-bound", "6", "--integrate-bound", "20"], capsys
        )
        assert code == 0
        assert json.loads(out)["result"]["all_hold"]

    def test_ts(self, capsys):
        code, out = run_main(["ts", prob("a1.json"), prob("ts_y3.json")], capsys)
        assert code == 0
        report = json.loads(out)
        comp = report["result"]["comparison"]
        assert comp["ranks_equal"] and comp["exponents_equal"]
        assert comp["left_exponents"] == ["-1/6", "1/6"]

    def test_ts_builds_each_germ_once(self, monkeypatch, capsys):
        """One C{t}-basis each of f, g and f + g, and one sum germ, which
        the comparison and every vanishing search share."""
        calls = []

        def spy(module, name):
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name) or original(*a, **k))

        spy(engine, "ct_basis")
        spy(germ, "combined_problem")
        code, out = run_main(["ts", prob("a1.json"), prob("ts_y3.json")], capsys)
        assert code == 0 and len(json.loads(out)["result"]["vanishing"]) == 4
        assert sorted(calls) == ["combined_problem"] + ["ct_basis"] * 3

    def test_check_p(self, capsys):
        code, out = run_main(
            ["check-p", prob("nc22.json"), "--form-degree", "2", "--max-degree", "6"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["result"]["holds"] is True
        code, out = run_main(
            ["check-p", prob("barlet35.json"), "--form-degree", "3", "--max-degree", "6"],
            capsys,
        )
        assert code == 0
        assert json.loads(out)["result"]["holds"] is False

    def test_analyze_isolated(self, capsys):
        code, out = run_main(["analyze", prob("a1.json")], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["result"]["milnor_number"] == 1
        assert report["result"]["spectrum"] == ["-1/2"]

    def test_analyze_barlet_contains_kernel_and_witnesses(self, capsys):
        code, out = run_main(
            ["analyze", prob("barlet35.json"), "--max-degree", "12",
             "--max-t-power", "6", "--max-s-power", "6"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert len(report["result"]["kernel_generators"]) >= 4
        assert report["result"]["milnor_number"] == "NonIsolated"
        assert any(c["status"] == "found" for c in report["certificates"])


class TestVerifyReplay:
    def test_torsion_roundtrip(self, tmp_path, capsys):
        out_path = tmp_path / "t.json"
        code = main([
            "torsion", prob("barlet35.json"), "--monomial", "1", "--monomial", "z^2",
            "--max-t-power", "4", "--max-s-power", "4", "--out", str(out_path),
        ])
        assert code == 0
        code, out = run_main(
            ["torsion", prob("barlet35.json"), "--verify", str(out_path)], capsys
        )
        assert code == 0
        assert "verified" in out

    def test_verify_detects_tampering(self, tmp_path, capsys):
        out_path = tmp_path / "t.json"
        main(["torsion", prob("barlet35.json"), "--monomial", "1",
              "--max-t-power", "4", "--max-s-power", "4", "--out", str(out_path)])
        report = json.loads(out_path.read_text())
        report["certificates"][0]["order"] += 1
        out_path.write_text(json.dumps(report))
        code = main(["torsion", prob("barlet35.json"), "--verify", str(out_path)])
        assert code == 3

    def test_verify_kernel(self, tmp_path, capsys):
        out_path = tmp_path / "k.json"
        main(["kernel", prob("barlet35.json"), "--out", str(out_path)])
        code = main(["kernel", prob("barlet35.json"), "--verify", str(out_path)])
        assert code == 0

    def test_certificate_of_another_command_fails(self, tmp_path, capsys):
        """kernel reports carry kernel-generator certificates only: valid
        torsion certificates appended to one fail its replay."""
        path = tmp_path / "k.json"
        main(["kernel", prob("barlet35.json"), "--out", str(path)])
        main(["torsion", prob("barlet35.json"), "--monomial", "1", "--out", str(tmp_path / "t.json")])
        report = json.loads(path.read_text())
        torsion = json.loads((tmp_path / "t.json").read_text())["certificates"]
        assert (len(report["certificates"]), len(torsion)) == (6, 2)
        report["certificates"] += torsion
        path.write_text(json.dumps(report))
        capsys.readouterr()
        assert main(["kernel", prob("barlet35.json"), "--verify", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "verified 6/8 certificates\n"
        assert captured.err.splitlines() == ["verify: kernel reports carry no 'torsion' certificates"] * 2

    def test_verify_ts(self, tmp_path, capsys):
        out_path = tmp_path / "ts.json"
        main(["ts", prob("a1.json"), prob("ts_y2.json"), "--out", str(out_path)])
        code = main(["ts", prob("a1.json"), prob("ts_y2.json"), "--verify", str(out_path)])
        assert code == 0

    def test_ts_replay_builds_the_sum_germ_once(self, tmp_path, capsys, monkeypatch):
        """The vanishing certificates of one report share one sum germ, built
        at the first of them (one build per certificate would be 4 here)."""
        out_path = tmp_path / "ts.json"
        argv = ["ts", prob("cusp.json"), prob("ts_z2.json")]
        assert main([*argv, "--out", str(out_path)]) == 0
        assert [c["type"] for c in json.loads(out_path.read_text())["certificates"]] == ["vanishing"] * 4
        calls = []
        original = germ.combined_problem
        monkeypatch.setattr(germ, "combined_problem", lambda *a: calls.append(a) or original(*a))
        assert main([*argv, "--verify", str(out_path)]) == 0
        assert capsys.readouterr().out == "verified 4/4 certificates\n"
        assert len(calls) == 1

    def test_ts_replay_fails_each_certificate_when_the_sum_germ_fails(self, tmp_path, capsys, monkeypatch):
        out_path = tmp_path / "ts.json"
        argv = ["ts", prob("cusp.json"), prob("ts_z2.json")]
        assert main([*argv, "--out", str(out_path)]) == 0

        def broken(*args):
            raise ValueError("no sum germ")

        monkeypatch.setattr(germ, "combined_problem", broken)
        assert main([*argv, "--verify", str(out_path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "verified 0/4 certificates\n"
        assert captured.err.splitlines() == ["verify: certificate error: no sum germ"] * 4

    def test_digest_mismatch(self, tmp_path, capsys):
        out_path = tmp_path / "s.json"
        main(["torsion", prob("barlet35.json"), "--monomial", "1",
              "--max-t-power", "4", "--max-s-power", "4", "--out", str(out_path)])
        code = main(["torsion", prob("cusp.json"), "--verify", str(out_path)])
        assert code == 1

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda report: [], "report top level must be an object"),
            (lambda report: [report], "report top level must be an object"),
            (lambda report: "kernel", "report top level must be an object"),
            (lambda report: {**report, "certificates": 5}, "certificates must be a list"),
            (lambda report: {**report, "certificates": {}}, "certificates must be a list"),
            (lambda report: {**report, "certificates": None}, "certificates must be a list"),
            (None, "malformed JSON: "),
        ],
        ids=[
            "empty-list", "wrapped-in-list", "string",
            "certificates-number", "certificates-object", "certificates-null", "malformed-json",
        ],
    )
    def test_malformed_report_is_bad_input(self, change, message, tmp_path, capsys):
        """Otherwise a valid report (its command and input digest match)."""
        path = tmp_path / "k.json"
        main(["kernel", prob("cusp.json"), "--out", str(path)])
        report = json.loads(path.read_text())
        path.write_text("{" if change is None else json.dumps(change(report)))
        capsys.readouterr()
        code = main(["kernel", prob("cusp.json"), "--verify", str(path)])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(f"verify: {path}: {message}")

    @pytest.mark.parametrize("bad", [5, "kernel-generator", [], None], ids=repr)
    def test_non_object_certificate_is_a_failed_certificate(self, bad, tmp_path, capsys):
        path = tmp_path / "k.json"
        main(["kernel", prob("cusp.json"), "--out", str(path)])
        capsys.readouterr()
        report = json.loads(path.read_text())
        n = len(report["certificates"])
        assert n > 0
        report["certificates"].insert(0, bad)
        path.write_text(json.dumps(report))
        code = main(["kernel", prob("cusp.json"), "--verify", str(path)])
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == f"verified {n}/{n + 1} certificates\n"
        assert captured.err.splitlines() == [
            f"verify: certificate is not an object ({type(bad).__name__})"
        ]


def laurent_terms():
    """The terms of d(x^-1 df) for barlet35: exact and df-killed, so adding
    them to a t-witness keeps both of its identities, but x^-2*y^4 dx^dy
    makes the sum a Laurent form, not a polynomial one."""
    return [
        {"coeff": "-1", "exponents": [-2, 4, 0], "wedge": ["x", "y"]},
        {"coeff": "-1", "exponents": [1, 2, 1], "wedge": ["x", "y"]},
        {"coeff": "-1/3", "exponents": [1, 3, 0], "wedge": ["x", "z"]},
    ]


def order_at_the_degree_bound(cert):
    """Order 10^6 and a witness term of coefficient degree 7 * 10^6 =
    order * deg f + deg rep (barlet35's f has degree 7, the class 1 degree 0):
    d of it cannot reach f^order * rep."""
    cert.update(order=10**6)
    cert["witness"][0].append({"coeff": "1", "exponents": [7 * 10**6, 0, 0], "wedge": ["x", "y"]})


def order_past_the_degree_bound(cert):
    """Order 10^6 and a witness term one degree above order * deg f + deg rep:
    the degree check passes, and only the search bound stops replay from
    expanding f^order."""
    cert.update(order=10**6)
    cert["witness"][0].append({"coeff": "1", "exponents": [7 * 10**6 + 1, 0, 0], "wedge": ["x", "y"]})


def target_at_the_degree_bound(cert):
    """k = 10^6 and the target 2 z^e dx^dy^dz at the degree the check expects,
    e = deg rep_f + (k + 1) * deg g - 1 with g = z^2: only --k-max stops
    replay from expanding g^k."""
    k = 10**6
    top = max(sum(term["exponents"]) for term in cert["f_class"]["form"])
    cert.update(k=k, target=[{"coeff": "2", "exponents": [0, 0, top + 2 * (k + 1) - 1], "wedge": ["x", "y", "z"]}])


class TestReplayRefusesForgeries:
    """A forged certificate fails replay even where it would pass the
    checks of its identities once reinterpreted."""

    @pytest.mark.parametrize(
        "forge, message",
        [
            (lambda c: c["witness"][0][0].update(exponents=[3.4, 3.4, 2.4]), "are not non-negative integers"),
            (lambda c: c["witness"][0][0].update(exponents=[3, True, 2]), "are not non-negative integers"),
            (lambda c: c["witness"][0][0].update(coeff="0.5"), "'0.5' is not a rational literal"),
            (lambda c: c["witness"][0][0].update(coeff=0.5), "0.5 is not a rational literal"),
            (lambda c: c["witness"][0][0].update(coeff="1/0"), "'1/0' has a zero denominator"),
            (lambda c: c["witness"][0].extend(laurent_terms()), "[-2, 4, 0] are not non-negative integers"),
            (lambda c: c.update(order=True), "order must be a non-negative integer, got True"),
            (lambda c: c.update(order=1.0), "order must be a non-negative integer, got 1.0"),
            (lambda c: c.update(kind="t-anything"), "certificate error: 't-anything'"),
            (lambda c: c.update(degree=7), "certificate error: degree is 7, but the class has 3"),
            (lambda c: c.update(degree=3.0), "degree must be a non-negative integer, got 3.0"),
            (lambda c: c.update(order=10**6), None),
            (order_at_the_degree_bound, None),
            (order_past_the_degree_bound, "certificate error: t-order 1000000 is above the search bound 10"),
        ],
        ids=["exponents-float", "exponent-bool", "coeff-decimal", "coeff-number",
             "coeff-zero-denominator", "laurent-witness", "order-bool", "order-float", "kind-unknown",
             "degree-7", "degree-float", "order-million", "order-million-witness-at-bound",
             "order-million-witness-past-bound"],
    )
    def test_forged_t_certificate(self, forge, message, tmp_path, capsys, monkeypatch):
        """A message of None: the forms are well formed and the check fails
        without one.  A forged order is refused by the witness's degree or,
        past it, by the problem file's max_t_power, so replay never expands
        f^order: the spy on powers refuses large ones."""
        path = tmp_path / "t.json"
        argv = ["torsion", prob("barlet35.json"), "--monomial", "1"]
        assert main([*argv, "--out", str(path)]) == 0
        report = json.loads(path.read_text())
        t_cert = report["certificates"][0]
        assert t_cert["kind"] == "t-torsion" and len(report["certificates"]) == 2
        forge(t_cert)
        path.write_text(json.dumps(report))
        capsys.readouterr()
        powers = []
        power = Polynomial.__pow__

        def spy(self, n):
            powers.append(n)
            if n > 1000:
                raise AssertionError(f"f^{n} expanded")
            return power(self, n)

        monkeypatch.setattr(Polynomial, "__pow__", spy)
        assert main([*argv, "--verify", str(path)]) == 3
        assert all(n < 10**6 for n in powers)
        captured = capsys.readouterr()
        assert captured.out == "verified 1/2 certificates\n"
        if message is None:
            assert captured.err == ""
        else:
            assert message in captured.err and len(captured.err.splitlines()) == 1

    @pytest.mark.parametrize(
        "forge",
        [
            lambda c: c.update(witness=c["witness"][:-1], order=c["order"] - 1),
            lambda c: c.update(witness=c["witness"] + c["witness"][-1:], order=c["order"] + 1),
            lambda c: c.update(order=c["order"] + 1),
            lambda c: c["witness"][0].extend(c["witness"][0]),
            lambda c: c.update(witness=[], order=0),
        ],
        ids=["drop-last-link", "append-link", "order-not-length", "double-first-link", "order-0-empty"],
    )
    def test_forged_s_certificate(self, forge, tmp_path, capsys):
        """Each way the chain check can fail: the length, the first link
        (d(chain[0]) = rep), a middle link (d(chain[j]) = df wedge chain[j-1])
        and the last (df wedge chain[-1] = 0).  The forms are well formed, so
        the check fails without a message."""
        path = tmp_path / "s.json"
        argv = ["torsion", prob("barlet35.json"), "--monomial", "1"]
        assert main([*argv, "--out", str(path)]) == 0
        report = json.loads(path.read_text())
        s_cert = report["certificates"][1]
        assert (s_cert["kind"], s_cert["order"], len(s_cert["witness"])) == ("s-torsion", 2, 2)
        forge(s_cert)
        path.write_text(json.dumps(report))
        capsys.readouterr()
        assert main([*argv, "--verify", str(path)]) == 3
        assert capsys.readouterr() == ("verified 1/2 certificates\n", "")

    @pytest.mark.parametrize(
        "forge, message",
        [
            (lambda c: c["eta"].extend(c["eta"]), None),
            (lambda c: c.update(eta=[], target=[]), "vanishing target is not f_class wedge g^k dg"),
            (lambda c: c.update(k=99), "vanishing target is not f_class wedge g^k dg"),
            (lambda c: c.update(k=10**6), "vanishing target is not f_class wedge g^k dg"),
            (lambda c: c.update(k=-1), "certificate error: k must be a non-negative integer, got -1"),
            (lambda c: c.update(k=True), "certificate error: k must be a non-negative integer, got True"),
            (lambda c: c["f_class"].update(form=[]), "certificate error: zero representative needs an explicit weight"),
            (lambda c: c["f_class"].update(weight="99"), "certificate error: class weight is '99', but the class has '5'"),
            (target_at_the_degree_bound, "certificate error: k 1000000 is above --k-max 3"),
        ],
        ids=["double-eta", "empty-eta-and-target", "k-99", "k-million", "k-negative", "k-bool", "f-class-zero",
             "f-class-weight", "k-million-target-at-bound"],
    )
    def test_forged_vanishing_certificate(self, forge, message, tmp_path, capsys, monkeypatch):
        """A forged k is refused by the target's degree or, at a matching
        degree, by --k-max, so replay never expands g^k: the spy on powers
        refuses large ones."""
        path = tmp_path / "ts.json"
        argv = ["ts", prob("cusp.json"), prob("ts_z2.json")]
        assert main([*argv, "--out", str(path)]) == 0
        report = json.loads(path.read_text())
        n = len(report["certificates"])
        assert n == 4 and all(c["type"] == "vanishing" for c in report["certificates"])
        for cert in report["certificates"]:
            forge(cert)
        path.write_text(json.dumps(report))
        capsys.readouterr()
        powers = []
        power = Polynomial.__pow__

        def spy(self, n):
            powers.append(n)
            if n > 1000:
                raise AssertionError(f"g^{n} expanded")
            return power(self, n)

        monkeypatch.setattr(Polynomial, "__pow__", spy)
        assert main([*argv, "--verify", str(path)]) == 3
        assert all(n < 10**6 for n in powers)
        captured = capsys.readouterr()
        assert captured.out == f"verified 0/{n} certificates\n"
        assert captured.err.splitlines() == ([] if message is None else [f"verify: {message}"] * n)

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("weight", "99", "class weight is '99', but the class has '{weight}'"),
            ("exponent", "7/3", "class exponent is '7/3', but the class has '{exponent}'"),
            ("weight", 7, "class weight is 7, but the class has '{weight}'"),
        ],
        ids=["weight-99", "exponent-7/3", "weight-number"],
    )
    def test_forged_analyze_class(self, key, value, message, tmp_path, capsys):
        """analyze certificates carry their class; its weight and exponent
        must be the rebuilt class's, written as format_rational writes them."""
        path = tmp_path / "a.json"
        argv = ["analyze", prob("barlet35.json"), "--max-t-power", "3", "--max-s-power", "3", "--max-degree", "10"]
        assert main([*argv, "--out", str(path)]) == 0
        report = json.loads(path.read_text())
        certs = report["certificates"]
        assert len(certs) == 4 and all(c["type"] == "torsion" for c in certs)
        expected = [f"verify: certificate error: {message.format(**c['class'])}" for c in certs]
        for cert in certs:
            cert["class"][key] = value
        path.write_text(json.dumps(report))
        capsys.readouterr()
        assert main([*argv, "--verify", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "verified 0/4 certificates\n"
        assert captured.err.splitlines() == expected

    def test_f_class_must_be_a_class_of_f(self, tmp_path, capsys):
        """A representative that df-wedge does not kill is refused by CohomologyClass."""
        path = tmp_path / "ts.json"
        argv = ["ts", prob("cusp.json"), prob("ts_z2.json")]
        main([*argv, "--out", str(path)])
        report = json.loads(path.read_text())
        for cert in report["certificates"]:
            cert["f_class"].update(degree=1, form=[{"coeff": "1", "exponents": [0, 0], "wedge": ["x"]}])
        path.write_text(json.dumps(report))
        capsys.readouterr()
        assert main([*argv, "--verify", str(path)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "verified 0/4 certificates\n"
        assert "representative not in Ker(df-wedge)" in captured.err


class TestMultiKeyTorsionReports:
    """Representatives whose terms lie in two key classes of barlet35 (see
    README, "Key classes"); the searches restrict their blocks to the union
    of the classes.  No benchmark workload runs these, so their reports are
    pinned here: the sha256 values were recorded before the restriction."""

    @pytest.mark.parametrize(
        "monomial, code, digest",
        [
            ("x+y", 0, "2480ecb7a5884ef407c1f8c1423ae272a9083900b39b57f46f4f02df86183030"),
            ("x*y+y^2", 2, "47db7abef5777460836d5e717f2eab27dd7abcf622247d11930315f816410301"),
        ],
    )
    def test_report_is_byte_identical(self, monomial, code, digest, tmp_path, capsys):
        report = tmp_path / "r.json"
        assert main(["torsion", prob("barlet35.json"), "--monomial", monomial, "--out", str(report)]) == code
        assert hashlib.sha256(report.read_bytes()).hexdigest() == digest
        capsys.readouterr()


def child_env(**extra):
    """The environment of a child python that finds the package in src/,
    whether or not the parent's path has it."""
    src = os.path.join(ROOT, "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])), **extra}


class TestRepeatedCalls:
    """main may be called again and again in one process: it builds its
    parser once, and no call leaves anything behind for the next one."""

    # --monomial appends to a list, --seed has a default: neither may leak
    SEQUENCE = [
        ["torsion", prob("cusp.json"), "--monomial", "x", "--monomial", "1"],
        ["torsion", prob("cusp.json")],
        ["analyze", prob("cusp.json"), "--seed", "5"],
        ["analyze", prob("cusp.json")],
        ["spectrum", prob("cusp.json"), "--max-degree", "3"],
        ["kernel", prob("cusp.json"), "--format", "text"],
        ["--help"],
        ["--version"],
        ["--help"],
        ["--version"],
    ]

    @staticmethod
    def call(argv, capsys):
        """(exit code, stdout, stderr) of one in-process main call."""
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @staticmethod
    def alone(argv):
        """(exit code, stdout, stderr) of the command in a process of its own."""
        proc = subprocess.run(
            [sys.executable, "-m", "brieskorn.cli", *argv],
            capture_output=True, text=True, timeout=120, env=child_env(COLUMNS="80"),
        )
        return proc.returncode, proc.stdout, proc.stderr

    def test_each_call_matches_its_own_process(self, monkeypatch, capsys):
        monkeypatch.setenv("COLUMNS", "80")  # --help wraps at the same width in both
        capsys.readouterr()
        results = {}
        for argv in self.SEQUENCE:
            got = self.call(argv, capsys)
            if tuple(argv) not in results:
                results[tuple(argv)] = self.alone(argv)
            assert got == results[tuple(argv)], argv
        codes = [results[tuple(argv)][0] for argv in self.SEQUENCE]
        # cusp is isolated: no top class is torsion, so both searches exhaust (exit 2)
        assert codes == [2, 2, 0, 0, 1, 0, 0, 0, 0, 0]
        torsion = [json.loads(results[tuple(argv)][1]) for argv in self.SEQUENCE[:2]]
        assert [c["monomial"] for c in torsion[0]["result"]["classes"]] == ["x", "1"]
        assert [c["monomial"] for c in torsion[1]["result"]["classes"]] == ["1"]
        seeds = [json.loads(results[tuple(argv)][1])["bounds"]["seed"] for argv in self.SEQUENCE[2:4]]
        assert seeds == [5, 0]
        message = results[tuple(self.SEQUENCE[4])][2]
        assert message.startswith("error: unrecognized arguments: --max-degree 3")
        assert len(message.splitlines()) == 1

    def test_no_second_parser(self, monkeypatch, capsys):
        self.call(["--version"], capsys)  # the parser exists from here on
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for argv in self.SEQUENCE:
            self.call(argv, capsys)
        assert built == []

    def test_a_second_spectrum_compares_no_polynomials(self, monkeypatch, capsys):
        """The partials of f are kept on f itself, so no cache shared across
        calls compares the germ of a new command with an equal earlier one."""
        argv = ["spectrum", prob("cusp.json")]
        first = self.call(argv, capsys)
        compared = []
        eq = Polynomial.__eq__

        def spy(self, other):
            compared.append(other)
            return eq(self, other)

        monkeypatch.setattr(Polynomial, "__eq__", spy)
        assert self.call(argv, capsys) == first
        assert compared == []

    def test_walks_are_kept_per_germ_and_dropped_with_it(self, tmp_path, monkeypatch, capsys):
        """spectrum of x^3+y^4+z^5+w^6 (mu = 120) asks for 680 slice walks
        and walks 278 of them: the rest are repeats on the germ's Cosets, the
        second ct_basis among them.  A second call walks them all again."""
        path = tmp_path / "bp3456.json"
        path.write_text(json.dumps({
            "name": "bp3456", "variables": ["x", "y", "z", "w"], "weights": ["20", "15", "12", "10"],
            "polynomial": "x^3 + y^4 + z^5 + w^6", "options": {},
        }))
        created, calls = [], []
        init, walk = Cosets.__init__, engine.iter_monomials_of_weight
        monkeypatch.setattr(Cosets, "__init__", lambda self, *args: (init(self, *args), created.append(self))[0])
        monkeypatch.setattr(engine, "iter_monomials_of_weight", lambda *args: calls.append(args) or walk(*args))
        first = self.call(["spectrum", str(path)], capsys)
        for _ in range(2):
            del created[:], calls[:]
            assert self.call(["spectrum", str(path)], capsys) == first
            assert (len(calls), sum(len(c.walks) for c in created)) == (680, 278)

    def test_import_builds_no_parser(self):
        """A fresh process, so the check does not depend on what pytest imported first."""
        script = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: (built.append(1), init(self, *a, **k))[1]\n"
            "import brieskorn.cli\n"
            "at_import = len(built)\n"
            "brieskorn.cli.main(['spectrum', 'missing.json'])\n"
            "print(at_import, len(built))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=child_env(),
        )
        at_import, after_main = map(int, proc.stdout.split())
        assert at_import == 0
        assert after_main > 0


class TestWeightScaling:
    """Multiplying the weights by a positive rational changes no result, only
    the problem block: the grading W = L*w changes by a factor at most."""

    @pytest.mark.parametrize(
        "name, weights, polynomial",
        [("cusp", ["3", "2"], "x^2 + y^3"), ("x3y3", ["1", "1"], "x^3 + y^3"), ("e7", ["3", "2"], "x^3 + x*y^3")],
    )
    def test_scaled_weights_give_the_same_results(self, name, weights, polynomial, tmp_path, capsys):
        variables = ["x", "y"]

        def reports(ws):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"name": name, "variables": variables, "weights": ws, "polynomial": polynomial}))
            out = {}
            for command in ("spectrum", "kernel"):
                code, text = run_main([command, str(path)], capsys)
                report = json.loads(text)
                assert report["result"].pop("problem")["weights"] == ws
                del report["input_digest"]  # the file's bytes differ
                out[command] = (code, report)
            return out

        def basis(ws):
            problem = engine.GermProblem(variables, ws, parse_polynomial(polynomial, variables))
            return engine.ct_basis(problem)

        base, base_basis = reports(weights), basis(weights)
        if name == "cusp":
            assert base["spectrum"][1]["result"]["spectrum"] == ["-1/6", "1/6"]
        for factor in (Fraction(2), Fraction(3, 5), Fraction(1, 5), Fraction(1, 6)):
            scaled = [format_rational(Fraction(w) * factor) for w in weights]
            assert reports(scaled) == base, scaled
            got = basis(scaled)
            assert [(c.tdt_eigenvalue(), c.representative) for c in got] == [
                (c.tdt_eigenvalue(), c.representative) for c in base_basis
            ]
            assert [c.weight for c in got] == [c.weight * factor for c in base_basis]


class TestScriptEntry:
    def test_subprocess_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "brieskorn.cli", "spectrum", prob("a1.json")],
            capture_output=True, text=True, timeout=120, env=child_env(),
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["spectrum"] == ["-1/2"]

    @pytest.mark.parametrize("args", [
        ["torsion", prob("barlet35.json"), "--monomial", "1", "--monomial", "z", "--monomial", "x*y"],
        ["kernel", prob("barlet35w.json")],
        ["analyze", prob("nc22.json")],
    ])
    def test_report_bytes_do_not_depend_on_the_hash_seed(self, args):
        # the golden reports run in one process, under one seed of str hashing
        first, second = (
            subprocess.run(
                [sys.executable, "-m", "brieskorn.cli", *args],
                capture_output=True, timeout=120, env=child_env(PYTHONHASHSEED=seed),
            )
            for seed in ("0", "1")
        )
        # torsion exits 2: the s-search of z on barlet35 ends not-found-within
        assert first.returncode == second.returncode == (2 if args[0] == "torsion" else 0)
        assert first.stdout == second.stdout and json.loads(first.stdout)["command"] == args[0]
