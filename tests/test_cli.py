"""CLI: report shape, determinism, exit codes, verify replay."""

import json
import os
import subprocess
import sys

import pytest

from brieskorn.cli import main

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
        ],
    )
    def test_zero_is_reported(self, argv, bounds, capsys):
        code, out = run_main([argv[0], prob(argv[1]), *argv[2:]], capsys)
        assert code == 0
        assert json.loads(out)["bounds"].items() >= bounds.items()

    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["torsion", "barlet35.json", "--monomial", "1", "--max-t-power", "0"],
             1, "p_max must be >= 1"),
            (["torsion", "barlet35.json", "--monomial", "1", "--max-s-power", "0"],
             1, "r_max must be >= 1"),
            (["nc", "nc22.json", "--max-degree", "0"], 2, "degree bound must be >= 1"),
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

    def test_verify_ts(self, tmp_path, capsys):
        out_path = tmp_path / "ts.json"
        main(["ts", prob("a1.json"), prob("ts_y2.json"), "--out", str(out_path)])
        code = main(["ts", prob("a1.json"), prob("ts_y2.json"), "--verify", str(out_path)])
        assert code == 0

    def test_digest_mismatch(self, tmp_path, capsys):
        out_path = tmp_path / "s.json"
        main(["torsion", prob("barlet35.json"), "--monomial", "1",
              "--max-t-power", "4", "--max-s-power", "4", "--out", str(out_path)])
        code = main(["torsion", prob("cusp.json"), "--verify", str(out_path)])
        assert code == 1


class TestScriptEntry:
    def test_subprocess_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "brieskorn.cli", "spectrum", prob("a1.json")],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["spectrum"] == ["-1/2"]
