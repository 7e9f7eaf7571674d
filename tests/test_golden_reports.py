"""Golden diff: reports of the benchmark's commands stay byte-identical.

The benchmark (perfbench/) records the exit code and report sha256 of every
command it runs in perfbench/golden.json.  This test builds the corpus-cli,
torsion-barlet35 and spectrum-bp workloads with the shipped variable names,
runs each command through cli.main and compares against that file, which it
only reads.  Each spectrum report of a Brieskorn-Pham germ is also checked
against the closed forms (run.spectrum_oracle).
"""

import json
import os
import sys

import pytest

from brieskorn import cli, groebner

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
import workloads  # noqa: E402

with open(run.GOLDEN, encoding="utf-8") as fh:
    GOLDEN = json.load(fh)

# every torsion-barlet35 class: z and x^2*y^3*z^2 exhaust a search (exit 2)
TORSION_CLASSES = ("1", "z", "z^2", "x*y", "x^2*y^3*z^2")


def test_reports_match_the_recorded_golden(tmp_path, monkeypatch, capsys):
    corpus = workloads.build("corpus-cli", 0, str(tmp_path / "corpus"), ROOT, names_index=0)
    torsion = workloads.build("torsion-barlet35", 0, str(tmp_path / "torsion"), ROOT, names_index=0)
    spectra = workloads.build("spectrum-bp", 0, str(tmp_path / "spectra"), ROOT, names_index=0)
    assert sorted(c.argv[3] for c in torsion.commands) == sorted(TORSION_CLASSES)
    assert len(spectra.commands) == 2
    digests = {p: run.file_sha256(p) for p in corpus.problems + torsion.problems + spectra.problems}
    oracles = 0
    for i, cmd in enumerate(corpus.commands + torsion.commands + spectra.commands):
        # every command starts with the process-global Groebner cache empty
        monkeypatch.setattr(groebner, "_cache", type(groebner._cache)())
        key = run.command_key(cmd.argv, digests)
        expected = GOLDEN[key]
        report = tmp_path / f"report-{i}.json"
        assert cli.main([*cmd.argv, "--out", str(report)]) == expected["exit"], key
        if expected["report_sha256"] is None:
            assert not report.exists(), key
        else:
            assert run.file_sha256(str(report)) == expected["report_sha256"], key
        if cmd.oracle is not None:
            oracles += 1
            assert run.spectrum_oracle(json.loads(report.read_text()), cmd.oracle) is None, key
    # spectrum on a1, cusp, x3y3, smooth and on both generated germs
    assert oracles == 6
    capsys.readouterr()


# The four-variable germ barlet35 + w^5, key group (Z/5)^2, which no workload
# runs: both searches for x^2*y^3*z^2*w exhaust their bounds (exit 2).  The
# digest was recorded when the slice enumeration still tested the key at
# its leaves.
BARLET35W_EXHAUSTED = "afe7982ba74e9a80df26987872e6cc77f6312ff9d4f9c1c249275e6e3cf16db3"


def test_barlet35w_exhausted_search_report_is_pinned(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(groebner, "_cache", type(groebner._cache)())
    report = tmp_path / "barlet35w.json"
    argv = ["torsion", os.path.join(ROOT, "problems", "barlet35w.json"), "--monomial", "x^2*y^3*z^2*w",
            "--max-degree", "12", "--max-t-power", "12", "--max-s-power", "12", "--out", str(report)]
    assert cli.main(argv) == 2
    assert run.file_sha256(str(report)) == BARLET35W_EXHAUSTED
    capsys.readouterr()


# Reports no workload runs whose fields cli derives from what the checkers
# return: (argv, exit code, report sha256).  barlet35 fails (P') at degree 3
# with a witness and cap_relative: true; barlet35w fails it at degree 4.
PINNED_REPORTS = [
    (["check-p", "barlet35.json", "--form-degree", "3", "--max-degree", "6"], 0,
     "953fca9e4afac1d850b38b86cb1b04e7932bfd9e58773b812746ab7e61bbf4d6"),
    (["check-p", "barlet35w.json", "--max-degree", "14"], 0,
     "d8d65c8266f5931486952d07e861e799468ef2dab99e5d72b38e8d56bde2d4b8"),
    (["micro", "--factorial-bound", "10", "--remark-bound", "7", "--commutator-bound", "25"], 0,
     "1d1f8086ab0c70613ae8500f142cbee9ed317b3eb2aca36f924206090f9f2348"),
    (["ts", "cusp.json", "ts_z2.json", "--k-max", "5"], 0,
     "5bc2cd90196953f360e1dceb77b3f2b27c7748a869b092b1210bf3b08727a173"),
]


@pytest.mark.parametrize("argv, exit_code, digest", PINNED_REPORTS, ids=[" ".join(a) for a, *_ in PINNED_REPORTS])
def test_reshaped_reports_are_pinned(argv, exit_code, digest, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(groebner, "_cache", type(groebner._cache)())
    report = tmp_path / "report.json"
    argv = [os.path.join(ROOT, "problems", a) if a.endswith(".json") else a for a in argv]
    assert cli.main([*argv, "--out", str(report)]) == exit_code
    assert run.file_sha256(str(report)) == digest
    capsys.readouterr()
