"""Golden diff: reports of the benchmark's commands stay byte-identical.

The benchmark (perfbench/) records the exit code and report sha256 of every
command it runs in perfbench/golden.json.  This test builds the corpus-cli
workload and the found torsion-barlet35 commands with the shipped variable
names, runs each through cli.main and compares against that file, which it
only reads.
"""

import json
import os
import sys

from brieskorn import cli, groebner

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")
sys.path.insert(0, PERFBENCH)

import run  # noqa: E402
import workloads  # noqa: E402

with open(run.GOLDEN, encoding="utf-8") as fh:
    GOLDEN = json.load(fh)

# torsion-barlet35 classes whose t- and s-searches both find a certificate
FOUND_TORSION = ("1", "z^2", "x*y")


def test_reports_match_the_recorded_golden(tmp_path, monkeypatch, capsys):
    corpus = workloads.build("corpus-cli", 0, str(tmp_path / "corpus"), ROOT, names_index=0)
    torsion = workloads.build("torsion-barlet35", 0, str(tmp_path / "torsion"), ROOT, names_index=0)
    found = [c for c in torsion.commands if c.argv[3] in FOUND_TORSION]
    assert len(found) == len(FOUND_TORSION)
    digests = {p: run.file_sha256(p) for p in corpus.problems + torsion.problems}
    for i, cmd in enumerate(corpus.commands + found):
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
    capsys.readouterr()
