"""Replay runs on the solver-free core: what `import brieskorn.replay` loads,
and replays of reports through brieskorn.replay alone."""

import argparse
import itertools
import json
import subprocess
import sys

from test_cli import child_env, prob

from brieskorn import replay
from brieskorn.cli import main
from brieskorn.problemfile import load_problem_file


def test_replay_loads_only_the_germ_core():
    """A fresh process, so the check does not depend on what pytest imported first."""
    script = (
        "import sys\n"
        "import brieskorn.replay\n"
        "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'brieskorn')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.split()
    assert loaded == [
        "brieskorn",
        "brieskorn.forms",
        "brieskorn.germ",
        "brieskorn.poly",
        "brieskorn.problemfile",
        "brieskorn.replay",
    ]


def test_four_variable_torsion_report_replays(tmp_path, capsys):
    """barlet35 + w^5, the corpus germ with four variables and key group (Z/5)^2."""
    path = prob("barlet35w.json")
    problem = load_problem_file(path).problem
    keys = {problem.key((), e) for e in itertools.product(range(6), repeat=4) if problem.grading.monomial(e) == 4}
    assert len(keys) == 25
    bounds = ["--max-t-power", "4", "--max-s-power", "4", "--max-degree", "10"]
    argv = ["torsion", path, "--monomial", "1", "--monomial", "x^2*y^3*z^2*w", *bounds]
    out_path = tmp_path / "w.json"
    assert main([*argv, "--out", str(out_path)]) == 2
    classes = json.loads(out_path.read_text())["result"]["classes"]
    found, exhausted = classes
    assert (found["t"]["status"], found["t"]["order"]) == ("found", 1)
    assert (found["s"]["status"], found["s"]["order"]) == ("found", 2)
    for search in ("t", "s"):
        assert exhausted[search] == {
            "kind": f"{search}-torsion", "status": "not-found-within", "bound": 4, "cap_limited": True,
        }
    capsys.readouterr()
    args = argparse.Namespace(command="torsion", verify=str(out_path), max_degree=10, max_t_power=4, max_s_power=4)
    assert replay.verify_report(args, (load_problem_file(path),)) == replay.EXIT_OK
    assert capsys.readouterr().out == "verified 2/2 certificates\n"


def test_a_type_that_is_not_a_string_names_no_checker(tmp_path, capsys):
    out_path = tmp_path / "k.json"
    assert main(["kernel", prob("cusp.json"), "--out", str(out_path)]) == 0
    report = json.loads(out_path.read_text())
    n = len(report["certificates"])
    report["certificates"].append({"type": ["kernel-generator"]})
    out_path.write_text(json.dumps(report))
    capsys.readouterr()
    assert main(["kernel", prob("cusp.json"), "--verify", str(out_path)]) == 3
    captured = capsys.readouterr()
    assert captured.out == f"verified {n}/{n + 1} certificates\n"
    assert captured.err.splitlines() == ["verify: kernel reports carry no ['kernel-generator'] certificates"]
