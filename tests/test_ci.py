"""The CI workflow parses and runs the tier-1 command (ROADMAP.md, "Tier-1 verify"),
after installing the test dependencies from their one list in pyproject.toml,
and in a second job the benchmark's checks on each of its workloads;
every source file parses as the oldest Python that pyproject.toml admits, and
the installed console script runs the tested `cli.main`."""

import ast
import importlib
import json
import os

import pytest

from brieskorn import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TIER1 = "PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors"


def test_tier1_workflow():
    yaml = pytest.importorskip("yaml")
    with open(os.path.join(ROOT, ".github", "workflows", "tier1.yml"), encoding="utf-8") as fh:
        workflow = yaml.safe_load(fh)
    assert set(workflow["on"]) == {"push", "pull_request"}
    # a runaway search must not hold a runner for the 6-hour default
    assert workflow["jobs"]["tests"]["timeout-minutes"] == 15
    # the oldest Python that pyproject.toml admits, and each later one
    assert workflow["jobs"]["tests"]["strategy"]["matrix"] == {"python-version": ["3.10", "3.11", "3.12", "3.13"]}
    steps = workflow["jobs"]["tests"]["steps"]
    assert {"python-version": "${{ matrix.python-version }}"} in [s.get("with") for s in steps]
    assert [s["run"] for s in steps if "run" in s] == ['pip install -e ".[test]"', TIER1]


BENCH_SMOKE = """\
for workload in torsion-barlet35 spectrum-bp corpus-cli; do
  last=$(python3 perfbench/run.py --workload "$workload" --seed 1 --seconds 2 --trace 0 | tail -n 1)
  echo "$workload: $last"
  python3 -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(r["correct"] is not True or r["failed"] != 0)' "$last"
done
last=$(python3 perfbench/run.py --workload spectrum-bp --seed 1 --seconds 2 --trace 1 | tail -n 1)
echo "spectrum-bp traced: $last"
python3 -c 'import json, sys; r = json.loads(sys.argv[1]); sys.exit(r["correct"] is not True or r["failed"] != 0)' "$last"
"""


def test_bench_smoke_workflow():
    # the benchmark's own checks (golden report digests, closed-form oracles,
    # replays), which tier-1 does not run, on each workload for two seconds,
    # then once more on spectrum-bp through the tracer's wrappers
    yaml = pytest.importorskip("yaml")
    with open(os.path.join(ROOT, ".github", "workflows", "tier1.yml"), encoding="utf-8") as fh:
        job = yaml.safe_load(fh)["jobs"]["bench-smoke"]
    assert job["timeout-minutes"] == 15
    steps = job["steps"]
    assert {"python-version": "3.11"} in [s.get("with") for s in steps]
    # bash on the runner is -e with pipefail, so a failing run.py fails the step too
    assert [(s["shell"], s["run"]) for s in steps if "run" in s] == [("bash", BENCH_SMOKE)]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = [w["name"] for w in json.load(fh)["workloads"]]
    assert BENCH_SMOKE.splitlines()[0] == f"for workload in {' '.join(declared)}; do"


def test_test_extra_holds_every_test_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    # pyyaml: this module's own workflow check
    assert sorted(project["optional-dependencies"]["test"]) == ["hypothesis", "pytest", "pyyaml", "sympy"]


def test_console_script_is_the_tested_main():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["brieskorn"]
    module, _, attr = target.partition(":")
    assert getattr(importlib.import_module(module), attr) is cli.main


def test_tier1_collects_tests_and_perfbench():
    # so tier-1 runs the work-counter pin, perfbench/test_counters.py (README, "Tests")
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        options = tomllib.load(fh)["tool"]["pytest"]["ini_options"]
    assert options["testpaths"] == ["tests", "perfbench"]


def test_sources_parse_as_the_oldest_supported_python():
    # a check that needs no 3.10 interpreter: syntax that needs more than
    # requires-python would fail on install
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        assert tomllib.load(fh)["project"]["requires-python"] == ">=3.10"
    paths = [
        os.path.join(dirpath, name)
        for top in ("src", "tests", "perfbench")
        for dirpath, _dirs, names in os.walk(os.path.join(ROOT, top))
        for name in names
        if name.endswith(".py")
    ]
    assert len(paths) > 20
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            ast.parse(fh.read(), filename=path, feature_version=(3, 10))
