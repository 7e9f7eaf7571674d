"""The CI workflow parses and runs the tier-1 command (ROADMAP.md, "Tier-1 verify"),
after installing the test dependencies from their one list in pyproject.toml,
and every source file parses as the oldest Python that pyproject.toml admits."""

import ast
import os

import pytest

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


def test_test_extra_holds_every_test_dependency():
    tomllib = pytest.importorskip("tomllib")
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as fh:
        project = tomllib.load(fh)["project"]
    # pyyaml: this module's own workflow check
    assert sorted(project["optional-dependencies"]["test"]) == ["hypothesis", "pytest", "pyyaml", "sympy"]


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
