"""Problem-file validation."""

import json

import pytest

from brieskorn.problemfile import ProblemFileError, load_problem_file


def write(tmp_path, payload):
    path = tmp_path / "p.json"
    path.write_text(json.dumps(payload) if isinstance(payload, dict) else payload)
    return str(path)


GOOD = {
    "name": "demo",
    "variables": ["x", "y"],
    "weights": ["3", "2"],
    "polynomial": "x^2 + y^3",
    "options": {"max_degree": 8},
}


def test_good_file(tmp_path):
    pf = load_problem_file(write(tmp_path, GOOD))
    assert pf.problem.name == "demo"
    assert pf.problem.degree == 6
    assert pf.options.max_degree == 8
    assert len(pf.digest) == 64


def test_malformed_json(tmp_path):
    with pytest.raises(ProblemFileError):
        load_problem_file(write(tmp_path, "{oops"))


def test_missing_key(tmp_path):
    bad = dict(GOOD)
    del bad["weights"]
    with pytest.raises(ProblemFileError):
        load_problem_file(write(tmp_path, bad))


def test_weight_length_mismatch(tmp_path):
    bad = dict(GOOD, weights=["1"])
    with pytest.raises(ProblemFileError):
        load_problem_file(write(tmp_path, bad))


def test_unparseable_polynomial(tmp_path):
    bad = dict(GOOD, polynomial="x +")
    with pytest.raises(ProblemFileError):
        load_problem_file(write(tmp_path, bad))


def test_not_quasihomogeneous(tmp_path):
    bad = dict(GOOD, polynomial="x + y^2")
    with pytest.raises(ProblemFileError) as err:
        load_problem_file(write(tmp_path, bad))
    assert "quasi-homogeneous" in str(err.value)


def test_missing_file():
    with pytest.raises(ProblemFileError):
        load_problem_file("/nonexistent/path.json")
