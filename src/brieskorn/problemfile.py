"""Problem-file ingestion: JSON germ descriptions with caps and bounds.

Schema:
  {
    "name": "barlet35",
    "variables": ["x", "y", "z"],
    "weights": ["1", "1", "-1"],
    "polynomial": "x^5/5 + y^5/5 + x^3*y^3*z/3",
    "options": {"max_degree": 14, "max_t_power": 10, "max_s_power": 10}
  }

Weights are rational strings ("p/q" or integers), never floats.
Quasi-homogeneity is validated on load.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field

from brieskorn.engine import GermProblem
from brieskorn.poly import ParseError, parse_polynomial


class ProblemFileError(ValueError):
    pass


# a weight string: an integer p or a quotient p/q of integers
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


@dataclass
class ProblemOptions:
    max_degree: int | None = None
    max_t_power: int = 10
    max_s_power: int = 10


@dataclass
class ProblemFile:
    name: str
    problem: GermProblem
    options: ProblemOptions
    digest: str
    raw: dict = field(repr=False, default_factory=dict)


def load_problem_file(path: str) -> ProblemFile:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(blob).hexdigest()
    try:
        data = json.loads(blob)
    except json.JSONDecodeError as exc:
        raise ProblemFileError(f"{path}: malformed JSON: {exc}") from exc
    return parse_problem_payload(data, digest=digest, source=path)


def parse_problem_payload(data: dict, digest: str = "", source: str = "<payload>") -> ProblemFile:
    if not isinstance(data, dict):
        raise ProblemFileError(f"{source}: top level must be an object")
    for key in ("variables", "weights", "polynomial"):
        if key not in data:
            raise ProblemFileError(f"{source}: missing required key {key!r}")
    variables = data["variables"]
    weights = data["weights"]
    polynomial = data["polynomial"]
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise ProblemFileError(f"{source}: variables must be a list of strings")
    if len(set(variables)) != len(variables):
        raise ProblemFileError(f"{source}: duplicate variable names")
    if not isinstance(weights, list) or not all(isinstance(w, str) for w in weights):
        raise ProblemFileError(f"{source}: weights must be a list of rational strings")
    if not isinstance(polynomial, str):
        raise ProblemFileError(f"{source}: polynomial must be a string")
    if len(weights) != len(variables):
        raise ProblemFileError(f"{source}: weights length must equal variables length")
    for i, w in enumerate(weights):
        match = _RATIONAL.fullmatch(w)
        if match is None:
            raise ProblemFileError(f"{source}: weights[{i}] = {w!r} is not a rational literal p or p/q")
        if match.group(2) is not None and int(match.group(2)) == 0:
            raise ProblemFileError(f"{source}: weights[{i}] = {w!r} has a zero denominator")
    name = data.get("name") or "problem"
    try:
        f = parse_polynomial(polynomial, variables)
    except ParseError as exc:
        raise ProblemFileError(f"{source}: polynomial does not parse: {exc}") from exc
    try:
        problem = GermProblem(variables, weights, f, name=name)
    except (ValueError, ZeroDivisionError) as exc:
        raise ProblemFileError(f"{source}: {exc}") from exc
    opts = data.get("options", {})
    if not isinstance(opts, dict):
        raise ProblemFileError(f"{source}: options must be an object")
    default = ProblemOptions()
    options = ProblemOptions(
        max_degree=_int_option(opts, "max_degree", default.max_degree, source, minimum=0),
        max_t_power=_int_option(opts, "max_t_power", default.max_t_power, source, minimum=1),
        max_s_power=_int_option(opts, "max_s_power", default.max_s_power, source, minimum=1),
    )
    return ProblemFile(name=name, problem=problem, options=options, digest=digest, raw=data)


def _int_option(opts: dict, key: str, default, source: str, minimum: int | None = None):
    value = opts.get(key, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFileError(f"{source}: options.{key} must be an integer")
    if minimum is not None and value < minimum:
        raise ProblemFileError(f"{source}: options.{key} must be >= {minimum}, got {value}")
    return value
