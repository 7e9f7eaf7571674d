"""Problem-file ingestion: JSON germ descriptions with caps and bounds.

Schema:
  {
    "name": "barlet35",
    "variables": ["x", "y", "z"],
    "weights": ["1", "1", "-1"],
    "polynomial": "x^5/5 + y^5/5 + x^3*y^3*z/3",
    "options": {"max_degree": 14, "max_t_power": 10, "max_s_power": 10}
  }

Weights are rational strings ("p/q" or integers), never floats.  "name" and
"options" may be left out; a key outside this schema, at the top level or in
"options", is refused rather than ignored.  Quasi-homogeneity is validated
on load.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from brieskorn.germ import GermProblem
from brieskorn.poly import ParseError, is_variable_name, parse_polynomial, parse_rational


class ProblemFileError(ValueError):
    pass


_KEYS = ("name", "variables", "weights", "polynomial", "options")
# each option and its least value
_OPTIONS = {"max_degree": 0, "max_t_power": 1, "max_s_power": 1}


@dataclass
class ProblemOptions:
    max_degree: int | None = None
    max_t_power: int = 10
    max_s_power: int = 10


@dataclass
class ProblemFile:
    problem: GermProblem
    options: ProblemOptions
    digest: str


def load_problem_file(path: str) -> ProblemFile:
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as exc:
        raise ProblemFileError(f"cannot read {path}: {exc}") from exc
    digest = hashlib.sha256(blob).hexdigest()
    try:
        data = json.loads(blob)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ProblemFileError(f"{path}: malformed JSON: {exc}") from exc
    return parse_problem_payload(data, digest=digest, source=path)


def parse_problem_payload(data: dict, digest: str = "", source: str = "<payload>") -> ProblemFile:
    if not isinstance(data, dict):
        raise ProblemFileError(f"{source}: top level must be an object")
    _refuse_unknown(data, _KEYS, "key", source)
    for key in ("variables", "weights", "polynomial"):
        if key not in data:
            raise ProblemFileError(f"{source}: missing required key {key!r}")
    variables = data["variables"]
    weights = data["weights"]
    polynomial = data["polynomial"]
    if not isinstance(variables, list) or not all(isinstance(v, str) for v in variables):
        raise ProblemFileError(f"{source}: variables must be a list of strings")
    for i, v in enumerate(variables):
        if not is_variable_name(v):
            raise ProblemFileError(f"{source}: variables[{i}] = {v!r} is not a variable name")
    if len(set(variables)) != len(variables):
        raise ProblemFileError(f"{source}: duplicate variable names")
    if not isinstance(weights, list) or not all(isinstance(w, str) for w in weights):
        raise ProblemFileError(f"{source}: weights must be a list of rational strings")
    if not isinstance(polynomial, str):
        raise ProblemFileError(f"{source}: polynomial must be a string")
    if len(weights) != len(variables):
        raise ProblemFileError(f"{source}: weights length must equal variables length")
    for i, w in enumerate(weights):
        try:
            parse_rational(w)
        except ValueError as exc:
            raise ProblemFileError(f"{source}: weights[{i}] = {exc}") from None
    if not isinstance(data.get("name", ""), str):
        raise ProblemFileError(f"{source}: name must be a string")
    name = data.get("name", "problem")
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
    _refuse_unknown(opts, _OPTIONS, "option", source)
    default = ProblemOptions()
    options = ProblemOptions(
        **{key: _int_option(opts, key, getattr(default, key), source, least) for key, least in _OPTIONS.items()}
    )
    return ProblemFile(problem=problem, options=options, digest=digest)


def _refuse_unknown(found: dict, known, what: str, source: str) -> None:
    unknown = sorted(set(found) - set(known))
    if unknown:
        raise ProblemFileError(f"{source}: unknown {what} {unknown[0]!r} (known: {', '.join(known)})")


def _int_option(opts: dict, key: str, default, source: str, minimum: int):
    value = opts.get(key, default)
    if value is None and default is None:
        return None
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProblemFileError(f"{source}: options.{key} must be an integer")
    if value < minimum:
        raise ProblemFileError(f"{source}: options.{key} must be >= {minimum}, got {value}")
    return value


# -- what a command takes from its problem files, for a run and for its replay -----


def _bound(*candidates):
    """The first bound given, in order of precedence; an explicit 0 counts."""
    return next((b for b in candidates if b is not None), None)


def _search_bounds(args, pf: ProblemFile) -> dict:
    """The three torsion search bounds, each taken from its flag, else (and
    for a command without the flag) from the problem file."""
    return {key: _bound(getattr(args, key, None), getattr(pf.options, key)) for key in _OPTIONS}


def _input_digest(sources) -> str:
    """A report's input_digest: the digests of the problem files it read, joined by +."""
    return "+".join(pf.digest for pf in sources)
