"""Workloads of the end-to-end benchmark: generated problem files and commands.

A workload is a list of CLI commands over problem files that the benchmark
writes itself.  The seed picks two things, and nothing else:

* the variable names, one of NAME_MAPS applied to every problem of the
  workload at once (so disjoint germs stay disjoint and overlapping ones keep
  overlapping);
* the order in which the commands run.

The variable *order* stays as shipped.  It changes the work itself: for the
class x^2*y^3*z^2 of barlet35 the six orders take 12.8 s to 43.9 s, and
x^3+y^4+z^5+w^6 takes 8.6 s to 14.7 s, so a seed that permuted variables
would make run-to-run spread far wider than any regression bound.

The name maps form a finite set, so the expected report of every command
under every seed is recorded in golden.json (see record_golden.py).
"""

from __future__ import annotations

import json
import math
import os
import random
import re
from dataclasses import dataclass, field
from fractions import Fraction

NAME_MAPS = [
    {"x": "x", "y": "y", "z": "z", "w": "w", "v": "v"},
    {"x": "a", "y": "b", "z": "c", "w": "d", "v": "e"},
    {"x": "u", "y": "v", "z": "w", "w": "s", "v": "t"},
    {"x": "p", "y": "q", "z": "r", "w": "m", "v": "n"},
]

WORKLOADS = {
    "torsion-barlet35": (
        "t/s-torsion searches on non-isolated barlet35, found and exhausted, with replays; "
        "linalg-bound (rref, solve_columns); seed: variable names, command order"
    ),
    "spectrum-bp": (
        "spectra of two generated Brieskorn-Pham germs, checked against closed forms; "
        "FormSpace-bound, no torsion solve; seed: variable names, command order"
    ),
    "corpus-cli": (
        "every CLI command on problems/ with replays and one refusal; parsing, Groebner, "
        "forms, report emission; seed: variable names, command order"
    ),
}

# Classes of the torsion workload, in the shipped variable names.
TORSION_CLASSES = ["1", "z", "z^2", "x*y", "x^2*y^3*z^2"]
TORSION_BOUNDS = ["--max-degree", "14", "--max-t-power", "10", "--max-s-power", "8"]

# Brieskorn-Pham germs x1^a1 + ... + xn^an of the spectrum workload.
BP_GERMS = {"bp3456": (3, 4, 5, 6), "bp33333": (3, 3, 3, 3, 3)}
BP_VARIABLES = ["x", "y", "z", "w", "v"]

# Shipped corpus files that are Brieskorn-Pham germs, with their exponents.
CORPUS_BP = {"a1": (2,), "cusp": (2, 3), "x3y3": (3, 3), "smooth": (1,)}
CORPUS_FILES = ["a1", "barlet35", "cusp", "nc22", "smooth", "ts_y2", "ts_y3", "ts_z2", "x3y3"]

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def rename(text: str, names: dict) -> str:
    """Rename every variable token of a polynomial at once."""
    return _NAME.sub(lambda m: names.get(m.group(0), m.group(0)), text)


@dataclass
class Command:
    argv: list
    oracle: tuple | None = None  # Brieskorn-Pham exponents for the spectrum oracle
    replay: bool = True


@dataclass
class Workload:
    name: str
    seed: int
    names: dict
    problems: list = field(default_factory=list)
    commands: list = field(default_factory=list)


def _write_problem(path: str, data: dict) -> str:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(data, indent=2) + "\n")
    return path


def _renamed_problem(src: str, names: dict) -> dict:
    with open(src, encoding="utf-8") as fh:
        data = json.load(fh)
    data["variables"] = [names.get(v, v) for v in data["variables"]]
    data["polynomial"] = rename(data["polynomial"], names)
    return data


def bp_problem(name: str, exponents, names: dict) -> dict:
    variables = [names[v] for v in BP_VARIABLES[: len(exponents)]]
    lcm = math.lcm(*exponents)
    return {
        "name": name,
        "variables": variables,
        "weights": [str(lcm // a) for a in exponents],
        "polynomial": " + ".join(f"{v}^{a}" for v, a in zip(variables, exponents)),
        "options": {},
    }


def steenbrink_spectrum(exponents) -> list:
    """Spectrum of x1^a1 + ... + xn^an: {sum k_i/a_i - 1 : 1 <= k_i < a_i}."""
    out = [Fraction(-1)]
    for a in exponents:
        out = [s + Fraction(k, a) for s in out for k in range(1, a)]
    return sorted(out)


def milnor_orlik(exponents) -> int:
    return math.prod(a - 1 for a in exponents)


def build(name: str, seed: int, workdir: str, root: str = ".", names_index: int | None = None) -> Workload:
    """Write the workload's problem files under workdir and list its commands."""
    if name not in WORKLOADS:
        raise KeyError(name)
    rng = random.Random(f"{name}:{seed}")
    if names_index is None:
        names_index = rng.randrange(len(NAME_MAPS))
    names = NAME_MAPS[names_index]
    os.makedirs(workdir, exist_ok=True)
    wl = Workload(name, seed, names)

    def shipped(stem: str) -> str:
        path = os.path.join(workdir, stem + ".json")
        _write_problem(path, _renamed_problem(os.path.join(root, "problems", stem + ".json"), names))
        wl.problems.append(path)
        return path

    if name == "torsion-barlet35":
        b = shipped("barlet35")
        for m in TORSION_CLASSES:
            wl.commands.append(Command(["torsion", b, "--monomial", rename(m, names), *TORSION_BOUNDS]))
    elif name == "spectrum-bp":
        for stem, exps in BP_GERMS.items():
            path = _write_problem(os.path.join(workdir, stem + ".json"), bp_problem(stem, exps, names))
            wl.problems.append(path)
            wl.commands.append(Command(["spectrum", path], oracle=exps))
    else:
        p = {stem: shipped(stem) for stem in CORPUS_FILES}
        for stem in ("a1", "cusp", "x3y3", "smooth"):
            wl.commands.append(Command(["kernel", p[stem]]))
            wl.commands.append(Command(["spectrum", p[stem]], oracle=CORPUS_BP[stem]))
            wl.commands.append(Command(["analyze", p[stem]]))
        wl.commands += [
            Command(["kernel", p["barlet35"]]),
            Command(["kernel", p["nc22"]]),
            Command(["nc", p["nc22"]]),
            Command(["nc", p["nc22"], "--form-degree", "2"]),
            Command(["micro"]),
            Command(["ts", p["a1"], p["ts_y3"]]),
            Command(["ts", p["a1"], p["ts_y2"]]),
            Command(["ts", p["cusp"], p["ts_z2"]]),
            Command(["ts", p["x3y3"], p["ts_z2"]]),
            Command(["check-p", p["nc22"], "--form-degree", "2"]),
            Command(["check-p", p["cusp"]]),
            Command(["check-p", p["x3y3"]]),
            Command(["torsion", p["barlet35"], "--monomial", "1"]),
            Command(["torsion", p["cusp"], "--monomial", "1"]),
            # expected refusal: the two germs share a variable
            Command(["ts", p["cusp"], p["ts_y2"]], replay=False),
        ]
    rng.shuffle(wl.commands)
    return wl
