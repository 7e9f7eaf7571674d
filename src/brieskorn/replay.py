"""Replay: re-check the certificates of a report without recomputing them.

`brieskorn COMMAND ... --verify REPORT` loads the problem files COMMAND
names, as a run does, and checks each certificate of REPORT against them
with the checker _CHECKERS holds for its type.  A checker rebuilds the
classes and forms a certificate names and checks one identity on them
(germ.exact_chain, or df wedge g = 0); it solves nothing.  So a replay runs
on this module and what it imports, germ, forms, poly and problemfile, and
on none of the Groebner, elimination or search code that made the report.
"""

from __future__ import annotations

import functools
import json
import sys

from brieskorn import germ
from brieskorn.forms import df_wedge, form_from_payload
from brieskorn.problemfile import _input_digest, _search_bounds

# the exit codes of every command (see cli), a replay's among them
EXIT_OK, EXIT_INPUT, EXIT_BOUND, EXIT_INVARIANT = 0, 1, 2, 3


def verify_report(args, sources: tuple) -> int:
    """Replay mode: re-check every certificate of the report args.verify,
    within the search bounds args and sources give the command."""
    path, command = args.verify, args.command
    with open(path, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            print(f"verify: {path}: malformed JSON: {exc}", file=sys.stderr)
            return EXIT_INPUT
    if not isinstance(report, dict):
        print(f"verify: {path}: report top level must be an object", file=sys.stderr)
        return EXIT_INPUT
    certificates = report.get("certificates", [])
    if not isinstance(certificates, list):
        print(f"verify: {path}: certificates must be a list", file=sys.stderr)
        return EXIT_INPUT
    if report.get("command") != command:
        print(f"verify: report was produced by {report.get('command')!r}, not {command!r}",
              file=sys.stderr)
        return EXIT_INPUT
    if report.get("input_digest") != _input_digest(sources):
        print("verify: input digest mismatch", file=sys.stderr)
        return EXIT_INPUT
    # h = f + g of a ts report, built once at the first vanishing certificate
    # that needs it; a failed build is not kept and fails each such certificate
    sum_germ = functools.cache(lambda: germ.combined_problem(*(pf.problem for pf in sources)))
    failures = 0
    total = 0
    for cert in certificates:
        total += 1
        if not _verify_certificate(cert, args, sources, sum_germ):
            failures += 1
    print(f"verified {total - failures}/{total} certificates")
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


def _count(value, what: str) -> int:
    """value, if it is a non-negative int (a bool is not)."""
    if type(value) is not int or value < 0:
        raise ValueError(f"{what} must be a non-negative integer, got {value!r}")
    return value


def _check_claim(what: str, claimed, actual) -> None:
    """A report's description of a class must be that of the rebuilt class."""
    if claimed != actual:
        raise ValueError(f"{what} is {claimed!r}, but the class has {actual!r}")


def _class_from_payload(problem, payload: dict) -> germ.CohomologyClass:
    """The class a report serialized; CohomologyClass checks that it is one of f,
    and its weight and exponent must be written as serialize() writes them."""
    degree = _count(payload["degree"], "class degree")
    form = form_from_payload(payload["form"], problem.variables, degree)
    cls = germ.CohomologyClass(problem, degree, form)
    described = cls.serialize()
    for key in ("weight", "exponent"):
        _check_claim(f"class {key}", payload[key], described[key])
    return cls


def _check_torsion(cert: dict, args, sources: tuple, sum_germ) -> bool:
    problem = sources[0].problem
    text = cert.get("monomial")
    if text is not None:
        cls = germ.class_from_monomial(problem, text)
        _check_claim("degree", _count(cert["degree"], "degree"), cls.i)
    else:
        cls = _class_from_payload(problem, cert["class"])
    witness = [form_from_payload(w, problem.variables, cls.i - 1) for w in cert["witness"]]
    search = {"t-torsion": "t", "s-torsion": "s"}[cert["kind"]]
    tc = germ.TorsionCertificate(search, _count(cert["order"], "order"), witness)
    return tc.verify(cls, max_order=_search_bounds(args, sources[0])["max_t_power"])


def _check_kernel_generator(cert: dict, args, sources: tuple, sum_germ) -> bool:
    problem = sources[0].problem
    degree = _count(cert["form_degree"], "form_degree")
    return not df_wedge(problem.f, form_from_payload(cert["form"], problem.variables, degree))


def _check_vanishing(cert: dict, args, sources: tuple, sum_germ) -> bool:
    f, g = (pf.problem for pf in sources)
    k = _count(cert["k"], "k")
    cls_f = _class_from_payload(f, cert["f_class"])
    target = form_from_payload(cert["target"], f.variables + g.variables, cls_f.i + 1)
    # f and g share no variable, so the top degrees add; comparing them
    # refuses a forged k before g^k is expanded
    top = cls_f.representative.total_degree_cap() + (k + 1) * g.f.total_degree() - 1
    h = None
    if target.total_degree_cap() == top:
        if k > args.k_max:  # the degree matches, so g^k would be expanded
            raise ValueError(f"k {k} is above --k-max {args.k_max}")
        h = sum_germ()
    if h is None or target != germ.vanishing_target(cls_f, g, h, k):
        print("verify: vanishing target is not f_class wedge g^k dg", file=sys.stderr)
        return False
    eta = form_from_payload(cert["eta"], h.variables, target.degree - 1)
    return germ.exact_chain(h.f, target, [eta])


# each certificate type: the commands whose reports carry it, and its checker
_CHECKERS = {
    "torsion": (("analyze", "torsion"), _check_torsion),
    "kernel-generator": (("kernel",), _check_kernel_generator),
    "vanishing": (("ts",), _check_vanishing),
}


def _verify_certificate(cert, args, sources: tuple, sum_germ) -> bool:
    if not isinstance(cert, dict):
        print(f"verify: certificate is not an object ({type(cert).__name__})", file=sys.stderr)
        return False
    kind = cert.get("type")
    # a type that is not a string (a list, say) names no checker
    commands, check = _CHECKERS.get(kind, ((), None)) if isinstance(kind, str) else ((), None)
    if args.command not in commands:
        print(f"verify: {args.command} reports carry no {kind!r} certificates", file=sys.stderr)
        return False
    try:
        return check(cert, args, sources, sum_germ)
    except Exception as exc:  # a malformed certificate is a failed certificate
        print(f"verify: certificate error: {exc}", file=sys.stderr)
        return False
