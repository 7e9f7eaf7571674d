"""Command line interface: problem ingestion, computation, JSON/text reports.

Exit codes: 0 success, 1 input error (a bad argument included), 2 a bounded
search hit its ceiling or a cap was exceeded, 3 internal invariant violation
or any other internal fault (one `internal error:` line, never a traceback).
Reports are deterministic (no timestamps, sorted keys, exact rationals as
strings), so repeated runs on the same input are byte-identical.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from fractions import Fraction

from brieskorn import __version__, engine, gm_model, microdiff, nc_log, thom_sebastiani
from brieskorn.engine import (
    CapExceeded,
    CohomologyClass,
    InvariantViolation,
    NonIsolatedError,
    TorsionCertificate,
)
from brieskorn.forms import df_wedge, form_from_payload, volume_form
from brieskorn.poly import ParseError, format_rational, parse_polynomial
from brieskorn.problemfile import ProblemFileError, load_problem_file

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BOUND = 2
EXIT_INVARIANT = 3


# every argument a subcommand may take: add_argument keywords, and for a
# bound its least value (None: no least value is checked here)
_ARGUMENTS = {
    "problem": ({"help": "problem JSON file"}, None),
    "problem_g": ({"help": "problem JSON file for the second germ"}, None),
    "--max-degree": ({"type": int, "help": "total-degree cap"}, 0),
    "--max-t-power": ({"type": int, "help": "t-torsion search depth"}, 1),
    "--max-s-power": ({"type": int, "help": "s-torsion search depth (micro: s-power cap)"}, 1),
    "--seed": ({"type": int, "default": 0, "help": "sampling seed"}, None),
    "--form-degree": ({"type": int}, None),
    "--monomial": ({"action": "append", "help": "coefficient monomial of the top class (repeatable)"}, None),
    "--commutator-bound": ({"type": int, "default": 20}, 0),
    "--factorial-bound": ({"type": int, "default": 8}, 0),
    "--remark-bound": ({"type": int, "default": 5}, 0),
    "--integrate-bound": ({"type": int, "default": 50}, 0),
    "--k-max": ({"type": int, "default": 3}, 0),
    "--format": ({"choices": ("json", "text"), "default": "json"}, None),
    "--out": ({"help": "write the report here instead of stdout"}, None),
    "--verify": ({"metavar": "REPORT", "help": "re-verify the certificates of a previous report"}, None),
}
# micro's --max-s-power truncates s-powers: 0 is a cap (exit 2 once exceeded), not a bad depth
_LEAST_FOR_COMMAND = {("micro", "--max-s-power"): 0}
_REPORT_FLAGS = ("--format", "--out", "--verify")
_SEARCH = ("--max-degree", "--max-t-power", "--max-s-power")

# subcommand: help and the arguments its handler reads, besides _REPORT_FLAGS
_COMMANDS = {
    "analyze": ("kernel generators, torsion probes, spectrum", ("problem", *_SEARCH, "--seed")),
    "kernel": ("module generators of Ker(df-wedge)", ("problem", "--form-degree")),
    "torsion": ("bounded t- and s-torsion searches on top classes", ("problem", *_SEARCH, "--monomial")),
    "spectrum": ("exponent multiset of an isolated germ", ("problem",)),
    "nc": ("normal-crossing log basis, residues, kernel identity", ("problem", "--max-degree", "--form-degree")),
    "micro": (
        "operator identities in the t, s skew algebra",
        ("--max-s-power", "--commutator-bound", "--factorial-bound", "--remark-bound", "--integrate-bound"),
    ),
    "ts": ("external-product comparison for a sum of two germs", ("problem", "problem_g", "--max-degree", "--k-max")),
    "check-p": ("degreewise torsion-freeness criterion", ("problem", "--max-degree", "--form-degree")),
}


class _Parser(argparse.ArgumentParser):
    """Raises a usage error as ValueError, so it exits 1 with one line like any bad input."""

    def error(self, message):
        raise ValueError(" ".join(message.split()))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built on the first call and shared by every later one.

    Built lazily, not at import; a parse leaves no state in it, since each
    parse_args call fills a fresh namespace.
    """
    parser = _Parser(
        prog="brieskorn",
        description="Exact Brieskorn-module computations for quasi-homogeneous germs",
    )
    parser.add_argument("--version", action="version", version=f"brieskorn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, names) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in (*names, *_REPORT_FLAGS):
            p.add_argument(name, **_ARGUMENTS[name][0])
    return parser


# -- command implementations ---------------------------------------------------


def _bound(*candidates):
    """The first bound given, in order of precedence; an explicit 0 counts."""
    return next((b for b in candidates if b is not None), None)


def _check_bounds(args) -> None:
    """Refuse a bound below its least value rather than search at some other one."""
    for flag in _COMMANDS[args.command][1]:
        minimum = _LEAST_FOR_COMMAND.get((args.command, flag), _ARGUMENTS[flag][1])
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if minimum is not None and value is not None and value < minimum:
            raise ValueError(f"{flag} must be >= {minimum}, got {value}")


def _class_from_monomial(problem, text: str) -> CohomologyClass:
    poly = parse_polynomial(text, problem.variables)
    return CohomologyClass(problem, problem.n, volume_form(problem.nvars, poly))


def _torsion_payload(variables, cert_or_not, kind: str):
    if isinstance(cert_or_not, TorsionCertificate):
        return {
            "kind": kind,
            "status": "found",
            "order": cert_or_not.order,
            "witness": [w.payload(variables) for w in cert_or_not.witness],
        }
    return {
        "kind": kind,
        "status": "not-found-within",
        "bound": cert_or_not.bound,
        "cap_limited": cert_or_not.cap_limited,
    }


def _torsion_searches(args, pf, classes):
    """Both torsion searches on each class, each bound taken from its flag,
    else from the problem file.

    Returns the bounds and, per class, the class, its t and s payloads, and
    those of the two that carry a certificate.
    """
    bounds = {key: _bound(getattr(args, key), getattr(pf.options, key))
              for key in ("max_degree", "max_t_power", "max_s_power")}
    cap = bounds["max_degree"]
    variables = pf.problem.variables
    rows = []
    for cls in classes:
        rt = engine.torsion_order_t(cls, bounds["max_t_power"], cap=cap)
        rs = engine.torsion_order_s(cls, bounds["max_s_power"], cap=cap)
        t = _torsion_payload(variables, rt, "t-torsion")
        s = _torsion_payload(variables, rs, "s-torsion")
        rows.append((cls, t, s, [p for p in (t, s) if p["status"] == "found"]))
    return bounds, rows


def cmd_analyze(args, pf):
    problem = pf.problem
    mu = problem.milnor_number()
    gens = engine.kernel_generator_forms(problem, problem.n - 1)
    result = {
        "problem": problem.serialize(),
        "milnor_number": mu if mu is not None else "NonIsolated",
        "kernel_degree": problem.n - 1,
        "kernel_generators": [g.payload(problem.variables) for g in gens],
    }
    if mu is not None:
        basis = engine.ct_basis(problem, reduced=True)
        result["rank"] = len(basis)
        result["spectrum"] = [format_rational(b.exponent) for b in basis]
        result["gm_pieces"] = gm_model.serialize(gm_model.from_brieskorn(problem))
    probes = engine.sample_top_classes(problem, 3, args.seed) if mu is None else []
    bounds, rows = _torsion_searches(args, pf, probes)
    if mu is None:
        result["torsion_probes"] = [{"class": c.serialize(), "t": t, "s": s} for c, t, s, _ in rows]
    certs = [{"type": "torsion", "class": c.serialize(), **p} for c, _t, _s, found in rows for p in found]
    bounds["seed"] = args.seed
    return {"result": result, "certificates": certs, "bounds": bounds}, EXIT_OK


def cmd_kernel(args, pf):
    problem = pf.problem
    i = args.form_degree if args.form_degree is not None else problem.n - 1
    gens = engine.kernel_generator_forms(problem, i)
    result = {
        "problem": problem.serialize(),
        "form_degree": i,
        "generator_count": len(gens),
        "generators": [g.payload(problem.variables) for g in gens],
    }
    certs = [{"type": "kernel-generator", "form_degree": i, "form": g} for g in result["generators"]]
    return {"result": result, "certificates": certs, "bounds": {}}, EXIT_OK


def cmd_torsion(args, pf):
    problem = pf.problem
    monomials = args.monomial or ["1"]
    bounds, rows = _torsion_searches(args, pf, (_class_from_monomial(problem, m) for m in monomials))
    classes = [
        # the searches agree on existence when both or neither found a certificate
        {"monomial": m, "class": c.serialize(), "t": t, "s": s, "existence_agrees": len(found) != 1}
        for m, (c, t, s, found) in zip(monomials, rows)
    ]
    certs = [
        {"type": "torsion", "monomial": m, "degree": c.i, **p}
        for m, (c, _t, _s, found) in zip(monomials, rows)
        for p in found
    ]
    exit_code = EXIT_OK if all(len(found) == 2 for *_, found in rows) else EXIT_BOUND
    result = {"problem": problem.serialize(), "classes": classes}
    return {"result": result, "certificates": certs, "bounds": bounds}, exit_code


def cmd_spectrum(args, pf):
    problem = pf.problem
    basis = engine.ct_basis(problem, reduced=True)
    pieces = gm_model.from_brieskorn(problem)
    psi, phi = gm_model.psi_phi(pieces)
    result = {
        "problem": problem.serialize(),
        "milnor_number": problem.milnor_number(),
        "rank": len(basis),
        "spectrum": [format_rational(b.exponent) for b in basis],
        "gm_pieces": gm_model.serialize(pieces),
        "psi": [[format_rational(a), d] for a, d in psi],
        "phi": [[format_rational(a), d] for a, d in phi],
        "can_surjective": gm_model.can_surjective(pieces),
    }
    return {"result": result, "certificates": [], "bounds": {}}, EXIT_OK


def cmd_nc(args, pf):
    problem = pf.problem
    f = problem.f
    if not f.is_monomial():
        raise ProblemFileError(f"{args.problem}: nc needs a monomial germ")
    (exp, coeff), = f.terms.items()
    if coeff != 1 or any(m < 1 for m in exp):
        raise ProblemFileError(
            f"{args.problem}: nc needs f = product of all variables with exponents >= 1"
        )
    germ = nc_log.MonomialGerm(exp)
    bound = _bound(args.max_degree, pf.options.max_degree, 6)
    i = _bound(args.form_degree, 1)
    check = nc_log.verify_a_equals_g_atilde(germ, i, bound)
    result = {
        "problem": problem.serialize(),
        "e": germ.e,
        "mu_vector": list(germ.mu),
        "ranks": {
            str(p): len(nc_log.log_relative_basis(germ, p)) for p in range(germ.nvars)
        },
        "residue_eigenvalues": {
            str(p): [format_rational(a) for a in nc_log.residue_eigenvalues(germ, p)]
            for p in range(germ.nvars)
        },
        "kernel_identity": {
            "form_degree": i,
            "degree_bound": bound,
            "holds": check.holds,
            "witness": check.witness.payload(problem.variables) if check.witness else None,
        },
    }
    return {"result": result, "certificates": [], "bounds": {"max_degree": bound}}, EXIT_OK


def cmd_micro(args):
    cap = _bound(args.max_s_power, microdiff.DEFAULT_S_CAP)
    commutators = []
    for j in range(1, args.commutator_bound + 1):
        lhs = microdiff.normal_order([("t", 1), ("s", j)], cap) - microdiff.normal_order(
            [("s", j), ("t", 1)], cap
        )
        ok = lhs == microdiff.SkewElement({(j + 1, 0): Fraction(j)}, cap)
        commutators.append({"j": j, "holds": ok})
    factorials = []
    for total in range(2, args.factorial_bound + 1):
        for p in range(1, total):
            q = total - p
            rep = microdiff.lemma_a_certificate(p, q, cap)
            factorials.append(
                {
                    "p": p,
                    "q": q,
                    "coefficient": format_rational(rep.pure_s_coefficient),
                    "factorial": rep.factorial,
                    "holds": rep.matches,
                }
            )
    remarks = []
    for p in range(1, args.remark_bound + 1):
        lam = microdiff.remark26_solve(p, cap)
        remarks.append({"p": p, "lambda": [format_rational(v) for v in lam]})
    series = microdiff.TruncatedSeries.one(max(args.integrate_bound + 2, cap))
    integral_ok = True
    for k in range(1, args.integrate_bound + 1):
        series = microdiff.integrate_series(series)
        if series.coefficient(k) != Fraction(1, math.factorial(k)):
            integral_ok = False
    result = {
        "commutators": commutators,
        "factorial_certificates": factorials,
        "remark_solutions": remarks,
        "iterated_integration_exact": integral_ok,
        "all_hold": all(c["holds"] for c in commutators)
        and all(f["holds"] for f in factorials)
        and integral_ok,
    }
    bounds = {
        "commutator_bound": args.commutator_bound,
        "factorial_bound": args.factorial_bound,
        "remark_bound": args.remark_bound,
        "integrate_bound": args.integrate_bound,
        "s_cap": cap,
    }
    return {"result": result, "certificates": [], "bounds": bounds}, EXIT_OK


def cmd_ts(args, pf, pg):
    report = thom_sebastiani.ts_compare(pf.problem, pg.problem)
    basis_f = engine.ct_basis(pf.problem, reduced=True)
    cls_f = basis_f[0].cls if basis_f else None
    vanish_rows = []
    certificates = []
    exit_code = EXIT_OK
    if cls_f is not None:
        for k in range(args.k_max + 1):
            combined, target, cert = thom_sebastiani.vanish_g_k_dg(cls_f, pg.problem, k, args.max_degree)
            if isinstance(cert, TorsionCertificate):
                vanish_rows.append({"k": k, "status": "found"})
                certificates.append(
                    {
                        "type": "vanishing",
                        "k": k,
                        "f_class": cls_f.serialize(),
                        "target": target.payload(combined.variables),
                        "eta": cert.witness[0].payload(combined.variables),
                    }
                )
            else:
                vanish_rows.append({"k": k, "status": "not-found-within"})
                exit_code = EXIT_BOUND
    result = {
        "f": pf.problem.serialize(),
        "g": pg.problem.serialize(),
        "comparison": report.serialize(),
        "vanishing": vanish_rows,
    }
    if not report.passed:
        exit_code = EXIT_INVARIANT
    bounds = {"k_max": args.k_max, "max_degree": args.max_degree}
    return {"result": result, "certificates": certificates, "bounds": bounds}, exit_code


def cmd_check_p(args, pf):
    problem = pf.problem
    i = args.form_degree if args.form_degree is not None else problem.n
    bound = _bound(args.max_degree, pf.options.max_degree, 6)
    res = engine.check_p_prime(problem, i, bound)
    result = {
        "problem": problem.serialize(),
        "form_degree": i,
        "degree_bound": bound,
        "holds": res.holds,
        "cap_relative": res.cap_relative,
        "witness": res.witness.payload(problem.variables) if res.witness else None,
    }
    return {"result": result, "certificates": [], "bounds": {"max_degree": bound}}, EXIT_OK


_HANDLERS = {
    "analyze": cmd_analyze,
    "kernel": cmd_kernel,
    "torsion": cmd_torsion,
    "spectrum": cmd_spectrum,
    "nc": cmd_nc,
    "micro": cmd_micro,
    "ts": cmd_ts,
    "check-p": cmd_check_p,
}


# -- report emission and verification -------------------------------------------


def _sources(args) -> tuple:
    """The problem files a command reads: none for micro, two for ts, one otherwise."""
    names = [name for name in ("problem", "problem_g") if hasattr(args, name)]
    return tuple(load_problem_file(getattr(args, name)) for name in names)


def _input_digest(sources) -> str:
    return "+".join(pf.digest for pf in sources)


def render_text(report: dict) -> str:
    lines = [f"brieskorn {report['version']} :: {report['command']}"]

    def walk(obj, indent=1):
        pad = "  " * indent
        if isinstance(obj, dict):
            for key in sorted(obj):
                value = obj[key]
                if isinstance(value, (dict, list)):
                    lines.append(f"{pad}{key}:")
                    walk(value, indent + 1)
                else:
                    lines.append(f"{pad}{key}: {value}")
        elif isinstance(obj, list):
            for item in obj:
                if isinstance(item, (dict, list)):
                    lines.append(f"{pad}-")
                    walk(item, indent + 1)
                else:
                    lines.append(f"{pad}- {item}")

    walk(report["result"])
    lines.append(f"  certificates: {len(report['certificates'])}")
    return "\n".join(lines) + "\n"


def emit(report: dict, args) -> None:
    if getattr(args, "format", "json") == "text":
        text = render_text(report)
    else:
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def verify_report(path: str, command: str, sources: tuple) -> int:
    """Replay mode: re-check every certificate embedded in a report."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            report = json.load(fh)
        except json.JSONDecodeError as exc:
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
    failures = 0
    total = 0
    for cert in certificates:
        total += 1
        if not _verify_certificate(cert, sources):
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


def _class_from_payload(problem, payload: dict) -> CohomologyClass:
    """The class a report serialized; CohomologyClass checks that it is one of f,
    and its weight and exponent must be written as serialize() writes them."""
    degree = _count(payload["degree"], "class degree")
    form = form_from_payload(payload["form"], problem.variables, degree)
    cls = CohomologyClass(problem, degree, form)
    described = cls.serialize()
    for key in ("weight", "exponent"):
        _check_claim(f"class {key}", payload[key], described[key])
    return cls


def _verify_certificate(cert: dict, sources: tuple) -> bool:
    if not isinstance(cert, dict):
        print(f"verify: certificate is not an object ({type(cert).__name__})", file=sys.stderr)
        return False
    kind = cert.get("type")
    try:
        if kind == "torsion":
            problem = sources[0].problem
            text = cert.get("monomial")
            if text is not None:
                cls = _class_from_monomial(problem, text)
                _check_claim("degree", _count(cert["degree"], "degree"), cls.i)
            else:
                cls = _class_from_payload(problem, cert["class"])
            witness = [
                form_from_payload(w, problem.variables, cls.i - 1) for w in cert["witness"]
            ]
            search = {"t-torsion": "t", "s-torsion": "s"}[cert["kind"]]
            tc = TorsionCertificate(search, _count(cert["order"], "order"), witness)
            return tc.verify(cls)
        if kind == "kernel-generator":
            problem = sources[0].problem
            degree = _count(cert["form_degree"], "form_degree")
            return not df_wedge(problem.f, form_from_payload(cert["form"], problem.variables, degree))
        if kind == "vanishing":
            pf, pg = sources
            k = _count(cert["k"], "k")
            cls_f = _class_from_payload(pf.problem, cert["f_class"])
            combined, target = thom_sebastiani.vanishing_target(cls_f, pg.problem, k)
            if form_from_payload(cert["target"], combined.variables, target.degree) != target:
                print("verify: vanishing target is not f_class wedge g^k dg", file=sys.stderr)
                return False
            eta = form_from_payload(cert["eta"], combined.variables, target.degree - 1)
            return engine.exact_chain(combined.f, target, [eta])
    except Exception as exc:  # a malformed certificate is a failed certificate
        print(f"verify: certificate error: {exc}", file=sys.stderr)
        return False
    print(f"verify: unknown certificate type {kind!r}", file=sys.stderr)
    return False


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help and --version; a usage error raises ValueError
            return exc.code
        _check_bounds(args)
        sources = _sources(args)
        if args.verify:
            return verify_report(args.verify, args.command, sources)
        payload, exit_code = _HANDLERS[args.command](args, *sources)
        report = {
            "command": args.command,
            "input_digest": _input_digest(sources),
            "version": __version__,
            **payload,
        }
        emit(report, args)
        return exit_code
    except (ProblemFileError, ParseError, ValueError, NonIsolatedError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (CapExceeded, microdiff.TruncationOverflow) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except (InvariantViolation, AssertionError) as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as exc:  # anything else is a fault of the program, not of the input
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {message}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
