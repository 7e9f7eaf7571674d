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
from typing import Callable, NamedTuple

from brieskorn import __version__, engine, germ, gm_model, microdiff, nc_log, thom_sebastiani
from brieskorn.germ import CapExceeded, InvariantViolation, NonIsolatedError, TorsionCertificate
from brieskorn.poly import LimitExceeded, format_rational
from brieskorn.problemfile import _OPTIONS, ProblemFileError, _bound, _input_digest, _search_bounds, load_problem_file
from brieskorn.replay import EXIT_BOUND, EXIT_INPUT, EXIT_INVARIANT, EXIT_OK, verify_report


# every argument a subcommand may take: add_argument keywords, and for a
# bound its least value (None: no least value is checked here); a search
# bound has the least value of its problem-file option
_ARGUMENTS = {
    "problem": ({"help": "problem JSON file"}, None),
    "problem_g": ({"help": "problem JSON file for the second germ"}, None),
    "--max-degree": ({"type": int, "help": "total-degree cap"}, _OPTIONS["max_degree"]),
    "--max-t-power": ({"type": int, "help": "t-torsion search depth"}, _OPTIONS["max_t_power"]),
    "--max-s-power": ({"type": int, "help": "s-torsion search depth (micro: s-power cap)"}, _OPTIONS["max_s_power"]),
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


class _Command(NamedTuple):
    """A subcommand: its help, the arguments its handler reads besides
    _REPORT_FLAGS, and its handler."""

    help: str
    arguments: tuple
    handler: Callable


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
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for argument in (*command.arguments, *_REPORT_FLAGS):
            p.add_argument(argument, **_ARGUMENTS[argument][0])
    return parser


# -- command implementations ---------------------------------------------------


def _check_bounds(args) -> None:
    """Refuse a bound below its least value rather than search at some other one."""
    for flag in _COMMANDS[args.command].arguments:
        minimum = _LEAST_FOR_COMMAND.get((args.command, flag), _ARGUMENTS[flag][1])
        value = getattr(args, flag.lstrip("-").replace("-", "_"))
        if minimum is not None and value is not None and value < minimum:
            raise ValueError(f"{flag} must be >= {minimum}, got {value}")


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
    """Both torsion searches on each class, within _search_bounds.

    Returns the bounds and, per class, the class, its t and s payloads, and
    those of the two that carry a certificate.
    """
    bounds = _search_bounds(args, pf)
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
    mu = engine.milnor_number(problem)
    gens = engine.kernel_forms(problem, problem.nvars - 1)
    result = {
        "problem": problem.serialize(),
        "milnor_number": mu if mu is not None else "NonIsolated",
        "kernel_degree": problem.nvars - 1,
        "kernel_generators": [g.payload(problem.variables) for g in gens],
    }
    if mu is not None:
        basis = engine.ct_basis(problem)
        result["rank"] = len(basis)
        result["spectrum"] = [format_rational(c.tdt_eigenvalue()) for c in basis]
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
    i = args.form_degree if args.form_degree is not None else problem.nvars - 1
    gens = engine.kernel_forms(problem, i)
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
    bounds, rows = _torsion_searches(args, pf, (germ.class_from_monomial(problem, m) for m in monomials))
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
    basis = engine.ct_basis(problem)
    pieces = gm_model.from_brieskorn(problem)
    psi, phi = gm_model.psi_phi(pieces)
    result = {
        "problem": problem.serialize(),
        "milnor_number": engine.milnor_number(problem),
        "rank": len(basis),
        "spectrum": [format_rational(c.tdt_eigenvalue()) for c in basis],
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
    bound = _bound(args.max_degree, pf.options.max_degree, 6)
    i = _bound(args.form_degree, 1)
    witness = nc_log.verify_a_equals_g_atilde(exp, i, bound)
    # one eigenvalue per element of the free log basis, so each rank is a count
    eigenvalues = {str(p): nc_log.residue_eigenvalues(exp, p) for p in range(len(exp))}
    e = math.gcd(*exp)
    result = {
        "problem": problem.serialize(),
        "e": e,
        "mu_vector": [m // e for m in exp],
        "ranks": {p: len(eigs) for p, eigs in eigenvalues.items()},
        "residue_eigenvalues": {p: [format_rational(a) for a in eigs] for p, eigs in eigenvalues.items()},
        "kernel_identity": {
            "form_degree": i,
            "degree_bound": bound,
            "holds": witness is None,
            "witness": None if witness is None else witness.payload(problem.variables),
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
        ok = lhs == microdiff.SkewElement({(j + 1, 0): j})
        commutators.append({"j": j, "holds": ok})
    factorials = []
    for total in range(2, args.factorial_bound + 1):
        factorial = math.factorial(total - 1)
        for p in range(1, total):
            coefficient, tail_ok = microdiff.lemma_a_certificate(p, total - p, cap)
            factorials.append(
                {
                    "p": p,
                    "q": total - p,
                    "coefficient": format_rational(coefficient),
                    "factorial": factorial,
                    "holds": coefficient == factorial and tail_ok,
                }
            )
    remarks = []
    for p in range(1, args.remark_bound + 1):
        lam = microdiff.remark26_solve(p, cap)
        remarks.append({"p": p, "lambda": [format_rational(v) for v in lam]})
    # 1 + 0*t + ...: integrate_bound integrations leave the top coefficient zero
    series = (1,) + (0,) * (args.integrate_bound + 1)
    integral_ok = True
    for k in range(1, args.integrate_bound + 1):
        series = microdiff.integrate_series(series)
        if series[k] != Fraction(1, math.factorial(k)):
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
    f, g = pf.problem, pg.problem
    if engine.milnor_number(f) is None:
        raise NonIsolatedError("the first operand must be isolated")
    if engine.milnor_number(g) is None:
        raise NonIsolatedError("rank/exponent comparison implemented for isolated second operands")
    h = germ.combined_problem(f, g)
    basis_f = engine.ct_basis(f)
    left, right = thom_sebastiani.ts_compare(basis_f, g, h)
    vanish_rows = []
    certificates = []
    exit_code = EXIT_OK
    if basis_f:
        cls_f = basis_f[0]
        for k in range(args.k_max + 1):
            target, eta = thom_sebastiani.vanish_g_k_dg(cls_f, g, h, k)
            if eta is not None:
                vanish_rows.append({"k": k, "status": "found"})
                certificates.append(
                    {
                        "type": "vanishing",
                        "k": k,
                        "f_class": cls_f.serialize(),
                        "target": target.payload(h.variables),
                        "eta": eta.payload(h.variables),
                    }
                )
            else:
                vanish_rows.append({"k": k, "status": "not-found-within"})
                exit_code = EXIT_BOUND
    result = {
        "f": f.serialize(),
        "g": g.serialize(),
        "comparison": {
            "left_rank": len(left),
            "right_rank": len(right),
            "left_exponents": [format_rational(a) for a in left],
            "right_exponents": [format_rational(a) for a in right],
            "ranks_equal": len(left) == len(right),
            "exponents_equal": left == right,
        },
        "vanishing": vanish_rows,
    }
    if left != right:
        exit_code = EXIT_INVARIANT
    # h's slices are finite and never capped
    bounds = {"k_max": args.k_max, "max_degree": None}
    return {"result": result, "certificates": certificates, "bounds": bounds}, exit_code


def cmd_check_p(args, pf):
    problem = pf.problem
    i = args.form_degree if args.form_degree is not None else problem.nvars
    bound = _bound(args.max_degree, pf.options.max_degree, 6)
    witness = engine.check_p_prime(problem, i, bound)
    result = {
        "problem": problem.serialize(),
        "form_degree": i,
        "degree_bound": bound,
        "holds": witness is None,
        # slice spaces are capped only with some weight <= 0; h_free implies positive weights
        "cap_relative": not problem.positive_weights,
        "witness": None if witness is None else witness.payload(problem.variables),
    }
    return {"result": result, "certificates": [], "bounds": {"max_degree": bound}}, EXIT_OK


# every subcommand: the parser and the dispatch in main read this table
_COMMANDS = {
    "analyze": _Command("kernel generators, torsion probes, spectrum",
                        ("problem", *_SEARCH, "--seed"), cmd_analyze),
    "kernel": _Command("module generators of Ker(df-wedge)",
                       ("problem", "--form-degree"), cmd_kernel),
    "torsion": _Command("bounded t- and s-torsion searches on top classes",
                        ("problem", *_SEARCH, "--monomial"), cmd_torsion),
    "spectrum": _Command("exponent multiset of an isolated germ", ("problem",), cmd_spectrum),
    "nc": _Command("normal-crossing log basis, residues, kernel identity",
                   ("problem", "--max-degree", "--form-degree"), cmd_nc),
    "micro": _Command("operator identities in the t, s skew algebra",
                      ("--max-s-power", "--commutator-bound", "--factorial-bound", "--remark-bound",
                       "--integrate-bound"), cmd_micro),
    "ts": _Command("external-product comparison for a sum of two germs",
                   ("problem", "problem_g", "--k-max"), cmd_ts),
    "check-p": _Command("condition (P') by degree; at the top degree, whether s kills the torsion",
                        ("problem", "--max-degree", "--form-degree"), cmd_check_p),
}


# -- report emission and verification -------------------------------------------


def _sources(args) -> tuple:
    """The problem files a command reads: none for micro, two for ts, one otherwise."""
    names = [name for name in ("problem", "problem_g") if hasattr(args, name)]
    return tuple(load_problem_file(getattr(args, name)) for name in names)


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


def main(argv=None) -> int:
    try:
        try:
            args = build_parser().parse_args(argv)
        except SystemExit as exc:  # --help and --version; a usage error raises ValueError
            return exc.code
        _check_bounds(args)
        sources = _sources(args)
        if args.verify:
            return verify_report(args, sources)
        payload, exit_code = _COMMANDS[args.command].handler(args, *sources)
        report = {
            "command": args.command,
            "input_digest": _input_digest(sources),
            "version": __version__,
            **payload,
        }
        emit(report, args)
        return exit_code
    except (ValueError, NonIsolatedError, OSError) as exc:  # ProblemFileError and ParseError are ValueErrors
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (CapExceeded, microdiff.TruncationOverflow, LimitExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BOUND
    except InvariantViolation as exc:
        print(f"invariant violation: {exc}", file=sys.stderr)
        return EXIT_INVARIANT
    except Exception as exc:  # anything else is a fault of the program, not of the input
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        print(f"internal error: {message}", file=sys.stderr)
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
