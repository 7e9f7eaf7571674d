"""Command line interface: problem ingestion, computation, JSON/text reports.

Exit codes: 0 success, 1 input error, 2 a bounded search hit its ceiling or
a cap was exceeded, 3 internal invariant violation.  Reports are
deterministic (no timestamps, sorted keys, exact rationals as strings), so
repeated runs on the same input are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from brieskorn import __version__, engine, gm_model, microdiff, nc_log, thom_sebastiani
from brieskorn.engine import (
    CapExceeded,
    CohomologyClass,
    InvariantViolation,
    TorsionCertificate,
)
from brieskorn.forms import form_from_payload, volume_form
from brieskorn.poly import ParseError, format_rational, parse_polynomial
from brieskorn.problemfile import ProblemFile, ProblemFileError, load_problem_file

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_BOUND = 2
EXIT_INVARIANT = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="brieskorn",
        description="Exact Brieskorn-module computations for quasi-homogeneous germs",
    )
    parser.add_argument("--version", action="version", version=f"brieskorn {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_problem=True):
        if needs_problem:
            p.add_argument("problem", help="problem JSON file")
        p.add_argument("--max-degree", type=int, default=None, help="total-degree cap")
        p.add_argument("--max-t-power", type=int, default=None, help="t-torsion search bound")
        p.add_argument("--max-s-power", type=int, default=None, help="s-torsion search bound")
        p.add_argument("--format", choices=("json", "text"), default="json")
        p.add_argument("--out", default=None, help="write the report here instead of stdout")
        p.add_argument("--verify", default=None, metavar="REPORT",
                       help="re-verify the certificates of a previous report")
        p.add_argument("--seed", type=int, default=0, help="sampling seed")

    common(sub.add_parser("analyze", help="kernel generators, torsion probes, spectrum"))
    k = sub.add_parser("kernel", help="module generators of Ker(df-wedge)")
    common(k)
    k.add_argument("--form-degree", type=int, default=None)
    t = sub.add_parser("torsion", help="bounded t- and s-torsion searches on top classes")
    common(t)
    t.add_argument("--monomial", action="append", default=None,
                   help="coefficient monomial of the top class (repeatable)")
    common(sub.add_parser("spectrum", help="exponent multiset of an isolated germ"))
    nc = sub.add_parser("nc", help="normal-crossing log basis, residues, kernel identity")
    common(nc)
    nc.add_argument("--form-degree", type=int, default=1)
    m = sub.add_parser("micro", help="operator identities in the t, s skew algebra")
    common(m, needs_problem=False)
    m.add_argument("--commutator-bound", type=int, default=20)
    m.add_argument("--factorial-bound", type=int, default=8)
    m.add_argument("--remark-bound", type=int, default=5)
    m.add_argument("--integrate-bound", type=int, default=50)
    ts = sub.add_parser("ts", help="external-product comparison for a sum of two germs")
    ts.add_argument("problem", help="problem JSON file for the first germ")
    ts.add_argument("problem_g", help="problem JSON file for the second germ")
    ts.add_argument("--k-max", type=int, default=3)
    ts.add_argument("--max-degree", type=int, default=None)
    ts.add_argument("--max-t-power", type=int, default=None)
    ts.add_argument("--max-s-power", type=int, default=None)
    ts.add_argument("--format", choices=("json", "text"), default="json")
    ts.add_argument("--out", default=None)
    ts.add_argument("--verify", default=None, metavar="REPORT")
    ts.add_argument("--seed", type=int, default=0)
    cp = sub.add_parser("check-p", help="degreewise torsion-freeness criterion")
    common(cp)
    cp.add_argument("--form-degree", type=int, default=None)
    return parser


# -- command implementations ---------------------------------------------------


def _load(path: str) -> ProblemFile:
    return load_problem_file(path)


def _bound(*candidates):
    """The first bound given, in order of precedence; an explicit 0 counts."""
    return next((b for b in candidates if b is not None), None)


def _class_from_monomial(pf: ProblemFile, text: str) -> CohomologyClass:
    problem = pf.problem
    poly = parse_polynomial(text, problem.variables)
    return CohomologyClass(problem, problem.n, volume_form(problem.nvars, poly))


def _torsion_payload(pf: ProblemFile, cls, cert_or_not, kind: str):
    problem = pf.problem
    if isinstance(cert_or_not, TorsionCertificate):
        return {
            "kind": kind,
            "status": "found",
            "order": cert_or_not.order,
            "witness": [w.payload(problem.variables) for w in cert_or_not.witness],
        }
    return {
        "kind": kind,
        "status": "not-found-within",
        "bound": cert_or_not.bound,
        "cap_limited": cert_or_not.cap_limited,
    }


def cmd_analyze(args) -> tuple[dict, dict, int]:
    pf = _load(args.problem)
    problem = pf.problem
    cap = _bound(args.max_degree, pf.options.max_degree)
    p_max = _bound(args.max_t_power, pf.options.max_t_power)
    r_max = _bound(args.max_s_power, pf.options.max_s_power)
    mu = problem.milnor_number()
    gens = engine.kernel_generator_forms(problem, problem.n - 1)
    result = {
        "problem": problem.serialize(),
        "milnor_number": mu if mu is not None else "NonIsolated",
        "kernel_degree": problem.n - 1,
        "kernel_generators": [g.payload(problem.variables) for g in gens],
    }
    certificates = []
    exit_code = EXIT_OK
    if mu is not None:
        basis = engine.ct_basis(problem, reduced=True)
        result["rank"] = len(basis)
        result["spectrum"] = [format_rational(b.exponent) for b in basis]
        module = gm_model.from_brieskorn(problem)
        result["gm_pieces"] = module.serialize()["pieces"]
    else:
        probes = engine.sample_top_classes(problem, 3, args.seed)
        probe_rows = []
        for cls in probes:
            rt = engine.torsion_order_t(cls, p_max, cap=cap)
            rs = engine.torsion_order_s(cls, r_max, cap=cap)
            row = {
                "class": cls.serialize(),
                "t": _torsion_payload(pf, cls, rt, "t-torsion"),
                "s": _torsion_payload(pf, cls, rs, "s-torsion"),
            }
            probe_rows.append(row)
            for payload, cert in (("t", rt), ("s", rs)):
                if isinstance(cert, TorsionCertificate):
                    certificates.append(
                        {
                            "type": "torsion",
                            "class": cls.serialize(),
                            **_torsion_payload(pf, cls, cert, payload + "-torsion"),
                        }
                    )
        result["torsion_probes"] = probe_rows
    bounds = {"max_degree": cap, "max_t_power": p_max, "max_s_power": r_max, "seed": args.seed}
    return {"result": result, "certificates": certificates, "bounds": bounds}, pf, exit_code


def cmd_kernel(args):
    pf = _load(args.problem)
    problem = pf.problem
    i = args.form_degree if args.form_degree is not None else problem.n - 1
    gens = engine.kernel_generator_forms(problem, i)
    result = {
        "problem": problem.serialize(),
        "form_degree": i,
        "generator_count": len(gens),
        "generators": [g.payload(problem.variables) for g in gens],
    }
    certs = [
        {
            "type": "kernel-generator",
            "form_degree": i,
            "form": g.payload(problem.variables),
        }
        for g in gens
    ]
    return {"result": result, "certificates": certs, "bounds": {}}, pf, EXIT_OK


def cmd_torsion(args):
    pf = _load(args.problem)
    problem = pf.problem
    cap = _bound(args.max_degree, pf.options.max_degree)
    p_max = _bound(args.max_t_power, pf.options.max_t_power)
    r_max = _bound(args.max_s_power, pf.options.max_s_power)
    monomials = args.monomial or ["1"]
    rows = []
    certificates = []
    exit_code = EXIT_OK
    for text in monomials:
        cls = _class_from_monomial(pf, text)
        rt = engine.torsion_order_t(cls, p_max, cap=cap)
        rs = engine.torsion_order_s(cls, r_max, cap=cap)
        rows.append(
            {
                "monomial": text,
                "class": cls.serialize(),
                "t": _torsion_payload(pf, cls, rt, "t-torsion"),
                "s": _torsion_payload(pf, cls, rs, "s-torsion"),
                "existence_agrees": isinstance(rt, TorsionCertificate)
                == isinstance(rs, TorsionCertificate),
            }
        )
        for kind, cert in (("t-torsion", rt), ("s-torsion", rs)):
            if isinstance(cert, TorsionCertificate):
                certificates.append(
                    {
                        "type": "torsion",
                        "monomial": text,
                        "degree": cls.i,
                        **_torsion_payload(pf, cls, cert, kind),
                    }
                )
            else:
                exit_code = EXIT_BOUND
    result = {"problem": problem.serialize(), "classes": rows}
    bounds = {"max_degree": cap, "max_t_power": p_max, "max_s_power": r_max}
    return {"result": result, "certificates": certificates, "bounds": bounds}, pf, exit_code


def cmd_spectrum(args):
    pf = _load(args.problem)
    problem = pf.problem
    mu = problem.milnor_number()
    if mu is None:
        raise ProblemFileError(f"{args.problem}: spectrum needs an isolated singularity")
    basis = engine.ct_basis(problem, reduced=True)
    module = gm_model.from_brieskorn(problem)
    psi, phi = gm_model.psi_phi(module)
    result = {
        "problem": problem.serialize(),
        "milnor_number": mu,
        "rank": len(basis),
        "spectrum": [format_rational(b.exponent) for b in basis],
        "gm_pieces": module.serialize()["pieces"],
        "psi": [[format_rational(a), d] for a, d in psi.pieces],
        "phi": [[format_rational(a), d] for a, d in phi.pieces],
        "can_surjective": gm_model.can_map(module).surjective,
    }
    return {"result": result, "certificates": [], "bounds": {}}, pf, EXIT_OK


def cmd_nc(args):
    pf = _load(args.problem)
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
    i = args.form_degree
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
    return {"result": result, "certificates": [], "bounds": {"max_degree": bound}}, pf, EXIT_OK


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
    import math as _math

    for k in range(1, args.integrate_bound + 1):
        series = microdiff.integrate_series(series)
        if series.coefficient(k) != Fraction(1, _math.factorial(k)):
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
    return {"result": result, "certificates": [], "bounds": bounds}, None, EXIT_OK


def cmd_ts(args):
    pf = _load(args.problem)
    pg = _load(args.problem_g)
    report = thom_sebastiani.ts_compare(pf.problem, pg.problem)
    basis_f = engine.ct_basis(pf.problem, reduced=True)
    cls_f = basis_f[0].cls if basis_f else None
    vanish_rows = []
    certificates = []
    exit_code = EXIT_OK
    combined = thom_sebastiani.combined_problem(pf.problem, pg.problem)
    if cls_f is not None:
        for k in range(args.k_max + 1):
            cert = thom_sebastiani.vanish_g_k_dg(cls_f, pg.problem, k, args.max_degree)
            if isinstance(cert, thom_sebastiani.VanishingCertificate):
                vanish_rows.append({"k": k, "status": "found"})
                certificates.append(
                    {
                        "type": "vanishing",
                        "k": k,
                        "f_class": cls_f.serialize(),
                        "target": cert.target.payload(combined.variables),
                        "eta": cert.eta.payload(combined.variables),
                    }
                )
            elif isinstance(cert, TorsionCertificate):
                vanish_rows.append({"k": k, "status": "trivial"})
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
    payload = {"result": result, "certificates": certificates, "bounds": bounds}
    return payload, (pf, pg), exit_code


def cmd_check_p(args):
    pf = _load(args.problem)
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
    return {"result": result, "certificates": [], "bounds": {"max_degree": bound}}, pf, EXIT_OK


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


def _input_digest(source) -> str:
    if source is None:
        return ""
    if isinstance(source, tuple):
        return "+".join(p.digest for p in source)
    return source.digest


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


def verify_report(path: str, command: str, source) -> int:
    """Replay mode: re-check every certificate embedded in a report."""
    with open(path, "r", encoding="utf-8") as fh:
        report = json.load(fh)
    if report.get("command") != command:
        print(f"verify: report was produced by {report.get('command')!r}, not {command!r}",
              file=sys.stderr)
        return EXIT_INPUT
    if report.get("input_digest") != _input_digest(source):
        print("verify: input digest mismatch", file=sys.stderr)
        return EXIT_INPUT
    failures = 0
    total = 0
    for cert in report.get("certificates", []):
        total += 1
        if not _verify_certificate(cert, source):
            failures += 1
    print(f"verified {total - failures}/{total} certificates")
    return EXIT_OK if failures == 0 else EXIT_INVARIANT


def _verify_certificate(cert: dict, source) -> bool:
    kind = cert.get("type")
    try:
        if kind == "torsion":
            pf = source if isinstance(source, ProblemFile) else source[0]
            problem = pf.problem
            text = cert.get("monomial")
            if text is not None:
                cls = _class_from_monomial(pf, text)
            else:
                payload = cert["class"]
                rep = form_from_payload(payload["form"], problem.variables, payload["degree"])
                cls = CohomologyClass(problem, payload["degree"], rep)
            witness = [
                form_from_payload(w, problem.variables, cls.i - 1) for w in cert["witness"]
            ]
            tc = TorsionCertificate(cert["kind"].split("-")[0], cert["order"], witness)
            return tc.verify(cls)
        if kind == "kernel-generator":
            pf = source if isinstance(source, ProblemFile) else source[0]
            problem = pf.problem
            form = form_from_payload(
                cert["form"], problem.variables, cert["form_degree"]
            )
            from brieskorn.forms import df_wedge

            return not df_wedge(problem.f, form)
        if kind == "vanishing":
            pf, pg = source
            combined = thom_sebastiani.combined_problem(pf.problem, pg.problem)
            eta_degree = pf.problem.n + pg.problem.n - 1
            eta = form_from_payload(cert["eta"], combined.variables, eta_degree)
            target = form_from_payload(cert["target"], combined.variables, eta_degree + 1)
            from brieskorn.forms import df_wedge

            return (not df_wedge(combined.f, eta)) and eta.exterior_derivative() == target
    except Exception as exc:  # a malformed certificate is a failed certificate
        print(f"verify: certificate error: {exc}", file=sys.stderr)
        return False
    print(f"verify: unknown certificate type {kind!r}", file=sys.stderr)
    return False


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = _HANDLERS[args.command]
    try:
        if getattr(args, "verify", None):
            source = None
            if args.command == "ts":
                source = (_load(args.problem), _load(args.problem_g))
            elif hasattr(args, "problem"):
                source = _load(args.problem)
            return verify_report(args.verify, args.command, source)
        payload, source, exit_code = handler(args)
    except (ProblemFileError, ParseError, ValueError) as exc:
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
    report = {
        "command": args.command,
        "input_digest": _input_digest(source),
        "version": __version__,
        **payload,
    }
    emit(report, args)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
