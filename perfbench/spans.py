"""Per-layer tracing for the benchmark, done from outside the program.

Tracing wraps public functions and methods of the brieskorn modules.  A
function imported by name into another module (engine imports df_wedge,
gm_model imports ct_basis, cli imports load_problem_file) is replaced in
every module that holds it.  Each wrapped call is a span; spans nest on a
stack, so a span's self time is its duration minus the time of the traced
spans inside it.  The time the wrappers spend on their own bookkeeping
(counting rows, nonzeros, bits) is taken out of every enclosing span.

Spans are aggregated in memory per command (the request id) and per layer,
in `requests`, which the benchmark writes out when the run ends.
"""

from __future__ import annotations

import os
import sys
from collections import defaultdict
from time import perf_counter


def _bits(x) -> int:
    return max(x.numerator.bit_length(), x.denominator.bit_length())


# -- counters taken at the layer boundaries --------------------------------------


def _rref_before(tr, args, kwargs):
    vectors = [dict(v) for v in args[0]]
    tr.count("rref_rows", len(vectors))
    tr.count("rref_nnz", sum(len(v) for v in vectors))
    tr.maximum("rref_cols", max((max(v) + 1 for v in vectors if v), default=0))
    return (vectors, *args[1:])


def _rref_after(tr, result, args, kwargs):
    rows, pivots = result
    tr.count("rref_rank", len(pivots))
    tr.maximum("rref_out_bits", max((_bits(x) for r in rows for x in r.values()), default=0))


def _solve_after(tr, result, args, kwargs):
    tr.count("solve_consistent", result is not None)


def _echelon_add_after(tr, result, args, kwargs):
    tr.count("echelon_add_calls", 1)
    tr.count("echelon_add_useful", bool(result))


def _formspace_after(tr, result, args, kwargs):
    space = args[0]
    tr.count("formspace_dim", space.dim)
    tr.distinct("formspace", (space.problem, space.i, space.c, space.cap))


def _h_slice_after(tr, result, args, kwargs):
    tr.distinct("h_slice", (result.problem, result.i, result.c, result.cap))


def _torsion_after(tr, result, args, kwargs):
    tr.count("torsion_found" if hasattr(result, "witness") else "torsion_exhausted", 1)


def _cert_verify_before(tr, args, kwargs):
    cert = args[0]
    tr.count("witness_terms", sum(len(p.terms) for w in cert.witness for p in w.coeffs.values()))
    return args


def _emit_after(tr, result, args, kwargs):
    out = getattr(args[1], "out", None)
    if out:
        tr.count("report_bytes", os.path.getsize(out))


# (module, attribute path, span name, before hook, after hook, materialize)
TARGETS = [
    ("linalg", "rref", "linalg.rref", _rref_before, _rref_after, False),
    ("linalg", "solve_columns", "linalg.solve_columns", None, _solve_after, False),
    ("linalg", "nullspace", "linalg.nullspace", None, None, False),
    ("linalg", "Echelon.add", "linalg.echelon", None, _echelon_add_after, False),
    ("linalg", "Echelon.reduce", "linalg.echelon", None, None, False),
    ("_backend", "rref", "kernels.rref", None, None, False),
    ("_backend", "normal_form", "kernels.normal_form", None, None, False),
    ("poly", "iter_monomials_of_weight", "poly.iter_monomials", None, None, True),
    ("engine", "FormSpace.__init__", "engine.formspace", None, _formspace_after, False),
    ("engine", "h_slice", "engine.h_slice", None, _h_slice_after, False),
    ("engine", "ct_basis", "engine.ct_basis", None, None, False),
    ("engine", "torsion_order_t", "engine.torsion_t", None, _torsion_after, False),
    ("engine", "torsion_order_s", "engine.torsion_s", None, _torsion_after, False),
    ("engine", "TorsionCertificate.verify", "engine.cert_verify", _cert_verify_before, None, False),
    ("engine", "kernel_forms", "engine.kernel_forms", None, None, False),
    ("forms", "DifferentialForm.exterior_derivative", "forms.d", None, None, False),
    ("forms", "df_wedge", "forms.df_wedge", None, None, False),
    ("groebner", "groebner_basis", "groebner.groebner_basis", None, None, False),
    ("groebner", "module_kernel", "groebner.module_kernel", None, None, False),
    ("groebner", "standard_monomials", "groebner.standard_monomials", None, None, False),
    ("gm_model", "from_brieskorn", "gm_model.from_brieskorn", None, None, False),
    ("nc_log", "verify_a_equals_g_atilde", "nc_log.kernel_identity", None, None, False),
    ("thom_sebastiani", "ts_compare", "thom_sebastiani.compare", None, None, False),
    ("thom_sebastiani", "vanish_g_k_dg", "thom_sebastiani.vanish", None, None, False),
    ("problemfile", "load_problem_file", "problemfile.load", None, None, False),
    ("cli", "emit", "cli.emit", None, _emit_after, False),
    ("cli", "verify_report", "cli.verify_report", None, None, False),
]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.total = defaultdict(float)  # outermost spans of a name only
        self.self_time = defaultdict(float)
        self.counters = defaultdict(int)
        self.maxima = defaultdict(int)
        self.requests: dict = defaultdict(lambda: defaultdict(float))
        self.request = None
        self.missing: list = []
        self._keys = defaultdict(set)
        self._alive: list = []
        self._stack: list = []
        self._depth = defaultdict(int)
        self._overhead = 0.0
        self._patches: list = []

    # -- counters ---------------------------------------------------------

    def count(self, key: str, n) -> None:
        self.counters[key] += int(n)

    def maximum(self, key: str, n) -> None:
        self.maxima[key] = max(self.maxima[key], int(n))

    def distinct(self, key: str, item) -> None:
        # a cache would be per problem: key on the problem object, kept alive
        # until the command ends so that its id is not reused
        self._alive.append(item[0])
        self._keys[key].add((self.request, id(item[0])) + tuple(item[1:]))

    def distinct_count(self, key: str) -> int:
        return len(self._keys[key])

    def start_request(self, request) -> None:
        self.request = request
        self._alive.clear()

    # -- spans ------------------------------------------------------------

    def _wrap(self, name, fn, before, after, materialize):
        tr = self

        def traced(*args, **kwargs):
            enter = perf_counter()
            if before is not None:
                args = before(tr, args, kwargs)
            frame = [0.0]
            tr._stack.append(frame)
            tr._depth[name] += 1
            start = perf_counter()
            tr._overhead += start - enter
            overhead0 = tr._overhead
            try:
                result = fn(*args, **kwargs)
                if materialize:
                    result = list(result)
            finally:
                end = perf_counter()
                tr._stack.pop()
                tr._depth[name] -= 1
                duration = end - start - (tr._overhead - overhead0)
                tr.calls[name] += 1
                tr.self_time[name] += duration - frame[0]
                if not tr._depth[name]:
                    tr.total[name] += duration
                    tr.requests[tr.request][name] += duration
                if tr._stack:
                    tr._stack[-1][0] += duration
            if materialize:
                tr.count("monomials_yielded", len(result))
                result = iter(result)
            if after is not None:
                after(tr, result, args, kwargs)
            tr._overhead += perf_counter() - end
            return result

        return traced

    def install(self) -> None:
        """Patch every target in the loaded brieskorn modules."""
        modules = [m for k, m in sys.modules.items() if m and (k == "brieskorn" or k.startswith("brieskorn."))]
        for modname, path, name, before, after, materialize in TARGETS:
            owner = sys.modules.get(f"brieskorn.{modname}")
            parts = path.split(".")
            for part in parts[:-1]:
                owner = getattr(owner, part, None)
            original = getattr(owner, parts[-1], None) if owner is not None else None
            if original is None:
                self.missing.append(f"{modname}.{path}")
                continue
            wrapped = self._wrap(name, original, before, after, materialize)
            if len(parts) > 1:
                self._patch(owner, parts[-1], wrapped)
                continue
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapped)

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patches):
            setattr(owner, attr, value)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics as {name: (value, unit)}."""
        t, c, k, mx = self.total, self.calls, self.counters, self.maxima

        def ratio(a, b):
            return a / b if b else 0.0

        return {
            "linalg.rref_s": (t["linalg.rref"], "s"),
            "linalg.rref_calls": (c["linalg.rref"], "count"),
            "linalg.rref_rows_sum": (k["rref_rows"], "count"),
            "linalg.rref_cols_max": (mx["rref_cols"], "count"),
            "linalg.rref_nnz_in": (k["rref_nnz"], "count"),
            "linalg.rref_rank_sum": (k["rref_rank"], "count"),
            "linalg.rref_out_maxbits": (mx["rref_out_bits"], "bits"),
            "linalg.solve_columns_s": (t["linalg.solve_columns"], "s"),
            "linalg.solve_columns_self_s": (self.self_time["linalg.solve_columns"], "s"),
            "linalg.solve_calls": (c["linalg.solve_columns"], "count"),
            "linalg.solve_useful_ratio": (ratio(k["solve_consistent"], c["linalg.solve_columns"]), "ratio"),
            "linalg.nullspace_s": (t["linalg.nullspace"], "s"),
            "linalg.echelon_s": (t["linalg.echelon"], "s"),
            "linalg.echelon_add_useful_ratio": (ratio(k["echelon_add_useful"], k["echelon_add_calls"]), "ratio"),
            "kernels.rref_s": (t["kernels.rref"], "s"),
            "kernels.normal_form_s": (t["kernels.normal_form"], "s"),
            "kernels.normal_form_calls": (c["kernels.normal_form"], "count"),
            "poly.iter_monomials_s": (t["poly.iter_monomials"], "s"),
            "poly.monomials_yielded": (k["monomials_yielded"], "count"),
            "engine.formspace_s": (t["engine.formspace"], "s"),
            "engine.formspace_calls": (c["engine.formspace"], "count"),
            "engine.formspace_distinct": (self.distinct_count("formspace"), "count"),
            "engine.formspace_dim_sum": (k["formspace_dim"], "count"),
            "engine.h_slice_s": (t["engine.h_slice"], "s"),
            "engine.h_slice_calls": (c["engine.h_slice"], "count"),
            "engine.h_slice_distinct": (self.distinct_count("h_slice"), "count"),
            "engine.ct_basis_s": (t["engine.ct_basis"], "s"),
            "engine.ct_basis_calls": (c["engine.ct_basis"], "count"),
            "engine.torsion_t_s": (t["engine.torsion_t"], "s"),
            "engine.torsion_s_s": (t["engine.torsion_s"], "s"),
            "engine.torsion_found": (k["torsion_found"], "count"),
            "engine.torsion_exhausted": (k["torsion_exhausted"], "count"),
            "engine.cert_verify_s": (t["engine.cert_verify"], "s"),
            "engine.cert_verify_calls": (c["engine.cert_verify"], "count"),
            "engine.witness_terms": (k["witness_terms"], "count"),
            "engine.kernel_forms_s": (t["engine.kernel_forms"], "s"),
            "forms.d_s": (t["forms.d"], "s"),
            "forms.d_calls": (c["forms.d"], "count"),
            "forms.df_wedge_s": (t["forms.df_wedge"], "s"),
            "forms.df_wedge_calls": (c["forms.df_wedge"], "count"),
            "groebner.groebner_basis_s": (t["groebner.groebner_basis"], "s"),
            "groebner.groebner_basis_calls": (c["groebner.groebner_basis"], "count"),
            "groebner.module_kernel_s": (t["groebner.module_kernel"], "s"),
            "groebner.standard_monomials_s": (t["groebner.standard_monomials"], "s"),
            "gm_model.from_brieskorn_s": (t["gm_model.from_brieskorn"], "s"),
            "nc_log.kernel_identity_s": (t["nc_log.kernel_identity"], "s"),
            "thom_sebastiani.compare_s": (t["thom_sebastiani.compare"], "s"),
            "thom_sebastiani.vanish_s": (t["thom_sebastiani.vanish"], "s"),
            "problemfile.load_s": (t["problemfile.load"], "s"),
            "cli.emit_s": (t["cli.emit"], "s"),
            "cli.report_bytes": (k["report_bytes"], "bytes"),
            "cli.verify_report_s": (t["cli.verify_report"], "s"),
        }


def counter_metrics(metrics: dict) -> dict:
    """The deterministic part of the metrics: everything that is not a time."""
    return {k: v for k, (v, unit) in metrics.items() if unit != "s"}
