"""Deterministic work counters of the traced benchmark, pinned exactly.

Timings drift with the machine; these counts do not.  A change that makes
the engine do more work (more eliminations, larger spaces, more calls)
fails here whatever the noise.  Run from the repository root:

    python3 -m pytest perfbench/test_counters.py
"""

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import spans  # noqa: E402

CLI, GROEBNER = run.import_engine(ROOT)

CUSP_SPECTRUM = {
    "linalg.rref_calls": 8,
    "linalg.rref_rows_sum": 8,
    "linalg.rref_cols_max": 2,
    "linalg.rref_nnz_in": 8,
    "linalg.rref_rank_sum": 8,
    "linalg.rref_out_maxbits": 1,
    "linalg.solve_calls": 0,
    "linalg.solve_useful_ratio": 0.0,
    "linalg.echelon_add_useful_ratio": 1.0,
    "kernels.normal_form_calls": 2,
    "poly.monomials_yielded": 12,
    "engine.formspace_calls": 8,
    "engine.formspace_distinct": 4,
    "engine.formspace_dim_sum": 12,
    "engine.h_slice_calls": 4,
    "engine.h_slice_distinct": 2,
    "engine.ct_basis_calls": 2,
    "engine.torsion_found": 0,
    "engine.torsion_exhausted": 0,
    "engine.cert_verify_calls": 0,
    "engine.witness_terms": 0,
    "forms.d_calls": 0,
    "forms.df_wedge_calls": 16,
    "groebner.groebner_basis_calls": 3,
    "cli.report_bytes": 1017,
}


def traced_counters(argv, out):
    tracer = spans.Tracer()
    tracer.install()
    try:
        tracer.start_request(0)
        rc = run.run_cli(CLI, GROEBNER, [*argv, "--out", str(out)])[0]
    finally:
        tracer.uninstall()
    assert rc in (0, 2), rc
    assert not tracer.missing
    return spans.counter_metrics(tracer.metrics())


def test_cusp_spectrum_counters_are_pinned(tmp_path):
    argv = ["spectrum", os.path.join(ROOT, "problems", "cusp.json")]
    assert traced_counters(argv, tmp_path / "r.json") == CUSP_SPECTRUM


def test_traced_counters_repeat_exactly(tmp_path):
    for argv in (
        ["spectrum", os.path.join(ROOT, "problems", "x3y3.json")],
        ["torsion", os.path.join(ROOT, "problems", "barlet35.json"), "--monomial", "1"],
    ):
        first = traced_counters(argv, tmp_path / "a.json")
        assert first == traced_counters(argv, tmp_path / "b.json")
        assert first["linalg.rref_calls"] > 0


def test_uninstall_restores_the_program():
    before = CLI.load_problem_file
    tracer = spans.Tracer()
    tracer.install()
    assert CLI.load_problem_file is not before
    tracer.uninstall()
    assert CLI.load_problem_file is before


def test_benchmark_json_names_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    per_layer = {m["name"] for m in declared["per_layer"]}
    assert per_layer == set(spans.Tracer().metrics()) | set(run.TRACE_METRICS)
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    assert end_to_end == set(run.END_TO_END)
