"""End-to-end benchmark of the brieskorn CLI (see perfbench/README.md).

Run from the repository root:

    python3 perfbench/run.py --workload torsion-barlet35 --seed 1 --seconds 30 --trace 0

The load is a closed loop with one client: one process issues one command
at a time through brieskorn.cli.main(argv), each starting with the engine's
caches empty.  Every command's exit code and report are checked against
golden.json, every report is replayed with --verify, and spectra are checked
against closed forms.  Timings are scaled to a nominal host speed by a
SpeedProbe.  The last line of stdout is one JSON object with the
keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import importlib
import io
import json
import os
import platform
import re
import resource
import signal
import statistics
import sys
from fractions import Fraction
from math import gcd
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import spans  # noqa: E402
import workloads  # noqa: E402

GOLDEN = os.path.join(HERE, "golden.json")
SETUP_SAMPLES = 7
SOLVE_SHARE = 0.75  # of --seconds; replays get the rest
# Timings are scaled to the host speed at which the reference load takes
# REF_NOMINAL_S, sampled every PROBE_EVERY_S (see SpeedProbe).
REF_NOMINAL_S = 0.002
PROBE_EVERY_S = 0.2
PROBE_HISTORY = 5  # samples before a timing that count towards its scale
END_TO_END = ("solve_s", "verify_s", "setup_s", "peak_rss_mb")
TRACE_METRICS = ("trace.solve_s", "trace.verify_s", "trace.untraced_solve_s", "trace.overhead_s", "trace.commands")
_VERIFIED = re.compile(r"verified (\d+)/\1 certificates\n")


def import_engine(root: str):
    """Import brieskorn from root/src, refusing any other copy."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "brieskorn", "cli.py")):
        sys.exit(f"perfbench: no brieskorn sources under {src}; run from the repository root")
    sys.path.insert(0, src)
    import brieskorn
    import brieskorn.cli
    import brieskorn.groebner

    if not os.path.abspath(brieskorn.__file__).startswith(os.path.abspath(src) + os.sep):
        sys.exit(f"perfbench: imported brieskorn from {brieskorn.__file__}, not from {src}")
    return brieskorn.cli, brieskorn.groebner


def environment() -> dict:
    try:
        from brieskorn import _backend

        impl = getattr(_backend, "_impl", None)
        backend = getattr(impl, "BACKEND_NAME", getattr(impl, "__name__", "unknown"))
    except ImportError:
        backend = "single"
    return {
        "python": platform.python_version(),
        "kernels.backend": backend,
        "BRIESKORN_PURE": os.environ.get("BRIESKORN_PURE", ""),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def file_sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def command_key(argv, digests: dict) -> str:
    """A command with each problem path replaced by the digest of its bytes."""
    return " ".join("@" + digests[a] if a in digests else a for a in argv)


def run_cli(cli, groebner, argv, probe=None):
    """One command in-process with empty caches.

    Returns (exit code, (wall seconds, scaled seconds), stdout, stderr); the
    two times are equal without a probe.
    """
    cache = getattr(groebner, "_cache", None)
    if cache is not None:
        groebner._cache = type(cache)()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    mark = probe.mark() if probe else None
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except Exception as exc:  # a crash is a failed operation, not a failed run
        rc = f"raised {type(exc).__name__}: {exc}"
    except SystemExit as exc:
        rc = f"exit {exc.code}"
    wall = perf_counter() - start
    seconds = probe.timing(mark, wall) if probe else (wall, wall)
    return rc, seconds, out.getvalue(), err.getvalue()


def reference_load() -> None:
    """Fixed stdlib-only work shaped like the engine's inner loops: a
    fraction-free integer row elimination and Fraction sums in a dict."""
    row = [(c, (c * 7919) % 1009 + 1) for c in range(100)]
    for k in range(3, 13):
        out, g = [], 0
        for c, a in row:
            v = k * a * 1234567891011 - a * 98765432109
            out.append((c, v))
            g = gcd(g, v)
        row = [(c, v // g % 100003 + 1) for c, v in out]
    acc: dict = {}
    for i in range(600):
        key = (i % 37, i % 41)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i % 13, i % 7 + 1)


class SpeedProbe:
    """Follows the speed of a shared host through a run.

    Other tenants slow this process by up to a half, in spells of seconds to
    minutes, so raw wall times of the same work differ by a third between
    runs.  While started, a SIGALRM every PROBE_EVERY_S runs the reference
    load in the main thread, between bytecodes, and records its duration.
    A timing excludes the probe's own time and is scaled by REF_NOMINAL_S
    times the mean of 1/duration over the samples taken while it ran and
    the PROBE_HISTORY before it: seconds at the speed where the reference
    takes REF_NOMINAL_S.  Long commands are scaled by their own samples;
    short ones by the last second.
    """

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0
        self.sample()

    def sample(self, *_signal) -> None:
        start = perf_counter()
        reference_load()
        took = perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def mark(self):
        return max(0, len(self.samples) - PROBE_HISTORY), self.spent

    def timing(self, mark, wall: float):
        """(wall, scaled) seconds of what ran since mark, less the probe's time."""
        first, spent = mark
        wall -= self.spent - spent
        window = self.samples[first:]
        return wall, wall * REF_NOMINAL_S * sum(1 / s for s in window) / len(window)


def spectrum_oracle(report: dict, exponents) -> str | None:
    """Compare a spectrum report with Steenbrink's and Milnor-Orlik's closed forms."""
    result = report["result"]
    mu = workloads.milnor_orlik(exponents)
    if result["milnor_number"] != mu or result["rank"] != mu:
        return f"milnor_number {result['milnor_number']} / rank {result['rank']}, expected {mu}"
    if sorted(Fraction(s) for s in result["spectrum"]) != workloads.steenbrink_spectrum(exponents):
        return "spectrum differs from Steenbrink's closed form"
    return None


class Runner:
    """Runs the workload's commands and replays, checking every output."""

    def __init__(self, cli, groebner, wl, golden: dict, workdir: str, probe=None):
        self.cli, self.groebner, self.wl, self.golden = cli, groebner, wl, golden
        self.probe = probe
        self.digests = {p: file_sha256(p) for p in wl.problems}
        self.reports = [os.path.join(workdir, f"report-{i}.json") for i in range(len(wl.commands))]
        self.attempted = 0
        self.failures: list = []

    def _fail(self, argv, why: str) -> None:
        self.failures.append(f"{' '.join(argv)}: {why}")

    def _check_solve(self, cmd, report: str, rc) -> str | None:
        expected = self.golden.get(command_key(cmd.argv, self.digests))
        if expected is None:
            return "no recorded expectation for this command"
        if rc != expected["exit"]:
            return f"exit {rc}, expected {expected['exit']}"
        if expected["report_sha256"] is None:
            return "unexpected report" if os.path.exists(report) else None
        if not os.path.exists(report):
            return "no report written"
        if file_sha256(report) != expected["report_sha256"]:
            return "report differs from the recorded one"
        if cmd.oracle is not None:
            with open(report, encoding="utf-8") as fh:
                return spectrum_oracle(json.load(fh), cmd.oracle)
        return None

    def solve_pass(self, tracer=None) -> tuple:
        """(wall, scaled) seconds of one pass over the commands."""
        total = (0.0, 0.0)
        for i, (cmd, report) in enumerate(zip(self.wl.commands, self.reports)):
            if os.path.exists(report):
                os.remove(report)
            if tracer is not None:
                tracer.start_request(f"solve {i}: {' '.join(cmd.argv)}")
            rc, seconds, _, err = run_cli(self.cli, self.groebner, [*cmd.argv, "--out", report], self.probe)
            total = (total[0] + seconds[0], total[1] + seconds[1])
            self.attempted += 1
            why = self._check_solve(cmd, report, rc)
            if why:
                self._fail(cmd.argv, why + (f" ({err.strip()[:200]})" if err.strip() else ""))
        return total

    def replay_pass(self, tracer=None) -> tuple:
        """(wall, scaled) seconds of one pass of replays."""
        total = (0.0, 0.0)
        for i, (cmd, report) in enumerate(zip(self.wl.commands, self.reports)):
            if not cmd.replay:
                continue
            if tracer is not None:
                tracer.start_request(f"replay {i}: {' '.join(cmd.argv)}")
            rc, seconds, out, err = run_cli(self.cli, self.groebner, [*cmd.argv, "--verify", report], self.probe)
            total = (total[0] + seconds[0], total[1] + seconds[1])
            self.attempted += 1
            if rc != 0 or not _VERIFIED.fullmatch(out):
                self._fail(cmd.argv, f"replay exit {rc}: {(out + err).strip()[:200]}")
        return total


def measure_setup(problems, probe: SpeedProbe):
    """Import brieskorn afresh and load and validate the problem files, SETUP_SAMPLES times.

    Returns the (wall, scaled) seconds of each sample and the cli and
    groebner modules of the last import.
    """
    samples = []
    for _ in range(SETUP_SAMPLES):
        for name in [m for m in sys.modules if m == "brieskorn" or m.startswith("brieskorn.")]:
            del sys.modules[name]
        mark = probe.mark()
        start = perf_counter()
        cli = importlib.import_module("brieskorn.cli")
        load = importlib.import_module("brieskorn.problemfile").load_problem_file
        for path in problems:
            load(path)
        samples.append(probe.timing(mark, perf_counter() - start))
    return samples, cli, sys.modules["brieskorn.groebner"]


def timed_run(wl, golden: dict, workdir: str, seconds: float):
    """Untraced: set-up samples, solve passes (each replayed) for SOLVE_SHARE of the time, then replay passes."""
    probe = SpeedProbe()
    probe.start()
    try:
        setup, cli, groebner = measure_setup(wl.problems, probe)
        runner = Runner(cli, groebner, wl, golden, workdir, probe)
        timings = {"setup_s": setup}
        start = perf_counter()
        solve = timings["solve_s"] = []
        verify = timings["verify_s"] = []
        while True:  # each pass is replayed at once, so both spread over the run
            solve.append(runner.solve_pass())
            verify.append(runner.replay_pass())
            if perf_counter() - start + statistics.median(t[0] for t in solve) > SOLVE_SHARE * seconds:
                break
        while len(verify) < 3 or perf_counter() - start + statistics.median(t[0] for t in verify) <= seconds:
            verify.append(runner.replay_pass())
    finally:
        probe.stop()
    print(f"passes: {len(solve)} solve ({', '.join(f'{t[0]:.3f}' for t in solve[:8])} s wall), "
          f"{len(verify)} replay")
    print(f"speed probe: {len(probe.samples)} samples, reference load {min(probe.samples) * 1000:.2f} to "
          f"{max(probe.samples) * 1000:.2f} ms, nominal {REF_NOMINAL_S * 1000:.2f} ms")
    print("wall " + " ".join(f"{k} {statistics.median(t[0] for t in v):.4f}" for k, v in timings.items()))
    metrics = {k: (statistics.median(t[1] for t in timings[k]), "s") for k in ("solve_s", "verify_s", "setup_s")}
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
    return metrics, runner


def traced_run(runner: Runner, tracefile: str):
    """A traced solve and replay pass between two untraced solve passes."""
    untraced = runner.solve_pass()[0]
    tracer = spans.Tracer()
    tracer.install()
    try:
        solve = runner.solve_pass(tracer)[0]
        verify = runner.replay_pass(tracer)[0]
    finally:
        tracer.uninstall()
    untraced = (untraced + runner.solve_pass()[0]) / 2
    if tracer.missing:
        print("trace: not found in this version: " + ", ".join(tracer.missing))
    with open(tracefile, "w", encoding="utf-8") as fh:
        json.dump({"requests": tracer.requests, "missing": tracer.missing}, fh, indent=1)
    metrics = tracer.metrics()
    metrics.update(
        {
            "trace.solve_s": (solve, "s"),
            "trace.verify_s": (verify, "s"),
            "trace.untraced_solve_s": (untraced, "s"),
            "trace.overhead_s": (solve - untraced, "s"),
            "trace.commands": (len(runner.wl.commands), "count"),
        }
    )
    return metrics, runner


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="brieskorn end-to-end benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    cli, groebner = import_engine(root)
    workdir = os.path.join(HERE, "_work", args.workload)
    wl = workloads.build(args.workload, args.seed, workdir, root)
    with open(GOLDEN, encoding="utf-8") as fh:
        golden = json.load(fh)

    print(f"workload {wl.name} seed {wl.seed}: {len(wl.commands)} commands, variables {wl.names}")
    print("env " + json.dumps(environment(), sort_keys=True))
    if args.trace:
        metrics, runner = traced_run(Runner(cli, groebner, wl, golden, workdir), os.path.join(workdir, "trace.json"))
    else:
        metrics, runner = timed_run(wl, golden, workdir, args.seconds)

    failed = len(runner.failures)
    for line in runner.failures[:20]:
        print("FAIL " + line, file=sys.stderr)
    print(f"fail_ratio {failed / runner.attempted:.6f} ({failed} of {runner.attempted} operations)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": runner.attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
