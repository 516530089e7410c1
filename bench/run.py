"""Benchmark of the ``agency`` toolkit: one workload, one seed, one run.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload theorem_battery --seed 1 --seconds 30 --trace 0

Workloads (their reasons are recorded in ``BENCHMARK.json``):

* ``theorem_battery``: every theorem verdict on seeded regular pairs;
* ``nonregular_ironing``: ironing, virtual welfare and the verdicts that
  use it, on seeded non-regular densities;
* ``cli_reports``: in-process ``agency`` CLI calls over a seeded corpus.

With ``--trace 0`` the run reports the end-to-end metrics, with ``--trace
1`` the per-layer ones (call counts and self times per layer function,
work counters, import times, tracing overhead) and writes every span to
``.bench_trace/<workload>.npz``. Human-readable lines come first; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. An operation that fails a correctness check or
raises counts in ``failed``.

The program is imported from ``src/`` under the current directory; the
run exits with status 2, printing no result, when it is not there.
"""

from __future__ import annotations

import argparse
import collections
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORKLOADS = ("theorem_battery", "nonregular_ironing", "cli_reports")
SUBCOMMANDS = ("analyze", "sweep-alpha", "verify", "check-ic", "reproduce")
MODULES = ("instance", "typedist", "allocation", "metrics", "conditions", "incentives", "examples", "cli")

#: Set-ups measured per run; ``setup_s`` is their median.
SETUP_RUNS = 5

#: Check categories reported by the traced run as ``check.<name>.share``.
CHECKS = ("quadrature", "best_linear_ge_probes", "vwel_ge_best_linear", "verdict", "raised",
          "cli_exit", "cli_bytes", "reproduce_checks")

#: Checks that fail at this commit because of known program defects: ironing
#: takes the convex hull in cost space rather than quantile space, so the
#: ironed virtual welfare can fall below the optimal linear revenue, and a
#: zero-density gap raises instead of being ironed across. They count in
#: ``failed`` on the workload built to expose them; any other failed check
#: makes the run incorrect.
KNOWN_DEFECTS = {"nonregular_ironing": ("vwel_ge_best_linear", "raised.ZeroDensityError")}

#: BLAS threads: one is at most nproc on any machine and keeps timings of
#: these small matrix products steady.
BLAS_THREADS = "1"


def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, BENCH_DIR])
    return env


def measure_setup(workload: str, seed: int, importtime: bool) -> tuple[list[float], list[dict]]:
    """Fresh interpreters that import ``agency.cli`` and build the workload's
    inputs; returns their wall times and, with ``importtime``, each one's
    cumulative import time per ``agency`` module."""
    times, imports = [], []
    for _ in range(SETUP_RUNS):
        cmd = [sys.executable] + (["-X", "importtime"] if importtime else [])
        cmd += [os.path.join(BENCH_DIR, "setup_probe.py"), workload, str(seed), ROOT]
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=_child_env(), capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed:\n{proc.stderr}")
        found = {}
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s+agency\.(\w+)$", line)
            if m:
                found[m.group(2)] = int(m.group(1)) * 1e-6
        imports.append(found)
    return times, imports


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; a raised operation's ``inf`` sorts last."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": int(BLAS_THREADS)}


def end_to_end(samples, elapsed: float, setup: list[float]) -> dict:
    secs = [s.seconds for s in samples]
    return {
        "setup_s": (statistics.median(setup), "s"),
        "ops_per_s": (len(samples) / elapsed, "1/s"),
        "op_s.p50": (percentile(secs, 0.50), "s"),
        "op_s.p75": (percentile(secs, 0.75), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(workload: str, samples, tracer, imports: list[dict]) -> dict:
    """Per-layer metrics of a traced run, per traced unit of work: one
    operation on the library workloads, one corpus pass on ``cli_reports``."""
    import spans

    traced = [s for s in samples if s.traced]
    cli = workload == "cli_reports"
    units = len({s.group for s in traced}) if cli else len(traced)
    out = {}
    for name, (calls, self_s) in tracer.self_times().items():
        if name in spans.SPAN_NAMES:
            out[f"{name}.calls"] = (calls / units, "count")
            out[f"{name}.self_s"] = (self_s / units, "s")
    for name, value in tracer.counts.items():
        if name != "incentives.certify_non_implementable_at.grid_profiles":
            out[name] = (value / units, "count")
    grid = tracer.counts["incentives.certify_non_implementable_at.grid_profiles"]
    consistent = tracer.counts["incentives.certify_non_implementable_at.profiles"]
    out["incentives.certify_non_implementable_at.consistent_share"] = (consistent / grid if grid else 0.0, "share")
    lookups = tracer.ironed_hits + tracer.ironed_misses
    out["typedist.ironed.hit_ratio"] = (tracer.ironed_hits / lookups if lookups else 0.0, "share")
    for mod in MODULES:
        out[f"{mod}.import_s"] = (statistics.median(imp.get(mod, 0.0) for imp in imports), "s")

    finite = [s for s in samples if math.isfinite(s.seconds)]
    if cli:
        # untraced passes give the subcommand wall times and the baseline
        plain = [s for s in finite if not s.traced]
        n_plain = len({s.group for s in plain})
        for sub in SUBCOMMANDS:
            wall = sum(s.seconds for s in plain if s.label == sub) / n_plain
            out[f"cli.{sub.replace('-', '_')}.wall_s"] = (wall, "s")
        on = sum(s.seconds for s in finite if s.traced) / units
        off = sum(s.seconds for s in plain) / n_plain
        heavy = {k for k, s in enumerate(samples) if s.traced and s.label in ("check-ic", "reproduce")}
        heavy_self = sum(v[1] for n, v in tracer.self_times(ops=heavy).items()
                         if n.startswith(("incentives.", "examples.")))
        heavy_wall = sum(samples[k].seconds for k in heavy)
        out["cli.check_ic_reproduce.incentives_examples_share"] = (heavy_self / heavy_wall, "share")
    else:
        # both pairs of a stratum pair must have finished without raising
        by_group: dict[int, list] = {}
        for s in finite:
            by_group.setdefault(s.group, []).append(s)
        full = [g for g in by_group.values() if len(g) == 2]
        on = sum(s.seconds for g in full for s in g if s.traced)
        off = sum(s.seconds for g in full for s in g if not s.traced)
        for sub in SUBCOMMANDS:
            out[f"cli.{sub.replace('-', '_')}.wall_s"] = (0.0, "s")
        out["cli.check_ic_reproduce.incentives_examples_share"] = (0.0, "share")
    out["trace.overhead_ratio"] = (on / off if off else 0.0, "ratio")
    for check in CHECKS:
        hit = sum(1 for s in samples if any(f == check or f.startswith(check + ".") for f in s.failed))
        out[f"check.{check}.share"] = (hit / len(samples), "share")
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # set before numpy loads, here and in every set-up interpreter
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    os.environ.pop("AGENCY_GRID", None)  # the CLI's default scan density
    if not os.path.isfile(os.path.join(SRC, "agency", "__init__.py")):
        print(f"no agency sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [SRC, BENCH_DIR]

    setup, imports = measure_setup(args.workload, args.seed, importtime=bool(args.trace))
    import workloads

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer([m for m in sys.modules if m == "agency" or m.startswith("agency.")]
                              + ["ops", "corpus", "gen", "workloads"])
    scratch = tempfile.mkdtemp(prefix=".bench-tmp-", dir=ROOT)
    try:
        if args.workload == "cli_reports":
            samples, elapsed = workloads.run_cli(args.seed, args.seconds, scratch, tracer)
        else:
            samples, elapsed = workloads.run_library(args.workload, args.seed, args.seconds, tracer)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    info = machine()
    if tracer is None:
        metrics = end_to_end(samples, elapsed, setup)
    else:
        metrics = per_layer(args.workload, samples, tracer, imports)
        os.makedirs(os.path.join(ROOT, ".bench_trace"), exist_ok=True)
        tracer.write(os.path.join(ROOT, ".bench_trace", f"{args.workload}.npz"),
                     {"workload": args.workload, "seed": args.seed, "machine": info})

    failed = [s for s in samples if s.failed]
    print(f"machine {json.dumps(info, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(samples)} operations in {elapsed:.2f} s")
    print(f"ops_failed_share {len(failed) / len(samples):.4f}")
    reasons = collections.Counter(f for s in failed for f in s.failed)
    for name, count in sorted(reasons.items()):
        print(f"  failed check {name}: {count}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    result = {
        "correct": all(f in KNOWN_DEFECTS.get(args.workload, ()) for s in failed for f in s.failed),
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
