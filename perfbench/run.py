"""gfloquet benchmark: seeded CLI workloads, oracle-checked, timed end to end
and traced module by module.

Run from the repository root:

    python3 perfbench/run.py --workload floquet_kernel --seed 1 --seconds 20 --trace 0

Workloads (see workloads.py):
  floquet_kernel  `analyze` on an exp_kernel system; propagate_history dominates.
  bands_nonlocal  `bands` on separable_nonlocal; collocation and the pencil QZ dominate.
  mixed_small     short analyze/stability/bands jobs on the light paths.

The run generates the workload's inputs from the seed, measures the import
time of gfloquet.cli in fresh interpreters, then starts one fresh worker
process (worker.py, one BLAS thread) that runs the jobs once untimed and then
repeats them for --seconds. Every job's artifacts are hashed per repetition
and checked against exact oracles (oracles.py); a crashed job, an artifact
that differs between repetitions or a value outside its gate is a failed
operation (one analyze or stability job, or one band energy).

With --trace 0 the result carries the end-to-end metrics: wall_s (median
wall time of one repetition), setup_s (median import time), peak_rss_mb
(peak RSS of the worker), mult_digits and k_digits (-log10 of the worst
multiplier error and the worst quasimomentum or quasi-frequency error) and
pass_ratio (1 - fail_ratio). With --trace 1, half of the time runs traced
(tracer.py) and the result carries the per-module metrics plus the tracing
overhead; the spans are written to the run's trace.json. The last stdout line
is one JSON object; the lines before it are a human-readable report that
starts with the provenance block. Inputs and outputs live under
.perfbench-work/ in the current directory.
"""
from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

import numpy
import scipy

import oracles
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREADS = "1"
SETUP_SAMPLES = 3  # before and again after the worker, so the median spans the run
WORKER_TIMEOUT_S = 150
ERR_FLOOR = 1e-16  # digits of an exact match read 16
IMPORT_PROBE = ("import time; t = time.perf_counter(); import gfloquet.cli; "
                "print(repr(time.perf_counter() - t))")


def _env(root: str) -> dict:
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def _setup_seconds(env: dict) -> list:
    """Import time of gfloquet.cli, each in a fresh interpreter."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=env, check=True,
                             capture_output=True, text=True, timeout=60)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


def _commit(root: str) -> str:
    if not os.path.isdir(os.path.join(root, ".git")):
        return "unknown"
    out = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"], capture_output=True,
                         text=True, timeout=30)
    return out.stdout.strip() or "unknown"


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _src_lines(root: str) -> int:
    total = 0
    for path in glob.glob(os.path.join(root, "src", "**", "*.py"), recursive=True):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def provenance(root: str, args, reps: int) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"commit": _commit(root), "cpu": _cpu_model(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": int(BLAS_THREADS), "workload": args.workload,
            "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "repetitions": reps, "src_lines": _src_lines(root)}


def _failed_ops(jobs, reps, oracle_failed) -> int:
    """Per repetition, a job whose exit code is non-zero or whose artifacts
    differ from the first repetition's fails all its operations; otherwise its
    oracle failures count (identical artifacts give identical checks)."""
    first = reps[0]
    failed = 0
    for rep in reps:
        for job in jobs:
            name = job["name"]
            broken = rep["codes"][name] != 0 or rep["digests"][name] != first["digests"][name]
            failed += job["ops"] if broken else oracle_failed[name]
    return failed


def _digits(err) -> float:
    """-log10 of an error: 16 for an exact match, 0 for an error of 1 or more or
    for a missing one (a job that left no artifacts)."""
    if not err < 1.0:
        return 0.0
    return -math.log10(max(err, ERR_FLOOR))


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "gfloquet", "cli.py")):
        print("error: run from the repository root (src/gfloquet/cli.py not found)",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".perfbench-work", f"{args.workload}-s{args.seed}-t{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    jobs = workloads.generate(args.workload, args.seed, work)
    env = _env(root)
    setup = [] if args.trace else _setup_seconds(env)

    spec_path = os.path.join(work, "spec.json")
    result_path = os.path.join(work, "worker.json")
    with open(spec_path, "w") as fh:
        json.dump({"jobs": jobs, "seconds": args.seconds, "trace": bool(args.trace)}, fh)
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
                   env=env, check=True, timeout=WORKER_TIMEOUT_S, cwd=root)
    elapsed = time.perf_counter() - t0
    if not args.trace:
        setup += _setup_seconds(env)
    with open(result_path) as fh:
        result = json.load(fh)
    reps = result["reps"]

    checks = {job["name"]: oracles.check(job) for job in jobs}
    oracle_failed = {name: c[2] for name, c in checks.items()}
    mult_errs = [c[0] for c in checks.values() if c[0] is not None]
    k_errs = [c[1] for c in checks.values() if c[1] is not None]
    mult_err = max(mult_errs) if mult_errs else math.inf
    k_err = max(k_errs) if k_errs else math.inf
    attempted = len(reps) * sum(job["ops"] for job in jobs)
    failed = _failed_ops(jobs, reps, oracle_failed)

    untraced = [r["wall_s"] for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    prov = provenance(root, args, len(reps))
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs, {attempted} operations "
          f"over {len(reps)} repetitions, worker {elapsed:.1f} s")
    for job in jobs:
        files = reps[0]["digests"][job["name"]]
        print(f"  {job['name']}: exit {reps[0]['codes'][job['name']]}, "
              + ", ".join(f"{f} sha256:{d[0]}" for f, d in sorted(files.items())))

    if args.trace:
        layers = {key: statistics.median(r["layers"][key] for r in traced)
                  for key in traced[0]["layers"]}
        traced_wall = statistics.median(r["wall_s"] for r in traced)
        layers["trace.wall_s"] = traced_wall
        layers["trace.overhead_s"] = traced_wall - statistics.median(untraced)
        metrics = {key: {"value": value, "unit": _layer_unit(key)}
                   for key, value in layers.items()}
        for key, m in metrics.items():
            print(f"  {key:40s} {m['value']:.6g} {m['unit']}")
        with open(os.path.join(work, "trace.json"), "w") as fh:
            json.dump({"provenance": prov, "spans": [r["spans"] for r in traced]}, fh)
    else:
        q1, q3 = _quartiles(untraced)
        metrics = {
            "wall_s": {"value": statistics.median(untraced), "unit": "s"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MB"},
            "mult_digits": {"value": _digits(mult_err), "unit": "digits"},
            "k_digits": {"value": _digits(k_err), "unit": "digits"},
            "pass_ratio": {"value": 1.0 - failed / attempted, "unit": "ratio"},
        }
        print(f"  wall_s       {metrics['wall_s']['value']:.4f} s "
              f"(median of {len(untraced)}, quartiles {q1:.4f}..{q3:.4f})")
        print(f"  setup_s      {metrics['setup_s']['value']:.4f} s "
              f"(median of {len(setup)} fresh imports)")
        print(f"  peak_rss_mb  {result['peak_rss_mb']:.1f} MB")
        print(f"  mult_err     {mult_err:.3e} |mu| units "
              f"(mult_digits {metrics['mult_digits']['value']:.3f})")
        print(f"  k_err        {k_err:.3e} 1/period or 1/cell "
              f"(k_digits {metrics['k_digits']['value']:.3f})")
        print(f"  fail_ratio   {failed / attempted:.4g} ratio ({failed}/{attempted} operations)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def _layer_unit(key: str) -> str:
    if key.endswith(("_s", ".s")):
        return "s"
    if key.endswith("_ratio"):
        return "ratio"
    if key.endswith("bytes_written"):
        return "bytes"
    if key.endswith("_size"):
        return "rows"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
