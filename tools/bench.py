"""Write BENCH_<label>.json: the benchmark's workloads end to end over fixed seeds,
one traced run per workload, the tier-1 wall time and the src/ line count.

Run from the repository root (about 10 minutes):

    python3 tools/bench.py --label 6

The workloads and the run length come from BENCHMARK.json. Every (seed,
workload) pair runs `perfbench/run.py --trace 0` once. The loop is seed-major,
so a slow phase of the host falls on all workloads rather than on one. Each
workload then runs once with `--trace 1` at the first seed for its per-layer
metrics. The file holds the per-seed end-to-end metrics with their median,
quartiles and IQR, the per-layer metrics, the tier-1 result and the provenance
of the runs (commit, CPU, library versions, BLAS threads). A run that exits
non-zero is listed under "failed_runs" with its exit code and the tail of its
stderr; the summaries cover the seeds that finished, and the script exits 1
once the file is written.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench")
sys.path.insert(0, PERFBENCH)
from run import _quartiles  # noqa: E402  (one IQR definition for BENCH files and perfbench)

SEEDS = (1, 2, 3)
RUN_FIELDS = ("workload", "seed", "trace", "repetitions")  # per run, not per file
STDERR_TAIL = 2000  # characters of a failed run's stderr kept in the file


def perfbench(workload: str, seed: int, seconds: float, trace: int) -> tuple:
    """One perfbench run: (provenance, result) parsed from its stdout, or
    (None, failure record) when it exits non-zero."""
    cmd = [sys.executable, os.path.join(PERFBENCH, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True)
    if proc.returncode:
        return None, {"workload": workload, "seed": seed, "trace": trace,
                      "exit_code": proc.returncode, "stderr_tail": proc.stderr[-STDERR_TAIL:]}
    out = proc.stdout.splitlines()
    prov = next(json.loads(line.split(" ", 1)[1]) for line in out
                if line.startswith("provenance "))
    return prov, json.loads(out[-1])


def summary(values: list) -> dict:
    """Median, quartiles and IQR (the quartiles of perfbench/run.py)."""
    q1, q3 = _quartiles(values)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "iqr": q3 - q1}


def tier1() -> dict:
    """Wall time and pass/fail counts of the repository's own test suite."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in ("src", os.environ.get("PYTHONPATH")) if p))
    t0 = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          "--continue-on-collection-errors"],
                         capture_output=True, text=True, env=env).stdout
    wall = time.perf_counter() - t0
    counts = {key: int(num) for num, key in re.findall(r"(\d+) (passed|failed|error)", out)}
    return {"wall_s": wall, "passed": counts.get("passed", 0),
            "failed": counts.get("failed", 0) + counts.get("error", 0)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="the <label> of BENCH_<label>.json")
    args = parser.parse_args(argv)
    if not os.path.isfile("BENCHMARK.json"):
        print("error: run from the repository root (BENCHMARK.json not found)", file=sys.stderr)
        return 2
    with open("BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"]

    failed, prov = [], {}

    def run(workload: str, seed: int, trace: int):
        """The run's result, or None once its failure is recorded."""
        nonlocal prov
        got, result = perfbench(workload, seed, seconds, trace)
        if got is None:
            failed.append(result)
            print(f"{workload} seed {seed} trace {trace}: exit {result['exit_code']}", flush=True)
            return None
        prov = got
        return result

    runs = {w: {} for w in names}
    for seed in SEEDS:
        for workload in names:
            result = run(workload, seed, 0)
            if result is not None:
                runs[workload][seed] = result
                print(f"{workload} seed {seed}: " + ", ".join(
                    f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
    end_to_end = {}
    for workload, by_seed in runs.items():
        if not by_seed:
            continue
        units = {k: m["unit"] for k, m in next(iter(by_seed.values()))["metrics"].items()}
        end_to_end[workload] = {
            "per_seed": {str(s): {k: m["value"] for k, m in r["metrics"].items()}
                         for s, r in by_seed.items()},
            "failed_ops": {str(s): r["failed"] for s, r in by_seed.items()},
            "summary": {k: dict(summary([r["metrics"][k]["value"] for r in by_seed.values()]),
                                unit=unit) for k, unit in units.items()},
        }
    per_layer = {}
    for workload in names:
        result = run(workload, SEEDS[0], 1)
        if result is not None:
            per_layer[workload] = result["metrics"]
            print(f"{workload} traced at seed {SEEDS[0]}", flush=True)

    doc = {
        "label": args.label,
        "provenance": dict({k: v for k, v in prov.items() if k not in RUN_FIELDS},
                           seeds=list(SEEDS), traced_seed=SEEDS[0],
                           date=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())),
        "src_lines": prov.get("src_lines"),
        "end_to_end": end_to_end,
        "per_layer": per_layer,
        "failed_runs": failed,
        "tier1": tier1(),
    }
    path = f"BENCH_{args.label}.json"
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}" + (f"; {len(failed)} run(s) failed" if failed else ""))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
