"""One fresh process per benchmark run: import the CLI, warm up, then repeat
the workload's jobs for a fixed time.

Usage: python3 perfbench/worker.py SPEC.json RESULT.json

SPEC holds the jobs, the seconds to measure and whether to trace. Untraced
repetitions come first; with tracing, half the time goes to untraced and
half to traced repetitions so the tracing overhead is measured in the same
process. RESULT receives the per-repetition wall times, exit codes, artifact
digests and (traced) per-layer metrics, plus the process's peak RSS.
"""
from __future__ import annotations

import gc
import hashlib
import json
import os
import resource
import sys
import time
import traceback

import gfloquet.cli as cli
import tracer as tracing
from workloads import cli_argv

MIN_UNTRACED_REPS = 3


def _digests(out_dir: str) -> dict:
    found = {}
    for name in sorted(os.listdir(out_dir)) if os.path.isdir(out_dir) else ():
        with open(os.path.join(out_dir, name), "rb") as fh:
            blob = fh.read()
        found[name] = [hashlib.sha256(blob).hexdigest(), len(blob)]
    return found


def _call(main, argv) -> int:
    try:
        return int(main(argv))
    except Exception:  # a crashing job is a failed operation, not a crashed run
        traceback.print_exc()
        return -1


def _run_jobs(jobs, tracer=None) -> dict:
    codes = {}
    for job in jobs:
        if tracer is not None:
            tracer.job = job["name"]
        codes[job["name"]] = _call(cli.main, cli_argv(job))
    return codes


def _repetition(jobs, trace: bool) -> dict:
    gc.collect()
    if trace:
        tracer = tracing.Tracer()
        with tracing.instrument(tracer):
            codes = tracer.wrap("bench.repetition", _run_jobs)(jobs, tracer)
        root = tracer.spans[0]
        wall = root[2] - root[1]
    else:
        start = time.perf_counter()
        codes = _run_jobs(jobs)
        wall = time.perf_counter() - start
    rep = {"wall_s": wall, "traced": trace, "codes": codes,
           "digests": {job["name"]: _digests(job["out"]) for job in jobs}}
    if trace:
        layers = tracing.layer_metrics(tracer.spans)
        layers["cli.bytes_written"] = sum(size for files in rep["digests"].values()
                                          for _, size in files.values())
        rep["layers"] = layers
        rep["spans"] = tracer.spans
    return rep


def _phase(jobs, trace, seconds, min_reps):
    reps = []
    start = time.perf_counter()
    while len(reps) < min_reps or time.perf_counter() - start < seconds:
        reps.append(_repetition(jobs, trace))
    return reps


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path) as fh:
        spec = json.load(fh)
    jobs = spec["jobs"]
    _run_jobs(jobs)  # untimed warm-up: lazy imports, first-call and allocator costs
    seconds = float(spec["seconds"])
    if spec["trace"]:
        reps = (_phase(jobs, False, seconds / 2, 2)
                + _phase(jobs, True, seconds / 2, 1))
    else:
        reps = _phase(jobs, False, seconds, MIN_UNTRACED_REPS)
    result = {"reps": reps,
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
