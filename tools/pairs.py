"""Alternate benchmark runs of a revision's src/ and the working tree's, pair by pair.

Run from the repository root (about 25 s per run, two runs per pair):

    python3 tools/pairs.py --parent HEAD --workload floquet_kernel --pairs 10

REV's src/ is unpacked into a temporary directory by `unpack_src` of
tools/compare_artifacts.py, and the working tree's src/ is linked beside it. Both sides run the working tree's perfbench/run.py, so only src/ differs.
Pair k runs `perfbench/run.py --trace 0 --seed k` once per side, for the
run length of BENCHMARK.json: the parent first in odd pairs and the change
first in even ones, so that a slow phase of the host falls on both sides.

Per end-to-end metric of BENCHMARK.json, it prints each side's median and
quartiles (those of perfbench/run.py), the parent's IQR and the number of
pairs in which the change is strictly better. "gain" reads yes when the change
is better in at least nine pairs of ten and its median is better than the
parent's by more than the parent's IQR. A pair whose run exits non-zero on
either side is left out of the summaries and listed.

Exit status 1 when a run exited non-zero or failed an operation; 0 otherwise.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RUN = os.path.join(ROOT, "perfbench", "run.py")
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
from run import _quartiles  # noqa: E402  (one IQR definition for every benchmark tool)
sys.path.insert(0, os.path.join(ROOT, "tools"))
from compare_artifacts import unpack_src  # noqa: E402


def summarize(parent: list, change: list, better: str) -> dict:
    """Median and quartiles per side, the parent's IQR, and the change's wins:
    the pairs (parent[k], change[k]) in which the change is strictly better."""
    out = {}
    for side, values in (("parent", parent), ("change", change)):
        q1, q3 = _quartiles(values)
        out[side] = {"median": statistics.median(values), "q1": q1, "q3": q3}
    sign = 1.0 if better == "lower" else -1.0
    gap = sign * (out["parent"]["median"] - out["change"]["median"])  # > 0 when better
    out["parent_iqr"] = out["parent"]["q3"] - out["parent"]["q1"]
    out["pairs"] = len(parent)
    out["wins"] = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    out["gain"] = out["wins"] >= math.ceil(0.9 * len(parent)) and gap > out["parent_iqr"]
    return out


def run_side(root: str, workload: str, seed: int, seconds: float) -> dict | None:
    """One perfbench run from `root`: its result line, or None when it exits non-zero."""
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "0"],
                          cwd=root, capture_output=True, text=True)
    if proc.returncode:
        print(f"  exit {proc.returncode}: {proc.stderr.strip()[-500:]}", flush=True)
        return None
    return json.loads(proc.stdout.splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    metrics = spec["end_to_end"]
    results = {"parent": [], "change": []}
    failed = False
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        roots = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        unpack_src(args.parent, roots["parent"])
        os.makedirs(roots["change"])
        os.symlink(os.path.join(ROOT, "src"), os.path.join(roots["change"], "src"))
        for k in range(1, args.pairs + 1):
            order = ("parent", "change") if k % 2 else ("change", "parent")
            got = {side: run_side(roots[side], args.workload, k, spec["run_seconds"])
                   for side in order}
            if None in got.values():
                print(f"pair {k}: left out", flush=True)
                failed = True
                continue
            for side in order:
                results[side].append(got[side])
                failed = failed or bool(got[side]["failed"])
            print(f"pair {k} ({order[0]} first): " + ", ".join(
                f"{m['name']} {got['parent']['metrics'][m['name']]['value']:.4g} -> "
                f"{got['change']['metrics'][m['name']]['value']:.4g}" for m in metrics), flush=True)
    if not results["parent"]:
        return 1
    print(f"{args.workload}, parent {args.parent}, {len(results['parent'])} pairs")
    for m in metrics:
        name = m["name"]
        values = {side: [r["metrics"][name]["value"] for r in runs]
                  for side, runs in results.items()}
        s = summarize(values["parent"], values["change"], m["better"])
        p, c = s["parent"], s["change"]
        print(f"  {name} ({m['unit']}, {m['better']} is better): "
              f"parent {p['median']:.4g} [{p['q1']:.4g}..{p['q3']:.4g}], "
              f"change {c['median']:.4g} [{c['q1']:.4g}..{c['q3']:.4g}], "
              f"parent IQR {s['parent_iqr']:.4g}, change better in {s['wins']}/{s['pairs']}, "
              f"gain {'yes' if s['gain'] else 'no'}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
