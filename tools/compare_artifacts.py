"""Compare the CLI artifacts of the working tree's src/ with those of a revision.

Run from the repository root (about a minute):

    python3 tools/compare_artifacts.py --parent HEAD~1

REV's src/ is unpacked with `git archive` into a temporary directory. Each side
then runs, in its own interpreter with one BLAS thread, the CLI jobs of every
benchmark workload at seeds 1 and 7 (inputs from perfbench/workloads.py) and
the builtin and table-form analyze, stability and bands configs below. Every
artifact is printed as IDENTICAL when its bytes agree, or else with the max
absolute and max relative difference over its numeric fields, per top-level
JSON key or CSV column.
spectrum.json's multipliers and exponents are grouped apart by their
converged flag, "(converged)" and "(unconverged)", so that the roundoff-level
spurious multipliers do not hide how far the converged ones moved;
stability.json lists retained multipliers only, all of them converged. In
these groups an [re, im] pair is one complex number, its relative difference
taken against its modulus. In spectrum.json each of them is compared with its
nearest partner on the other side, not with the one at its position, so two
near-equal multipliers that trade places read as the distance each moved;
one NON-NUMERIC line per group then counts the entries whose partner at
their own position is not a nearest one (a swap, or a changed multiplicity).
A list whose length differs prints as one NON-NUMERIC line with both
lengths, not one line per entry only one side has.
stability.json is compared without config_fingerprint: its config names the
cycle file by path, and each side writes its inputs in its own directory.

Exit status 1 when an artifact exists on one side only, a job's exit code
differs, or a non-numeric field differs; 0 otherwise.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import workloads  # noqa: E402  (the benchmark's own seeded inputs)

SEEDS = (1, 7)
BUILTIN_CONFIGS = {
    "scalar_cosine": ("analyze", {"system": {"builtin": "scalar_cosine"},
                                  "grid": {"samples_per_period": 128}, "modes": 2}),
    "delay_pi_over_2": ("analyze", {"system": {"builtin": "delay_pi_over_2"},
                                    "grid": {"samples_per_period": 96}, "modes": 4}),
    "exp_kernel": ("analyze", {"system": {"builtin": "exp_kernel"},
                               "grid": {"samples_per_period": 64}, "modes": 4,
                               "quadrature": "simpson"}),
    # table form with a tap and a kernel together; its tables vary over the
    # period, so a change in the cubic weights shows in the artifacts
    "table_tap_kernel": ("analyze", {
        "system": {"dimension": 2, "period": 1.0, "memory_depth": 0.5,
                   "coefficient": [[[0.0, 1.0], [a, -0.1]] for a in
                                   (-5.0, -4.7, -4.0, -3.3, -3.0, -3.3, -4.0, -4.7)],
                   "delay_taps": [{"delay": 0.25, "coefficient": [
                       [[-0.3, 0.0], [0.1, -0.2]], [[-0.1, 0.0], [0.0, -0.4]],
                       [[-0.2, 0.1], [0.0, -0.3]], [[-0.4, 0.0], [-0.1, -0.1]]]}],
                   "kernel": {"type": "exponential", "theta": 0.1,
                              "amplitude": [[-0.5, 0.0], [0.3, -0.5]]}},
        "grid": {"samples_per_period": 64}, "modes": 2, "quadrature": "simpson"}),
    # table form with off-lattice delays: 0.3 needs non-trivial cubic tap
    # weights, and 0.03 < 3h reads the rows computed so far through the
    # fewer-than-4-node fallback in the first steps
    "table_offlattice_taps": ("analyze", {
        "system": {"dimension": 2, "period": 1.0, "memory_depth": 0.5,
                   "coefficient": [[[0.0, 1.0], [a, -0.2]] for a in
                                   (-6.0, -5.5, -4.5, -4.0, -4.5, -5.5)],
                   "delay_taps": [{"delay": 0.3, "coefficient": [
                       [[-0.2, 0.1], [0.0, -0.3]], [[-0.3, 0.0], [0.1, -0.2]],
                       [[-0.1, 0.0], [0.2, -0.4]], [[-0.2, -0.1], [0.0, -0.1]]]},
                       {"delay": 0.03, "coefficient": [[[-0.4, 0.0], [0.0, -0.2]],
                                                       [[-0.3, 0.1], [0.0, -0.3]]] * 2}]},
        "grid": {"samples_per_period": 64}, "modes": 2}),
    # n = 2 under the trapezoid rule with a 0.23 tap and a kernel window 0.37
    # deep, both off the node lattice: verify.json's operator residual takes
    # the tap and the window's extra endpoint node at every period node
    "table_offlattice_tap_kernel": ("analyze", {
        "system": {"dimension": 2, "period": 1.0, "memory_depth": 0.37,
                   "coefficient": [[[0.0, 1.0], [a, -0.1]] for a in
                                   (-5.0, -4.6, -3.8, -3.4, -3.8, -4.6)],
                   "delay_taps": [{"delay": 0.23, "coefficient": [
                       [[-0.3, 0.1], [0.0, -0.2]], [[-0.2, 0.0], [0.1, -0.3]],
                       [[-0.1, 0.0], [0.2, -0.4]], [[-0.2, -0.1], [0.0, -0.1]]]}],
                   "kernel": {"type": "exponential", "theta": 0.1,
                              "amplitude": [[-0.4, 0.1], [0.2, -0.5]]}},
        "grid": {"samples_per_period": 64}, "modes": 2}),
    # N = 40 is not a multiple of propagate_history's 16-step tap blocks, so
    # verify resumes the coarse build off a block boundary
    "exp_kernel_n40": ("analyze", {"system": {"builtin": "exp_kernel"},
                                   "grid": {"samples_per_period": 40}, "modes": 2,
                                   "quadrature": "simpson"}),
    # kernel windows 1, 2 and 3 steps deep keep fewer than 4 rows in the first
    # steps (the full-degree stencils); 2.5 steps adds an off-lattice endpoint
    **{f"table_kernel_{name}": ("analyze", {
        "system": {"dimension": 1, "period": 1.0, "memory_depth": steps / 32,
                   "coefficient": [-0.6, -0.3, 0.1, -0.2, -0.5, -0.8],
                   "kernel": {"type": "exponential", "theta": 0.1, "amplitude": -2.0}},
        "grid": {"samples_per_period": 32}, "modes": 2, "tolerance": 1e-2})
       for name, steps in (("1_step", 1), ("2_steps", 2), ("3_steps", 3),
                           ("offlattice", 2.5))},
    # the 128-node mu = 1 van der Pol cycle, which write_jobs writes, is the
    # legitimate cycle nearest the residual bound stability refuses above
    "van_der_pol_128": ("stability", {"system": {"builtin": "van_der_pol"},
                                      "grid": {"samples_per_period": 128}, "modes": 4,
                                      "autonomous": True}),
    "kronig_penney": ("bands", {"potential": {"builtin": "kronig_penney"},
                                "energies": {"min": 0.5, "max": 40.0, "count": 24}}),
    # the two tolerances no other config sets: a key a command reads but
    # refuses shows as an exit-code difference
    "van_der_pol_128_tolerance": ("stability", {"system": {"builtin": "van_der_pol"},
                                                "grid": {"samples_per_period": 128},
                                                "modes": 4, "tolerance": 1e-3}),
    "kronig_penney_unit_tol": ("bands", {"potential": {"builtin": "kronig_penney"},
                                         "energies": {"min": 0.5, "max": 40.0, "count": 24},
                                         "unit_tol": 1e-2}),
    "separable_nonlocal": ("bands", {"potential": {"builtin": "separable_nonlocal"},
                                     "energies": {"min": -13.0, "max": 2.0, "count": 24}}),
    # a kernel window 0.3 wide, against the default 0.9: the collocation
    # kernel call covers a second node-offset array width
    "separable_nonlocal_range_0_3": ("bands", {
        "potential": {"builtin": "separable_nonlocal", "params": {"range_fraction": 0.3}},
        "energies": {"min": -13.0, "max": 2.0, "count": 24}}),
}
RUNNER = """
import json, sys
from gfloquet.cli import main
with open(sys.argv[1]) as fh:
    jobs = json.load(fh)
codes = {name: main(argv) for name, argv in jobs.items()}
with open(sys.argv[2], "w") as fh:
    json.dump(codes, fh)
"""


def write_jobs(work: str) -> dict:
    """Write every job's inputs under `work`; return {name: (argv, out dir)}."""
    jobs = {}
    for workload in workloads.WORKLOADS:
        for seed in SEEDS:
            for job in workloads.generate(workload, seed, os.path.join(work, f"{workload}-{seed}")):
                jobs[f"{workload}-{seed}/{job['name']}"] = (workloads.cli_argv(job), job["out"])
    os.makedirs(os.path.join(work, "builtin"))
    times, samples, _ = workloads.van_der_pol_cycle(1.0, nodes=128)
    cycle = os.path.join(work, "builtin", "vdp_cycle_128.csv")
    np.savetxt(cycle, np.column_stack((times, samples)), fmt="%.17g", delimiter=",")
    for name, (command, config) in BUILTIN_CONFIGS.items():
        if command == "stability":
            config = dict(config, cycle_file=cycle)
        path = os.path.join(work, "builtin", f"{name}.json")
        with open(path, "w") as fh:
            json.dump(config, fh, indent=1, sort_keys=True)
        out = os.path.join(work, "builtin", "out", name)
        jobs[f"builtin/{name}"] = ([command, "--config", path, "--out", out], out)
    return jobs


def run_side(src: str, work: str) -> tuple:
    """Run every job against the gfloquet package under `src`, in a fresh
    interpreter with one BLAS thread; return (jobs, exit codes by job)."""
    jobs = write_jobs(work)
    spec, codes = os.path.join(work, "jobs.json"), os.path.join(work, "codes.json")
    with open(spec, "w") as fh:
        json.dump({name: argv for name, (argv, _) in jobs.items()}, fh)
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    subprocess.run([sys.executable, "-c", RUNNER, spec, codes], cwd=work, env=env, check=True)
    with open(codes) as fh:
        return jobs, json.load(fh)


def fields(name: str, data: bytes) -> dict:
    """{(group, path): value} for every leaf of a JSON or CSV artifact."""
    out = {}
    if name.endswith(".csv"):
        rows = list(csv.reader(io.StringIO(data.decode())))
        for i, row in enumerate(rows):
            for j, cell in enumerate(row):
                group = rows[0][j] if i and j < len(rows[0]) else "header"
                out[(group, f"row {i} col {j}")] = _number(cell)
        return out

    def walk(value, group, path):
        if isinstance(value, dict):
            for key, item in value.items():
                walk(item, group or key, f"{path}.{key}")
        elif (isinstance(value, list) and str(group).endswith("converged)")
              and len(value) == 2 and all(_is_number(v) for v in value)):
            out[(group, path)] = complex(*value)
        elif isinstance(value, list):
            out[(group or "", f"{path}[]")] = len(value)
            for k, item in enumerate(value):
                walk(item, group, f"{path}[{k}]")
        else:
            out[(group or "", path)] = value

    doc = json.loads(data)
    if name == "stability.json":
        doc.pop("config_fingerprint", None)
        for key in ("trivial_multiplier", "exponent_classes"):
            walk(doc.pop(key, None), f"{key} (converged)", f".{key}")
    if name == "spectrum.json":
        for key in ("multipliers", "exponents"):
            out[(key, f".{key}[]")] = len(doc.get(key, []))
            for k, item in enumerate(doc.pop(key, [])):
                state = "converged" if doc["converged"][k] else "unconverged"
                walk(item, f"{key} ({state})", f".{key}[{k}]")
    walk(doc, None, "")
    return out


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return cell


def _is_number(value) -> bool:
    return isinstance(value, (int, float, complex)) and not isinstance(value, bool)


_PAIRED = ("multipliers (", "exponents (")  # spectrum.json's groups matched by nearest partner


def _nearest(xs: list, ys: list) -> tuple:
    """(max abs, max rel) distance from each value on either side to its
    nearest partner on the other, relative to the larger modulus of the two;
    and the positions, when both sides are as long, whose own partner is
    farther than the nearest one, so that swaps and changed multiplicities
    stay visible."""
    x, y = np.asarray(xs, dtype=complex), np.asarray(ys, dtype=complex)
    if not (x.size and y.size):
        return 0.0, 0.0, []
    dist = np.abs(x[:, None] - y[None, :])
    p = np.concatenate((x, x[dist.argmin(axis=0)]))
    q = np.concatenate((y[dist.argmin(axis=1)], y))
    d = np.abs(p - q)
    rel = np.divide(d, np.maximum(np.abs(p), np.abs(q)), out=np.zeros_like(d), where=d > 0)
    moved = []
    if x.size == y.size:
        own = np.diagonal(dist)
        moved = np.flatnonzero((own > dist.min(axis=1)) | (own > dist.min(axis=0))).tolist()
    return float(d.max()), float(rel.max()), moved


def compare(name: str, old: bytes, new: bytes) -> tuple:
    """(identical, non-numeric mismatches, {group: (max abs, max rel)})."""
    a, b = fields(name, old), fields(name, new)
    if old == new or (name == "stability.json" and a == b):
        return True, [], {}
    mismatches, resized, diffs = [], (), {}
    paired = lambda key: name == "spectrum.json" and key[0].startswith(_PAIRED)
    for key in sorted(set(a) & set(b)):
        x, y = a[key], b[key]
        if key[1].endswith("[]"):  # a list's length
            if x != y:
                mismatches.append((key[0], f"{key[1][:-2]} length {x} (parent) vs {y} (change)"))
                resized += (key[1][:-1],)
            continue
        if not (_is_number(x) and _is_number(y)):
            if x != y:
                mismatches.append(key)
            continue
        if not paired(key):
            d = abs(x - y)
            rel = d / max(abs(x), abs(y)) if d else 0.0
            worst = diffs.get(key[0], (0.0, 0.0))
            diffs[key[0]] = (max(worst[0], d), max(worst[1], rel))
    for group in sorted({key[0] for key in set(a) | set(b) if paired(key)}):
        d, rel, moved = _nearest(*([v for key, v in side.items() if key[0] == group and
                                     not key[1].endswith("[]") and _is_number(v)]
                                    for side in (a, b)))
        diffs[group] = (d, rel)
        if moved:
            mismatches.append((group, f"own partner not the nearest at {len(moved)} of the "
                                      f"group's entries, first [{moved[0]}]"))
    # an entry only one side has is named by its list's length line, if it has one
    mismatches += [key for key in sorted(set(a) ^ set(b)) if not key[1].startswith(resized)]
    return False, mismatches, diffs


def _artifacts(out: str) -> dict:
    """{file name: bytes} of one job's output directory (empty if it was not made)."""
    found = {}
    for name in sorted(os.listdir(out)) if os.path.isdir(out) else ():
        with open(os.path.join(out, name), "rb") as fh:
            found[name] = fh.read()
    return found


def unpack_src(rev: str, dest: str) -> None:
    """Write revision rev's src/ under dest with `git archive`."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev, "src"],
                             cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="compare-artifacts-") as tmp:
        unpack_src(args.parent, os.path.join(tmp, "parent"))
        sides = {}
        for side, src in (("parent", os.path.join(tmp, "parent", "src")),
                          ("change", os.path.join(ROOT, "src"))):
            work = os.path.join(tmp, side, "work")
            os.makedirs(work)
            sides[side] = run_side(src, work)
        (jobs_p, codes_p), (jobs_c, codes_c) = sides["parent"], sides["change"]
        failed = False
        for job in sorted(set(jobs_p) | set(jobs_c)):
            if codes_p.get(job) != codes_c.get(job):
                print(f"{job}: exit code {codes_p.get(job)} (parent) vs {codes_c.get(job)} (change)")
                failed = True
            old = _artifacts(jobs_p[job][1]) if job in jobs_p else {}
            new = _artifacts(jobs_c[job][1]) if job in jobs_c else {}
            for name in sorted(set(old) | set(new)):
                label = f"{job}/{name}"
                if name not in old or name not in new:
                    print(f"{label}: only on the {'parent' if name in old else 'change'} side")
                    failed = True
                    continue
                identical, mismatches, diffs = compare(name, old[name], new[name])
                if identical:
                    print(f"{label}: IDENTICAL")
                    continue
                print(f"{label}: max abs {max(d for d, _ in diffs.values()):.3g}, "
                      f"max rel {max(r for _, r in diffs.values()):.3g}" if diffs else
                      f"{label}: differs")
                for group, (d, r) in sorted(diffs.items()):
                    print(f"    {group}: " + ("IDENTICAL" if d == 0 else
                                              f"max abs {d:.3g}, max rel {r:.3g}"))
                for group, path in mismatches:
                    print(f"    NON-NUMERIC {group} {path}")
                failed = failed or bool(mismatches)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
