"""Check the nonlocal band scan's confirmation decisions against the full
companion pencil on the fine grid.

Run from the repository root (about 3 s per seed), with one BLAS thread as
the benchmark runs, so that the solves give the benchmark's bits:

    OPENBLAS_NUM_THREADS=1 python3 tools/nonlocal_decisions.py --seeds 1-20

For every energy of the bands_nonlocal workload at each seed (inputs from
perfbench/workloads.py), each coarse multiplier is decided twice:
- by the full companion pencil on the 2N grid, `bloch_multipliers_collocation`,
  under the plain two-grid rule (relative distance at most 10 unit_tol, no
  magnitude limit);
- by the shipped path, `propagating_multipliers`, which confirms against the
  trimmed pencil and never confirms a multiplier beyond eps^(-1/2).
It prints the counts per seed and in total, and one line per differing
decision.

Exit status 1 when any decision differs; 0 otherwise.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
sys.path.insert(0, os.path.join(ROOT, "src"))
import workloads  # noqa: E402  (the benchmark's own seeded inputs)
from gfloquet import PeriodicGrid, bloch_multipliers_collocation, propagating_multipliers  # noqa: E402
from gfloquet.builtins import CATALOG  # noqa: E402

UNIT_TOL = 1e-3  # the bands CLI default; the workload sets no unit_tol


def full_pencil_decisions(coarse, fine, unit_tol) -> list:
    """The two-grid rule without the magnitude limit."""
    return [np.min(np.abs(fine - mu)) / max(1.0, abs(mu)) <= 10 * unit_tol for mu in coarse]


def kept(coarse, confirmed) -> list:
    """Which coarse multipliers `confirmed`, an ordered subsequence of them, kept."""
    out, i = [], 0
    for mu in coarse:
        hit = i < len(confirmed) and confirmed[i] == mu
        out.append(bool(hit))
        i += hit
    if i != len(confirmed):
        raise RuntimeError("confirmed multipliers are not a subsequence of the coarse ones")
    return out


def seed_inputs(seed: int) -> tuple:
    """(potential, energies, nodes per cell) of the bands_nonlocal job at `seed`."""
    with tempfile.TemporaryDirectory() as work:
        (job,) = workloads.generate("bands_nonlocal", seed, work)
        with open(job["config"]) as fh:
            cfg = json.load(fh)
    spec, grid = cfg["potential"], cfg["energies"]
    pot, _ = CATALOG[spec["builtin"]](**spec["params"])
    energies = np.linspace(grid["min"], grid["max"], grid["count"])  # as cmd_bands reads it
    return pot, energies, cfg["grid"]["samples_per_period"]


def check_seed(seed: int) -> tuple:
    """(energies, coarse multipliers, full-pencil confirmed, shipped confirmed,
    differing decisions as (energy, mu, full decision))."""
    pot, energies, n = seed_inputs(seed)
    grid = PeriodicGrid(pot.lattice_constant, n, 0.0)
    total = full_count = shipped_count = 0
    diffs = []
    for energy in energies:
        coarse = bloch_multipliers_collocation(pot, energy, n)
        full = full_pencil_decisions(coarse, bloch_multipliers_collocation(pot, energy, 2 * n),
                                     UNIT_TOL)
        shipped = kept(coarse, propagating_multipliers(pot, energy, grid, UNIT_TOL).all_multipliers)
        total += len(coarse)
        full_count += sum(full)
        shipped_count += sum(shipped)
        diffs += [(float(energy), mu, f) for mu, f, s in zip(coarse, full, shipped) if f != s]
    return len(energies), total, full_count, shipped_count, diffs


def parse_seeds(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare the nonlocal confirmation decisions with the full fine pencil's.")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-20"),
                        help="seed or inclusive range A-B (default 1-20)")
    args = parser.parse_args(argv)
    sums = [0, 0, 0, 0, 0]
    for seed in args.seeds:
        n_energies, total, full, shipped, diffs = check_seed(seed)
        print(f"seed {seed}: {n_energies} energies, {total} coarse multipliers, "
              f"confirmed {full} full / {shipped} shipped, {len(diffs)} differ")
        for energy, mu, decision in diffs:
            print(f"  E = {energy!r}: |mu| = {abs(mu):.4g}, full pencil "
                  f"{'confirms' if decision else 'rejects'}, shipped path does not")
        for i, value in enumerate((n_energies, total, full, shipped, len(diffs))):
            sums[i] += value
    print(f"total: {sums[0]} energies, {sums[1]} coarse multipliers, confirmed "
          f"{sums[2]} full / {sums[3]} shipped, {sums[4]} differing decisions")
    return 1 if sums[4] else 0


if __name__ == "__main__":
    sys.exit(main())
