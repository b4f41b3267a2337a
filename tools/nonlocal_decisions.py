"""Check the nonlocal confirmation decisions against the full companion
pencil on the fine grid, the oracle of tests/bloch_oracles.py, and the band
scan's propagating modes against the two-grid rule's.

Run from the repository root (about 3 s per seed), with one BLAS thread as
the benchmark runs, so that the solves give the benchmark's bits:

    OPENBLAS_NUM_THREADS=1 python3 tools/nonlocal_decisions.py --seeds 1-20

For every energy of the bands_nonlocal workload at each seed (inputs from
perfbench/workloads.py), each coarse multiplier (the shipped trimmed pencil's
on the N grid, `bloch_multipliers_collocation`) is decided twice:
- by the full companion pencil on the 2N grid, `companion_multipliers`, under
  the plain two-grid rule (relative distance at most 10 unit_tol) restricted
  to eps^(1/2) <= |mu| <= eps^(-1/2), the window of multipliers that are not
  rounding;
- by the shipped path, `propagating_multipliers`, which confirms against the
  trimmed pencil on the 2N grid within the same window.
Then `band_scan` runs over the seed's energies, as `gfloquet bands` does. It
confirms each near-unit multiplier by a sign change of the fine grid's
Hermitian H(k), and solves the 2N pencil only where that test cannot settle
an energy (a fallback energy). Each record's p and k values must equal those
of `propagating_multipliers`, which always solves the 2N pencil.
It prints the counts per seed and in total, and one line per differing
decision or record.

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
sys.path.insert(0, os.path.join(ROOT, "tests"))
sys.path.insert(0, os.path.join(ROOT, "src"))
import workloads  # noqa: E402  (the benchmark's own seeded inputs)
from bloch_oracles import companion_multipliers  # noqa: E402
from gfloquet import (PeriodicGrid, band_scan, bloch_multipliers_collocation,  # noqa: E402
                      multiplier_phases_to_k, propagating_multipliers)
from gfloquet.builtins import CATALOG  # noqa: E402

UNIT_TOL = 1e-3  # the bands CLI default; the workload sets no unit_tol
RESOLVED = np.finfo(float).eps ** 0.5, np.finfo(float).eps ** -0.5  # beyond: rounding


def full_pencil_decisions(coarse, fine, unit_tol) -> list:
    """The two-grid rule within the RESOLVED magnitudes."""
    return [np.min(np.abs(fine - mu)) / max(1.0, abs(mu)) <= 10 * unit_tol
            and RESOLVED[0] <= abs(mu) <= RESOLVED[1] for mu in coarse]


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
    differing decisions as (energy, mu, full decision), fallback energies of
    the scan, scan records whose p or k values differ from the two-grid
    rule's as (energy, record, two-grid p, two-grid k values))."""
    pot, energies, n = seed_inputs(seed)
    grid = PeriodicGrid(pot.lattice_constant, n, 0.0)
    total = full_count = shipped_count = 0
    diffs, records = [], []
    scan = band_scan(pot, energies, grid, UNIT_TOL)
    for energy, rec in zip(energies, scan.records):
        coarse = bloch_multipliers_collocation(pot, energy, n)
        full = full_pencil_decisions(coarse, companion_multipliers(pot, energy, 2 * n), UNIT_TOL)
        ps = propagating_multipliers(pot, energy, grid, UNIT_TOL)
        shipped = kept(coarse, ps.all_multipliers)
        total += len(coarse)
        full_count += sum(full)
        shipped_count += sum(shipped)
        diffs += [(float(energy), mu, f) for mu, f, s in zip(coarse, full, shipped) if f != s]
        ks = tuple(sorted(float(k) for k in multiplier_phases_to_k(ps.propagating,
                                                                   pot.lattice_constant)))
        if rec.failed or (rec.p, rec.k_values) != (ps.p, ks):
            records.append((float(energy), rec, ps.p, ks))
    fallback = sum(rec.fine_pencil for rec in scan.records)
    return len(energies), total, full_count, shipped_count, diffs, fallback, records


def parse_seeds(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare the nonlocal confirmation decisions with the full fine pencil's, "
                    "and the band scan's propagating modes with the two-grid rule's.")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-20"),
                        help="seed or inclusive range A-B (default 1-20)")
    args = parser.parse_args(argv)
    sums = [0] * 6
    for seed in args.seeds:
        n_energies, total, full, shipped, diffs, fallback, records = check_seed(seed)
        print(f"seed {seed}: {n_energies} energies, {total} coarse multipliers, "
              f"confirmed {full} full / {shipped} shipped, {len(diffs)} differ; "
              f"band_scan: {fallback} fallback energies, {len(records)} records differ")
        for energy, mu, decision in diffs:
            print(f"  E = {energy!r}: |mu| = {abs(mu):.4g}, full pencil "
                  f"{'confirms' if decision else 'rejects'}, shipped path does not")
        for energy, rec, p, ks in records:
            print(f"  E = {energy!r}: band_scan p = {rec.p}, k = {rec.k_values}"
                  f"{' (failed: ' + rec.message + ')' if rec.failed else ''}; "
                  f"two-grid rule p = {p}, k = {ks}")
        for i, value in enumerate((n_energies, total, full, shipped, fallback,
                                   len(diffs) + len(records))):
            sums[i] += value
    print(f"total: {sums[0]} energies, {sums[1]} coarse multipliers, confirmed "
          f"{sums[2]} full / {sums[3]} shipped, {sums[4]} fallback energies, "
          f"{sums[5]} differing decisions")
    return 1 if sums[5] else 0


if __name__ == "__main__":
    sys.exit(main())
