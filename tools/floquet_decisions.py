"""Check the Floquet two-grid `converged` flags against dense eigenvalues of
both operators.

Run from the repository root (about 2 s per seed), with one BLAS thread as
the benchmark runs, so that the solves give the benchmark's bits:

    OPENBLAS_NUM_THREADS=1 python3 tools/floquet_decisions.py --seeds 1-20

For the floquet_kernel job at each seed (inputs from perfbench/workloads.py)
and for the builtin exp_kernel `analyze` configs of tools/compare_artifacts.py,
each coarse multiplier that `floquet_spectrum` lists is decided twice:
- by the shipped `floquet_spectrum`, its `converged` flag, whichever eigen
  path (dense or ARPACK) the operator sizes chose;
- by `np.linalg.eigvals` of the coarse and the refined operator, under the
  same two-grid rule: the listed multiplier's nearest dense coarse eigenvalue
  mu converges when a dense refined one lies within convergence_tol of it,
  relative to the larger magnitude, and neither lies at or below machine
  epsilon times the largest magnitude of its own grid.
It prints the counts per config and in total, and one line per differing
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
sys.path.insert(0, os.path.join(ROOT, "tools"))
sys.path.insert(0, os.path.join(ROOT, "src"))
from compare_artifacts import BUILTIN_CONFIGS, workloads  # noqa: E402
from gfloquet import PeriodicGrid, build_monodromy, floquet_spectrum  # noqa: E402
from gfloquet.cli import _system_from_config  # noqa: E402  (as `analyze` reads a config)

FLOOR = np.finfo(float).eps  # |mu| / max |mu| of its grid at most: rounding, never converged


def configs(seeds) -> list:
    """(name, analyze config) of the floquet_kernel job at each seed, then of
    the builtin exp_kernel configs."""
    out = []
    for seed in seeds:
        with tempfile.TemporaryDirectory() as work:
            (job,) = workloads.generate("floquet_kernel", seed, work)
            with open(job["config"]) as fh:
                out.append((f"floquet_kernel seed {seed}", json.load(fh)))
    return out + [(f"builtin {name}", cfg) for name, (command, cfg) in BUILTIN_CONFIGS.items()
                  if command == "analyze" and cfg["system"].get("builtin") == "exp_kernel"]


def dense_decisions(listed, coarse, fine, tol) -> list:
    """The two-grid rule on the dense eigenvalues nearest the listed ones."""
    coarse_floor = FLOOR * np.abs(coarse).max()
    fine = fine[np.abs(fine) > FLOOR * np.abs(fine).max()]
    out = []
    for mu in listed:
        nu = coarse[np.argmin(np.abs(coarse - mu))]
        dist = np.abs(fine - nu) / np.maximum(np.maximum(abs(nu), np.abs(fine)), 1e-300)
        out.append(bool(abs(nu) > coarse_floor and np.any(dist <= tol)))
    return out


def check_config(cfg: dict) -> tuple:
    """(listed multipliers, dense converged, shipped converged, differing
    decisions as (mu, dense decision))."""
    system, period, depth = _system_from_config(cfg)
    grid = PeriodicGrid(period, cfg["grid"]["samples_per_period"], depth,
                        cfg.get("quadrature", "trapezoid"))
    tol = cfg.get("tolerance", 1e-4)
    dec = floquet_spectrum(system, grid, modes=cfg.get("modes", 8), convergence_tol=tol)
    fine = np.linalg.eigvals(build_monodromy(system, grid.refined()).matrix)
    dense = dense_decisions(dec.multipliers, np.linalg.eigvals(dec.operator.matrix), fine, tol)
    shipped = [bool(c) for c in dec.converged]
    diffs = [(mu, d) for mu, d, s in zip(dec.multipliers, dense, shipped) if d != s]
    return len(dense), sum(dense), sum(shipped), diffs


def parse_seeds(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Compare the Floquet converged flags with dense eigenvalues' decisions.")
    parser.add_argument("--seeds", type=parse_seeds, default=parse_seeds("1-20"),
                        help="floquet_kernel seed or inclusive range A-B (default 1-20)")
    args = parser.parse_args(argv)
    sums = [0, 0, 0, 0]
    for name, cfg in configs(args.seeds):
        listed, dense, shipped, diffs = check_config(cfg)
        print(f"{name}: {listed} listed multipliers, converged {dense} dense / "
              f"{shipped} shipped, {len(diffs)} differ")
        for mu, decision in diffs:
            print(f"  |mu| = {abs(mu):.6g}: dense eigenvalues "
                  f"{'converge' if decision else 'do not converge'}, shipped path "
                  f"{'does not' if decision else 'does'}")
        for i, value in enumerate((listed, dense, shipped, len(diffs))):
            sums[i] += value
    print(f"total: {sums[0]} listed multipliers, converged {sums[1]} dense / {sums[2]} "
          f"shipped, {sums[3]} differing decisions")
    return 1 if sums[3] else 0


if __name__ == "__main__":
    sys.exit(main())
