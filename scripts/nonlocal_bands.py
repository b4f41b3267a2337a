"""Band structure of the separable nonlocal crystal vs its local cousins.

Scans propagating modes over an energy window for the built-in separable
kernel, reports interior band extrema (absent for every local potential),
and writes the k(E) table to CSV. The energies are solved in forked worker
processes, one per CPU the process may run on (see `band_scan`).
"""
import argparse
import csv

import numpy as np

from gfloquet import PeriodicGrid, band_scan, detect_interior_extrema
from gfloquet.builtins import separable_nonlocal


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--gamma", type=float, default=None,
                    help="kernel strength (default: frozen tuning)")
    ap.add_argument("--e-min", type=float, default=-13.5)
    ap.add_argument("--e-max", type=float, default=4.5)
    ap.add_argument("--count", type=int, default=110)
    ap.add_argument("--grid", type=int, default=64)
    ap.add_argument("--out", default="nonlocal_bands.csv")
    args = ap.parse_args()

    pot, meta = (separable_nonlocal(gamma=args.gamma) if args.gamma is not None
                 else separable_nonlocal())
    grid = PeriodicGrid(meta["lattice_constant"], args.grid, 0.0)
    energies = np.linspace(args.e_min, args.e_max, args.count)
    diagram = band_scan(pot, energies, grid)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        pmax = max(r.p for r in diagram.records)
        writer.writerow(["E", "p"] + [f"k{i + 1}" for i in range(pmax)])
        for r in diagram.records:
            writer.writerow([f"{r.energy:.9g}", r.p]
                            + [f"{k:.9g}" for k in r.k_values]
                            + [""] * (pmax - len(r.k_values)))

    p4 = [r.energy for r in diagram.succeeded if r.p == 4]
    if p4:
        print(f"four propagating modes for E in about [{min(p4):.3f}, {max(p4):.3f}]")
    for ext in detect_interior_extrema(diagram):
        print(f"interior extremum: band {ext.band_index}, "
              f"k* = {ext.k_star:.4f}, E* = {ext.energy_star:.4f}")
    print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
