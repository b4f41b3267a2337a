"""Seeded workload generation for the gfloquet benchmark.

A seed changes physical parameters only (gains, coupling strengths, energy
offsets), never a grid size, operator size or energy count, so the cost of a
workload is comparable across seeds. Every job is one `gfloquet` CLI call
described by a JSON config written under the run's work directory.
"""
from __future__ import annotations

import csv
import json
import os

import numpy as np
import scipy.integrate
from scipy.optimize import brentq

WORKLOADS = ("floquet_kernel", "bands_nonlocal", "mixed_small")

# exp_kernel fixture of acceptance criterion 4, at a grid small enough for
# repeated timing: m = 463 (dense eig) at N and 924 (ARPACK) at 2N.
KERNEL_THETA = 0.3
KERNEL_DEPTH = KERNEL_THETA * np.log(9.0 * KERNEL_THETA / 1e-10)  # 1e-10 tail at b = -9
KERNEL_N = 64

NONLOCAL_N = 64
NONLOCAL_ENERGIES = (-13.5, 4.5, 24)

DELAY_BASE_GAINS = (1.2, np.pi / 2.0, 1.9)
DELAY_N = 128  # operators of size 129 and 257, both dense
VDP_NODES = 256
KP_ENERGIES = (1.0, 45.0, 40)  # the grid shift keeps E > 0
COSINE_ENERGIES = (-4.0, 45.0, 16)
BAND_N = 64

_SALT = {name: i for i, name in enumerate(WORKLOADS)}


def _rng(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), _SALT[workload]])


def _jitter(rng: np.random.Generator, value: float, share: float) -> float:
    return float(value * (1.0 + rng.uniform(-share, share)))


def _energy_grid(rng: np.random.Generator, lo: float, hi: float, count: int) -> dict:
    """Shift the whole grid by less than one step, keeping the count."""
    shift = rng.uniform(-0.5, 0.5) * (hi - lo) / (count - 1)
    return {"min": lo + shift, "max": hi + shift, "count": count}


def van_der_pol_cycle(mu: float, nodes: int = VDP_NODES):
    """Limit cycle of y1' = y2, y2' = mu (1 - y1^2) y2 - y1 on nodes+1 uniform
    times, plus the exact nontrivial multiplier exp(int_0^T mu (1 - y1^2) dt)
    (Liouville: the trivial multiplier is 1 and the product is exp of the
    integrated divergence)."""

    def vdp(t, y):
        return [y[1], mu * (1.0 - y[0] ** 2) * y[1] - y[0]]

    sol = scipy.integrate.solve_ivp(vdp, (0.0, 200.0), [2.0, 0.0], rtol=1e-12,
                                    atol=1e-12, dense_output=True)
    tg = np.linspace(180.0, 200.0, 20001)
    vv = sol.sol(tg)[1]
    section = lambda t: sol.sol(t)[1]
    crossings = [brentq(section, tg[i], tg[i + 1], xtol=1e-14)
                 for i in range(len(tg) - 1) if vv[i] < 0.0 <= vv[i + 1]]
    t0, t1 = crossings[-2], crossings[-1]
    period = t1 - t0

    def with_divergence(t, y):
        return vdp(t, y[:2]) + [mu * (1.0 - y[0] ** 2)]

    y0 = sol.sol(t0)
    one = scipy.integrate.solve_ivp(with_divergence, (0.0, period), [y0[0], y0[1], 0.0],
                                    rtol=1e-12, atol=1e-12, dense_output=True)
    times = np.linspace(0.0, period, nodes + 1)
    samples = one.sol(times)[:2].T
    samples[-1] = samples[0]  # the cycle file must wrap exactly
    return times, samples, float(np.exp(one.y[2, -1]))


def _job(work: str, name: str, command: str, config: dict, ops: int, check: dict) -> dict:
    path = os.path.join(work, "inputs", f"{name}.json")
    with open(path, "w") as fh:
        json.dump(config, fh, indent=1, sort_keys=True)
    return {"name": name, "command": command, "config": path,
            "out": os.path.join(work, "out", name), "ops": ops, "check": check}


def _floquet_kernel(rng, work):
    a = _jitter(rng, 2.0, 0.03)
    b = _jitter(rng, -9.0, 0.03)
    cfg = {"system": {"builtin": "exp_kernel",
                      "params": {"a": a, "b": b, "theta": KERNEL_THETA,
                                 "depth": KERNEL_DEPTH}},
           "grid": {"samples_per_period": KERNEL_N}, "modes": 2,
           "quadrature": "simpson"}
    check = {"kind": "exp_kernel", "a": a, "b": b, "theta": KERNEL_THETA}
    return [_job(work, "kernel", "analyze", cfg, 1, check)]


def _bands_nonlocal(rng, work):
    gamma = _jitter(rng, -80.0, 0.02)
    energies = _energy_grid(rng, *NONLOCAL_ENERGIES)
    cfg = {"potential": {"builtin": "separable_nonlocal", "params": {"gamma": gamma}},
           "energies": energies, "grid": {"samples_per_period": NONLOCAL_N}}
    check = {"kind": "separable_nonlocal", "gamma": gamma, "range_fraction": 0.9}
    return [_job(work, "nonlocal", "bands", cfg, energies["count"], check)]


def _mixed_small(rng, work):
    jobs = []
    for i, base in enumerate(DELAY_BASE_GAINS):
        gain = _jitter(rng, base, 0.03)
        cfg = {"system": {"dimension": 1, "period": 1.0, "memory_depth": 1.0,
                          "coefficient": [0.0] * 4,
                          "delay_taps": [{"delay": 1.0, "coefficient": [-gain] * 4}]},
               "grid": {"samples_per_period": DELAY_N}, "modes": 2}
        jobs.append(_job(work, f"delay{i}", "analyze", cfg, 1,
                         {"kind": "delay", "gain": gain}))

    mu = _jitter(rng, 1.0, 0.05)
    times, samples, liouville = van_der_pol_cycle(mu)
    cycle_path = os.path.join(work, "inputs", "vdp_cycle.csv")
    with open(cycle_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "y1", "y2"])
        writer.writerows([[repr(float(t)), repr(float(y[0])), repr(float(y[1]))]
                          for t, y in zip(times, samples)])
    cfg = {"system": {"builtin": "van_der_pol", "params": {"mu": mu}},
           "cycle_file": cycle_path, "grid": {"samples_per_period": VDP_NODES},
           "modes": 4, "autonomous": True}
    jobs.append(_job(work, "vdp", "stability", cfg, 1,
                     {"kind": "van_der_pol", "liouville": liouville}))

    strength = _jitter(rng, 3.0, 0.05)
    energies = _energy_grid(rng, *KP_ENERGIES)
    cfg = {"potential": {"builtin": "kronig_penney", "params": {"strength": strength}},
           "energies": energies, "grid": {"samples_per_period": BAND_N}}
    jobs.append(_job(work, "kronig_penney", "bands", cfg, energies["count"],
                     {"kind": "kronig_penney", "strength": strength}))

    amp = _jitter(rng, 5.0, 0.05)
    xs = np.arange(BAND_N) / BAND_N
    energies = _energy_grid(rng, *COSINE_ENERGIES)
    cfg = {"potential": {"lattice_constant": 1.0,
                         "local_table": [float(v) for v in amp * np.cos(2 * np.pi * xs)]},
           "energies": energies, "grid": {"samples_per_period": BAND_N}}
    jobs.append(_job(work, "cosine", "bands", cfg, energies["count"],
                     {"kind": "local_symmetric"}))
    return jobs


_GENERATORS = {"floquet_kernel": _floquet_kernel, "bands_nonlocal": _bands_nonlocal,
             "mixed_small": _mixed_small}


def generate(workload: str, seed: int, work: str) -> list:
    """Write the inputs of one workload under `work` and return its jobs."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    os.makedirs(os.path.join(work, "inputs"), exist_ok=True)
    return _GENERATORS[workload](_rng(workload, seed), work)


def cli_argv(job: dict) -> list:
    """Arguments of `gfloquet.cli.main` for one job."""
    return [job["command"], "--config", job["config"], "--out", job["out"]]
