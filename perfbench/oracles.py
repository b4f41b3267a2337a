"""Exact oracles for every seeded instance, and the checks that read the CLI
artifacts of a job against them.

A check returns the worst multiplier error (`mult_err`) and the worst error of
the exponent ln(mu)/period (`k_err`: the quasimomentum error for band jobs,
the Floquet exponent error for analyze and stability jobs), each absolute or
None when the job has no such oracle, and the number of the job's operations that failed. An
operation fails when the CLI failed it, when a value misses its gate, or when
a structural property (propagating count, +-k pairing) does not hold.
"""
from __future__ import annotations

import csv
import json
import os

import numpy as np
import scipy.linalg
from scipy.optimize import brentq
from scipy.special import lambertw

# Gates from the acceptance suite: criterion 4 (kernel), criterion 3 (delay)
# and the van der Pol test (trivial multiplier).
GATE_KERNEL = 1e-6
GATE_DELAY = 1e-3
GATE_TRIVIAL = 1e-3
# Gates the acceptance suite lacks, set at 10x the worst error over seeds 0-9
# when the benchmark was defined.
GATE_LIOUVILLE = 3e-8
GATE_KP_K = 1.5e-4
GATE_NONLOCAL_K = 1.2e-3

# An energy whose oracle is ill-conditioned is left out of k_err and of the
# propagating-count check: |D(E)| within KP_EDGE of 1 (k = arccos D has an
# infinite derivative at a band edge), or |dE/dk| below NONLOCAL_MIN_SLOPE at
# an exact root (band extremum).
KP_EDGE = 1e-2
NONLOCAL_MIN_SLOPE = 2.0


def exp_kernel_multipliers(a: float, b: float, theta: float, period: float = 1.0):
    """Multipliers of z' = a z + b int e^{-(t-tau)/theta} z(tau) dtau with
    infinite memory: eigenvalues of expm of the augmented 2x2 system."""
    aug = np.array([[a, 1.0], [b, -1.0 / theta]])
    return np.linalg.eigvals(scipy.linalg.expm(aug * period))


def delay_multiplier(gain: float) -> complex:
    """Dominant multiplier over a unit period of z'(t) = -gain z(t - 1): the
    rightmost characteristic root is lambda = W_0(-gain)."""
    return complex(np.exp(lambertw(-gain, 0)))


def kronig_penney_discriminant(strength: float, energy: float, a: float = 1.0) -> float:
    """D(E) = cos(qa) + P sin(qa)/(qa), q = sqrt(E) > 0; band iff |D| <= 1."""
    qa = np.sqrt(energy) * a
    return float(np.cos(qa) + strength * np.sin(qa) / qa)


def nonlocal_symbol(k, gamma: float, range_fraction: float = 0.9, a: float = 1.0):
    """W^(k) = gamma int_{|u|<=r} cos(q u) cos^2(pi u / 2r) cos(k u) du, q = 2 pi/a,
    in closed form: the integrand is a sum of cosines with frequencies
    q +- k +- pi/r (weight 1/8) and q +- k (weight 1/4)."""
    k = np.asarray(k, dtype=float)
    r = range_fraction * a
    q = 2.0 * np.pi / a
    p = np.pi / r

    def s(c):  # int_{-r}^{r} cos(c u) du
        return 2.0 * r * np.sinc(c * r / np.pi)

    total = 0.25 * (s(q - k) + s(q + k))
    for sk in (-1.0, 1.0):
        for sp in (-1.0, 1.0):
            total = total + 0.125 * s(q + sk * k + sp * p)
    return gamma * total


def nonlocal_roots(energy: float, gamma: float, range_fraction: float = 0.9,
                   a: float = 1.0):
    """Real K with K^2 + W^(K) = E (the kernel is a pure difference kernel, so
    plane waves are exact modes), returned with the slope dE/dK at each."""
    f = lambda x: x * x + nonlocal_symbol(x, gamma, range_fraction, a) - energy
    kmax = np.sqrt(max(energy, 0.0) + abs(gamma) * range_fraction * a) + 1.0
    grid = np.linspace(0.0, kmax, 4001)
    vals = f(grid)
    roots = []
    for i in range(len(grid) - 1):
        if vals[i] == 0.0:
            roots.append(grid[i])
        elif vals[i] * vals[i + 1] < 0.0:
            roots.append(brentq(f, grid[i], grid[i + 1], xtol=1e-14))
    ks = np.array(sorted(set(roots) | {-x for x in roots}))
    dk = 1e-6
    slopes = (f(ks + dk) - f(ks - dk)) / (2 * dk)
    return ks, slopes


def fold(k, a: float = 1.0):
    """Quasimomenta folded into (-pi/a, pi/a]."""
    edge = np.pi / a
    out = np.mod(np.asarray(k, dtype=float) + edge, 2 * edge) - edge
    return np.where(np.isclose(out, -edge, atol=1e-12), edge, out)


def _circular(x, y, a: float = 1.0):
    d = np.abs(np.mod(x - y + np.pi / a, 2 * np.pi / a) - np.pi / a)
    return d


def _read_json(out_dir, name):
    with open(os.path.join(out_dir, name)) as fh:
        return json.load(fh)


def _spectrum(out_dir):
    spec = _read_json(out_dir, "spectrum.json")
    mus = np.array([complex(*m) for m in spec["multipliers"]])
    return mus[np.array(spec["converged"], dtype=bool)]


def _bands(out_dir):
    """(energy, p, k values, failed) per row of bands.csv and diagnostics.json."""
    with open(os.path.join(out_dir, "bands.csv"), newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    diag = _read_json(out_dir, "diagnostics.json")["records"]
    out = []
    for row, rec in zip(rows, diag):
        ks = np.array([float(v) for v in row[2:] if v != ""])
        out.append((float(row[0]), int(row[1]), ks, bool(rec["failed"])))
    return out, len(rows) == len(diag)


def _floquet_errors(got, exact, period):
    """Worst |mu - mu_exact| and worst exponent error |ln(mu / mu_exact)| / period,
    pairing each exact multiplier with the nearest computed one. On the unit
    circle the exponent is i k, so this is the Floquet counterpart of k_err."""
    if len(got) < len(exact):
        return np.inf, np.inf
    nearest = np.array([got[np.argmin(np.abs(got - e))] for e in exact])
    mult = float(np.max(np.abs(nearest - exact)))
    exponent = float(np.max(np.abs(np.log(nearest / exact)))) / period
    return mult, exponent


def _check_exp_kernel(job, out):
    c = job["check"]
    exact = exp_kernel_multipliers(c["a"], c["b"], c["theta"])
    mult, exponent = _floquet_errors(_spectrum(out)[:2], exact, 1.0)
    return mult, exponent, int(not mult <= GATE_KERNEL)


def _check_delay(job, out):
    mu = delay_multiplier(job["check"]["gain"])
    mult, exponent = _floquet_errors(_spectrum(out)[:2], np.array([mu, np.conj(mu)]), 1.0)
    return mult, exponent, int(not mult <= GATE_DELAY)


def _check_van_der_pol(job, out):
    rep = _read_json(out, "stability.json")
    mus = np.array([complex(*e["multiplier"]) for cls in rep["exponent_classes"]
                    for e in cls])
    exact = np.array([1.0, job["check"]["liouville"]])
    errors = [abs(mus[np.argmin(np.abs(mus - e))] - e) for e in exact]
    _, exponent = _floquet_errors(mus, exact, rep["cycle_period"])
    ok = (rep["verdict"] == "STABLE" and len(mus) == 2 and errors[0] <= GATE_TRIVIAL
          and errors[1] <= GATE_LIOUVILLE)
    return max(errors), exponent, int(not ok)


def _bloch_mult_err(k_err, a=1.0):
    """|e^{ika} - e^{ik'a}| for |k - k'| = k_err: the Bloch multiplier error."""
    return 2.0 * abs(np.sin(0.5 * k_err * a))


def _check_kronig_penney(job, out):
    strength = job["check"]["strength"]
    records, aligned = _bands(out)
    worst, failed = 0.0, 0
    for energy, p, ks, rec_failed in records:
        d = kronig_penney_discriminant(strength, energy)
        ok = not rec_failed
        if abs(d) <= 1.0 - KP_EDGE:
            k_exact = np.arccos(d)
            ok = ok and p == 2 and np.allclose(np.sort(np.abs(ks)), k_exact, atol=GATE_KP_K)
            if p == 2:
                worst = max(worst, float(np.max(np.abs(np.abs(ks) - k_exact))))
        elif abs(d) >= 1.0 + KP_EDGE:
            ok = ok and p == 0
        failed += int(not ok)
    return _bloch_mult_err(worst), worst, failed + int(not aligned) * len(records)


def _check_separable_nonlocal(job, out):
    c = job["check"]
    records, aligned = _bands(out)
    worst, failed = 0.0, 0
    for energy, p, ks, rec_failed in records:
        roots, slopes = nonlocal_roots(energy, c["gamma"], c["range_fraction"])
        ok = not rec_failed
        if np.all(np.abs(slopes) >= NONLOCAL_MIN_SLOPE):
            exact = fold(roots)
            ok = ok and p == len(exact)
            if ok and p:
                errs = [float(np.min(_circular(k, exact))) for k in ks]
                worst = max(worst, max(errs))
                ok = max(errs) <= GATE_NONLOCAL_K
        failed += int(not ok)
    return _bloch_mult_err(worst), worst, failed + int(not aligned) * len(records)


def _check_local_symmetric(job, out):
    """No closed form: p is 0 or 2 and the two quasimomenta are +-k."""
    records, aligned = _bands(out)
    failed = 0
    for _, p, ks, rec_failed in records:
        ok = not rec_failed and p in (0, 2)
        if ok and p == 2:
            ok = abs(ks[0] + ks[1]) < 1e-6 or abs(abs(ks[0]) - np.pi) < 1e-6
        failed += int(not ok)
    return None, None, failed + int(not aligned) * len(records)


_CHECKS = {"exp_kernel": _check_exp_kernel, "delay": _check_delay,
           "van_der_pol": _check_van_der_pol, "kronig_penney": _check_kronig_penney,
           "separable_nonlocal": _check_separable_nonlocal,
           "local_symmetric": _check_local_symmetric}


def check(job: dict):
    """(mult_err, k_err, failed_ops) of one job from the artifacts in its out dir."""
    try:
        mult_err, k_err, failed = _CHECKS[job["check"]["kind"]](job, job["out"])
    except (OSError, ValueError, KeyError, IndexError, TypeError):
        return None, None, job["ops"]
    return mult_err, k_err, min(failed, job["ops"])
