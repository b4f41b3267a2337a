"""Acceptance gate: the ten headline checks, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the summary lines; each
criterion is also an ordinary assertion so the suite stays green only when
every check holds at its stated tolerance.
"""
import json
import time

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp

from gfloquet import (
    LinearMemorySystem, NonlocalPotential1D, PeriodicGrid, band_scan,
    build_monodromy, detect_interior_extrema, floquet_spectrum,
    multiplier_phases_to_k, propagating_multipliers, verify_floquet_form,
)
from gfloquet.builtins import (delay_pi_over_2, exp_kernel, kronig_penney,
                               scalar_cosine, separable_nonlocal)
from gfloquet.cli import main as cli_main

from bloch_oracles import kronig_penney_reference


def _report(number, ok, detail):
    line = f"criterion {number:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


# shared decompositions for criteria 1-5 (criterion 5 re-verifies these)

@pytest.fixture(scope="module")
def dec_scalar():
    system, meta = scalar_cosine()
    grid = PeriodicGrid(meta["period"], 256, 0.0)
    t0 = time.perf_counter()
    dec = floquet_spectrum(system, grid, modes=1)
    return system, grid, dec, time.perf_counter() - t0


@pytest.fixture(scope="module")
def dec_constant():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((4, 4))
    a -= (np.max(np.real(np.linalg.eigvals(a))) + 0.5) * np.eye(4)
    system = LinearMemorySystem(4, lambda s: a)
    grid = PeriodicGrid(1.0, 256, 0.0)
    return system, grid, floquet_spectrum(system, grid, modes=4), a


@pytest.fixture(scope="module")
def dec_delay():
    system, meta = delay_pi_over_2()
    grid = PeriodicGrid(meta["period"], 256, meta["memory_depth"])
    return system, grid, floquet_spectrum(system, grid, modes=4)


@pytest.fixture(scope="module")
def dec_kernel():
    # truncation depth for a 1e-10 tail bound: theta ln(|b| theta / eps)
    depth = 0.3 * np.log(9.0 * 0.3 / 1e-10)
    system, meta = exp_kernel(depth=depth)
    grid = PeriodicGrid(meta["period"], 96, depth, "simpson")
    dec = floquet_spectrum(system, grid, modes=2)
    return system, grid, dec, meta["augmented_matrix"]


def test_criterion_1_periodic_scalar_ode(dec_scalar):
    _, _, dec, elapsed = dec_scalar
    err = abs(dec.retained[0] - np.exp(0.3))
    ok = dec.p_retained >= 1 and err < 1e-6 and elapsed < 1.0
    _report(1, ok, f"scalar cosine multiplier error {err:.2e}, {elapsed:.2f}s")


def test_criterion_2_constant_matrix_oracle(dec_constant):
    system, grid, _, a = dec_constant
    op = build_monodromy(system, grid)
    err = np.linalg.norm(op.matrix - scipy.linalg.expm(a))
    _report(2, err < 1e-8, f"4x4 monodromy vs expm Frobenius error {err:.2e}")


def test_criterion_3_delay_threshold(dec_delay):
    _, _, dec = dec_delay
    top = dec.multipliers[:2]
    err = max(np.min(np.abs(top - 1j)), np.min(np.abs(top + 1j)))
    ok = dec.converged[:2].all() and err < 1e-3
    _report(3, ok, f"dominant delay multipliers vs +-i error {err:.2e}")


def test_criterion_4_exponential_kernel_equivalence(dec_kernel):
    _, _, dec, aug = dec_kernel
    exact = np.linalg.eigvals(scipy.linalg.expm(aug))
    got = dec.retained[:2]
    err = max(np.min(np.abs(exact - mu)) for mu in got)
    _report(4, err < 1e-6, f"kernel vs augmented 2x2 multiplier error {err:.2e}")


def test_criterion_5_floquet_form_verification(dec_scalar, dec_constant,
                                               dec_delay, dec_kernel):
    cases = [
        ("scalar", dec_scalar[0], dec_scalar[1], dec_scalar[2], 1e-6),
        ("constant", dec_constant[0], dec_constant[1], dec_constant[2], 1e-6),
        ("delay", dec_delay[0], dec_delay[1], dec_delay[2], 1e-3),
        ("kernel", dec_kernel[0], dec_kernel[1], dec_kernel[2], 1e-3),
    ]
    worst = []
    ok = True
    for name, system, grid, dec, bound in cases:
        rep = verify_floquet_form(system, dec)
        res = max(rep.shift_residual, rep.max_residual)
        worst.append(f"{name} {res:.1e}<{bound:.0e}")
        ok = ok and res <= bound
    _report(5, ok, "shift/mode/operator residuals: " + ", ".join(worst))


def _mathieu_coefficient(delta):
    return lambda s: np.array([[0.0, 1.0], [-(delta + 0.2 * np.cos(s)), 0.0]])


def _mathieu_unstable_spectral(delta):
    system = LinearMemorySystem(2, _mathieu_coefficient(delta))
    op = build_monodromy(system, PeriodicGrid(2.0 * np.pi, 256, 0.0))
    return np.max(np.abs(np.linalg.eigvals(op.matrix))) > 1.0 + 1e-6


def _mathieu_unstable_oracle(delta):
    m = _mathieu_coefficient(delta)

    def rhs(t, y):
        return (m(t) @ y.reshape(2, 2)).ravel()

    sol = solve_ivp(rhs, (0.0, 2.0 * np.pi), np.eye(2).ravel(),
                    rtol=1e-12, atol=1e-14, method="DOP853")
    mono = sol.y[:, -1].reshape(2, 2)
    return np.max(np.abs(np.linalg.eigvals(mono))) > 1.0 + 1e-6


def _bisect_edge(unstable, lo, hi, iters=24):
    assert not unstable(lo) and unstable(hi)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if not unstable(mid) else (lo, mid)
    return 0.5 * (lo + hi)


def test_criterion_6_mathieu_tongue():
    # lower edge of the first instability tongue of z'' + (d + 0.2 cos s) z = 0
    got = _bisect_edge(_mathieu_unstable_spectral, 0.05, 0.20)
    ref = _bisect_edge(_mathieu_unstable_oracle, 0.05, 0.20)
    err = abs(got - ref)
    _report(6, err < 2e-3,
            f"first tongue edge delta={got:.6f} vs oracle {ref:.6f} (|diff| {err:.1e})")


def test_criterion_7_kronig_penney_limit():
    pot, _ = kronig_penney(strength=3.0)
    grid = PeriodicGrid(1.0, 128, 0.0)

    def is_allowed(e):
        return propagating_multipliers(pot, e, grid).p == 2

    def exact_edge(target, lo, hi):
        from scipy.optimize import brentq
        f = lambda e: kronig_penney_reference(3.0, 1.0, e)["discriminant"] - target
        return brentq(f, lo, hi, xtol=1e-12)

    # first band: bottom where D = 1, top where D = -1 (at E = pi^2)
    edges_exact = [exact_edge(1.0, 0.1, 5.0), exact_edge(-1.0, 5.0, 12.0)]
    edges_got = []
    for exact, inside in zip(edges_exact, (False, True)):
        lo, hi = exact - 0.3, exact + 0.3
        for _ in range(26):
            mid = 0.5 * (lo + hi)
            opened = is_allowed(mid)
            if inside:  # band -> gap as E crosses the top edge
                lo, hi = (mid, hi) if opened else (lo, mid)
            else:
                lo, hi = (lo, mid) if opened else (mid, hi)
        edges_got.append(0.5 * (lo + hi))
    edge_err = max(abs(g - e) for g, e in zip(edges_got, edges_exact))
    ps = [propagating_multipliers(pot, e, grid).p
          for e in np.linspace(0.2, 60.0, 200)]
    p_ok = all(p in (0, 2) for p in ps)
    _report(7, edge_err < 1e-4 and p_ok,
            f"band-edge error {edge_err:.1e}; p in {{0,2}} at 200 energies: {p_ok}")


def test_criterion_8_free_particle_dispersion():
    free = NonlocalPotential1D(1.0)
    grid = PeriodicGrid(1.0, 64, 0.0)
    worst = 0.0
    for energy in np.linspace(0.1, 9.0, 24):
        ps = propagating_multipliers(free, energy, grid)
        k = max(multiplier_phases_to_k(ps.propagating, 1.0))
        worst = max(worst, abs(k - np.sqrt(energy)) / np.sqrt(energy))
    _report(8, worst < 1e-6, f"free k(E)=sqrt(E) worst relative error {worst:.2e}")


def test_criterion_9_nonlocal_properties():
    pot, _ = separable_nonlocal()
    grid = PeriodicGrid(1.0, 64, 0.0)
    diagram = band_scan(pot, np.linspace(-13.5, 4.5, 110), grid)
    p_even = all(r.p % 2 == 0 for r in diagram.succeeded)
    neg_ok = True
    for rec in diagram.succeeded:
        ks = np.array(rec.k_values)
        for k in ks:
            if abs(k - np.pi) > 1e-9:
                neg_ok = neg_ok and np.min(np.abs(ks + k)) < 1e-6
    window_p4 = any(r.p == 4 for r in diagram.succeeded)
    extrema = detect_interior_extrema(diagram)
    local_cases = [
        (NonlocalPotential1D(1.0), np.linspace(0.05, 45.0, 120)),
        (kronig_penney()[0], np.linspace(0.2, 45.0, 120)),
        (NonlocalPotential1D(1.0, local=lambda x: 5.0 * np.cos(2 * np.pi * x)),
         np.linspace(-4.0, 45.0, 120)),
    ]
    local_clean = all(
        detect_interior_extrema(band_scan(p, es, grid)) == []
        for p, es in local_cases)
    ok = p_even and neg_ok and window_p4 and len(extrema) >= 1 and local_clean
    _report(9, ok,
            f"p even {p_even}, k-negation {neg_ok}, p=4 window {window_p4}, "
            f"{len(extrema)} interior extrema (local matrix clean: {local_clean})")


def test_criterion_10_cli_determinism(tmp_path):
    cfg = tmp_path / "c.json"
    cfg.write_text(json.dumps({
        "system": {"builtin": "scalar_cosine"},
        "grid": {"samples_per_period": 64}, "modes": 2,
    }))
    blobs = []
    for name in ("a", "b"):
        out = tmp_path / name
        assert cli_main(["analyze", "--config", str(cfg), "--out", str(out)]) == 0
        blobs.append({f.name: f.read_bytes() for f in sorted(out.iterdir())})
    ok = blobs[0] == blobs[1]
    _report(10, ok, "repeated CLI runs byte-identical: "
            + ", ".join(sorted(blobs[0])))
