import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from gfloquet import (
    InvalidSystemError, NonlocalPotential1D, PeriodicGrid, band_scan,
    bloch_multipliers_collocation, cell_collocation_matrices,
    detect_interior_extrema, fixed_k_energies, local_cell_monodromy,
    multiplier_phases_to_k, propagating_multipliers, validate_potential,
)
from gfloquet.builtins import kronig_penney, separable_nonlocal

from bloch_oracles import kronig_penney_reference

FREE = NonlocalPotential1D(1.0)
GRID = PeriodicGrid(1.0, 64, 0.0)


def test_potential_validation():
    pot, _ = separable_nonlocal()
    rep = validate_potential(pot)
    assert rep.passed
    asym = NonlocalPotential1D(
        1.0, kernel=lambda x, xp: (x - np.asarray(xp)) * 0 + x, kernel_range=0.3)
    assert not validate_potential(asym).passed  # W(x,x') = x is not symmetric


def test_free_particle_plane_waves():
    ps = propagating_multipliers(FREE, 1.0, GRID)
    assert ps.p == 2
    assert np.min(np.abs(ps.propagating - np.exp(1j))) < 1e-8
    assert np.min(np.abs(ps.propagating - np.exp(-1j))) < 1e-8


def test_free_particle_dispersion():
    for energy in np.linspace(0.1, 9.0, 12):
        ps = propagating_multipliers(FREE, energy, GRID)
        k = max(multiplier_phases_to_k(ps.propagating, 1.0))
        assert abs(k - np.sqrt(energy)) / np.sqrt(energy) < 1e-6


def test_kronig_penney_reference_limits():
    free_ref = kronig_penney_reference(0.0, 1.0, 2.0)
    assert free_ref["allowed"] and free_ref["k"] == pytest.approx(
        np.arccos(np.cos(np.sqrt(2.0))))
    low = kronig_penney_reference(3.0, 1.0, 1e-6)
    assert not low["allowed"]  # D -> 1 + P > 1 as E -> 0+
    with pytest.raises(ValueError):
        kronig_penney_reference(3.0, 1.0, -1.0)


def test_kp_gap_has_real_reciprocal_pair():
    pot, _ = kronig_penney()
    e_gap = 11.0  # inside first gap (band 1 tops out at pi^2)
    assert not kronig_penney_reference(3.0, 1.0, e_gap)["allowed"]
    ps = propagating_multipliers(pot, e_gap, PeriodicGrid(1.0, 128, 0.0))
    assert ps.p == 0
    mus = ps.all_multipliers
    real = mus[np.abs(mus.imag) < 1e-8].real
    assert len(real) == 2
    assert real[0] * real[1] == pytest.approx(1.0, abs=1e-6)  # mu, 1/mu


def test_kp_scan_agrees_with_oracle():
    pot, _ = kronig_penney()
    grid = PeriodicGrid(1.0, 96, 0.0)
    disagreements = 0
    for energy in np.linspace(0.2, 40.0, 80):
        ref = kronig_penney_reference(3.0, 1.0, energy)
        ps = propagating_multipliers(pot, energy, grid)
        assert ps.p in (0, 2)
        if (ps.p == 2) != ref["allowed"]:
            disagreements += 1
    assert disagreements <= 2  # only band-edge grazing may differ


def test_kp_band_edge_bisection():
    pot, _ = kronig_penney()
    grid = PeriodicGrid(1.0, 128, 0.0)
    exact = brentq(lambda e: kronig_penney_reference(3.0, 1.0, e)["discriminant"] - 1.0,
                   0.1, 5.0)

    def is_allowed(e):
        return propagating_multipliers(pot, e, grid).p == 2

    lo, hi = exact - 0.3, exact + 0.3
    assert not is_allowed(lo) and is_allowed(hi)
    for _ in range(35):
        mid = 0.5 * (lo + hi)
        lo, hi = (lo, mid) if is_allowed(mid) else (mid, hi)
    assert abs(0.5 * (lo + hi) - exact) < 1e-4


def test_collocation_matches_transfer_for_free():
    mus = bloch_multipliers_collocation(FREE, 1.0, 64)
    near = mus[np.abs(np.abs(mus) - 1.0) < 1e-3]
    assert np.min(np.abs(near - np.exp(1j))) < 1e-8


@pytest.mark.parametrize("n_nodes", [0, 1])
def test_collocation_rejects_fewer_than_two_nodes(n_nodes):
    pot, _ = separable_nonlocal()
    with pytest.raises(InvalidSystemError):
        cell_collocation_matrices(pot, 1.0, n_nodes)
    with pytest.raises(InvalidSystemError):
        fixed_k_energies(pot, 0.5, n_nodes)


def _reference_collocation(pot, energy, n):
    """Entry-by-entry assembly: node j + m is node (j + m) mod n of the cell
    floor((j + m) / n), whose block carries that power of mu (oracle for the
    block-row layout of cell_collocation_matrices)."""
    mats = {s: np.zeros((n, n)) for s in (-1, 0, 1)}
    h = pot.lattice_constant / n
    scale = 1.0 / (12.0 * h * h)
    m_max = int(np.floor(pot.kernel_range / h + 1e-12))
    offs = np.arange(-m_max, m_max + 1)
    w = np.full(len(offs), h)
    w[0] = w[-1] = h / 2.0
    for j in range(n):
        x = j * h
        entries = [(j + m, -c * scale)
                   for m, c in zip(range(-2, 3), (-1.0, 16.0, -30.0, 16.0, -1.0))]
        entries.append((j, pot.eval_local(x) - energy))
        if pot.kernel is not None:
            entries += zip(j + offs, w * pot.eval_kernel(x, x + offs * h))
        for idx, val in entries:
            s, col = divmod(int(idx), n)
            mats[s][j, col] += val
    return mats[-1], mats[0], mats[1]


def test_collocation_matches_entrywise_assembly():
    pots = (FREE, separable_nonlocal()[0], _nonlocal_crystal(-5.0),
            separable_nonlocal(gamma=-30.0, range_fraction=0.13)[0])
    for pot in pots:
        for n in (2, 9, 64):
            got = cell_collocation_matrices(pot, 2.5, n)
            for block, ref in zip(got, _reference_collocation(pot, 2.5, n)):
                assert np.array_equal(block, ref)


def test_collocation_rejects_wide_kernel():
    pot = NonlocalPotential1D(1.0, kernel=lambda x, xp: 0.0 * np.asarray(xp),
                              kernel_range=1.2)
    with pytest.raises(InvalidSystemError):
        cell_collocation_matrices(pot, 1.0, 32)


def test_fixed_k_free_bands():
    pot = NonlocalPotential1D(1.0, kernel=lambda x, xp: 0.0 * np.asarray(xp),
                              kernel_range=0.3)
    got = fixed_k_energies(pot, 1.0, 96, 3)
    exact = sorted((1.0 + 2 * np.pi * m) ** 2 for m in (-1, 0, 1))[:3]
    assert np.max(np.abs(got - exact) / np.abs(exact)) < 1e-4


def test_reciprocal_pairing_nonlocal():
    pot, _ = separable_nonlocal()
    ps = propagating_multipliers(pot, -8.0, GRID)
    mus = ps.all_multipliers
    for mu in mus:
        if 0.05 < abs(mu) < 20.0:
            partner = 1.0 / np.conj(mu)
            assert np.min(np.abs(mus - partner)) < 1e-6 * max(1.0, abs(partner))


def test_band_scan_records_and_invariants():
    pot, _ = separable_nonlocal()
    energies = np.linspace(-13.0, 4.0, 60)
    diagram = band_scan(pot, energies, GRID)
    assert len(diagram.records) == 60
    assert not any(r.failed for r in diagram.records)
    for rec in diagram.records:
        assert rec.p % 2 == 0
        ks = np.array(rec.k_values)
        for k in ks:
            if abs(k - np.pi) > 1e-9:  # zone-edge k has itself as partner
                assert np.min(np.abs(ks + k)) < 1e-6
    assert max(r.p for r in diagram.records) == 4


def test_band_scan_rejects_bad_grid():
    pot, _ = kronig_penney()
    with pytest.raises(ValueError):
        band_scan(pot, [2.0, 1.0], GRID)
    with pytest.raises(ValueError):
        band_scan(pot, [], GRID)


def test_band_scan_parallel_identical():
    pot, _ = kronig_penney()
    energies = np.linspace(0.5, 20.0, 24)
    a = band_scan(pot, energies, GRID, jobs=1)
    b = band_scan(pot, energies, GRID, jobs=4)
    for ra, rb in zip(a.records, b.records):
        assert ra == rb


def test_interior_extremum_nonlocal_only():
    pot, _ = separable_nonlocal()
    diagram = band_scan(pot, np.linspace(-13.5, 4.5, 110), GRID)
    extrema = detect_interior_extrema(diagram)
    assert len(extrema) >= 1
    star = extrema[0]
    assert 0.1 < star.k_star < np.pi - 0.1
    # independent oracle: exact branch energy for a difference kernel is
    # kappa^2 + gamma * profile_FT(kappa); minimise over the folded branch
    us = np.linspace(-0.9, 0.9, 4001)
    win = np.cos(np.pi * us / 1.8) ** 2

    def branch(k):
        kap = k - 2 * np.pi
        ft = np.trapezoid(win * np.cos(2 * np.pi * us) * np.cos(kap * us), us)
        return kap ** 2 - 80.0 * ft

    ks = np.linspace(0.01, np.pi - 0.01, 2000)
    vals = np.array([branch(k) for k in ks])
    k_min = ks[np.argmin(vals)]
    assert abs(star.k_star - k_min) < 0.1
    assert abs(star.energy_star - vals.min()) < 0.3


def test_no_extrema_for_local_potentials():
    grid = GRID
    cases = [
        (FREE, np.linspace(0.05, 45.0, 120)),
        (kronig_penney()[0], np.linspace(0.2, 45.0, 120)),
        (NonlocalPotential1D(1.0, local=lambda x: 5.0 * np.cos(2 * np.pi * x)),
         np.linspace(-4.0, 45.0, 120)),
    ]
    for pot, energies in cases:
        diagram = band_scan(pot, energies, grid)
        assert detect_interior_extrema(diagram) == []
        assert all(r.p in (0, 2) for r in diagram.succeeded)


def _nonlocal_crystal(gamma):
    # local 5 cos(2 pi x) plus the separable kernel: unlike the pure difference
    # kernel this is not translation invariant, so its Bloch modes are not
    # plane waves
    base, _ = separable_nonlocal(gamma=gamma)
    return NonlocalPotential1D(1.0, local=lambda x: 5.0 * np.cos(2 * np.pi * x),
                               kernel=base.kernel, kernel_range=base.kernel_range)


def _plane_wave_energies(gamma, amplitude, k, n_waves=41, r=0.9):
    """Central equation of V = amplitude cos(2 pi x) plus the separable kernel
    gamma cos(2 pi u) cos^2(pi u / 2r) on a = 1: the kernel is diagonal in
    plane waves with transform W(q), V couples G and G +- 1."""
    window = lambda u: np.cos(2 * np.pi * u) * np.cos(np.pi * u / (2 * r)) ** 2
    q = k + 2 * np.pi * (np.arange(n_waves) - n_waves // 2)
    w_hat = [gamma * quad(window, -r, r, weight="cos", wvar=qi,
                          epsabs=1e-13, epsrel=1e-13, limit=200)[0] for qi in q]
    couple = np.full(n_waves - 1, amplitude / 2.0)
    return np.linalg.eigvalsh(np.diag(q ** 2 + w_hat) + np.diag(couple, 1) + np.diag(couple, -1))


@pytest.mark.filterwarnings("error::scipy.integrate.IntegrationWarning")
def test_fixed_k_energies_match_plane_waves():
    # amplitude 0 is the pure kernel, whose bands are the closed form
    # E = (k + 2 pi G)^2 + W(k + 2 pi G); 41 plane waves are within 6e-11 of 81
    cases = ((_nonlocal_crystal(-5.0), -5.0, 5.0), (separable_nonlocal()[0], -80.0, 0.0))
    for pot, gamma, amplitude in cases:
        ref = {k: _plane_wave_energies(gamma, amplitude, k)[:4] for k in (0.0, 0.7, 2.0, np.pi)}
        worst = {n: max(np.max(np.abs(fixed_k_energies(pot, k, n, 4) - e)) for k, e in ref.items())
                 for n in (64, 128)}
        assert worst[64] < 5e-3 and worst[128] < 3e-4, worst
        assert np.log2(worst[64] / worst[128]) > 3.7, worst


def test_crystal_quasimomentum_at_plane_wave_energy():
    energy = _plane_wave_energies(-5.0, 5.0, 0.7)[1]
    ps = propagating_multipliers(_nonlocal_crystal(-5.0), energy, GRID)
    ks = multiplier_phases_to_k(ps.propagating, 1.0)
    assert np.min(np.abs(ks - 0.7)) < 1e-5


def test_local_cell_monodromy_det_one():
    pot, _ = kronig_penney()
    u = local_cell_monodromy(pot, 5.0, 128)
    assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-10)  # Wronskian
