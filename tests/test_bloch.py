import dataclasses
import functools
import multiprocessing
import os

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from gfloquet import (
    BandDiagram, BandRecord, InvalidSystemError, NonlocalPotential1D, PeriodicGrid, band_scan,
    bloch_multipliers_collocation, cell_collocation_matrices,
    detect_interior_extrema, local_cell_monodromy,
    multiplier_phases_to_k, propagating_multipliers, validate_potential,
)
from gfloquet import bloch
from gfloquet.bloch import (_UNRESOLVED_MAGNITUDE, _confirmed_set, _finite_multipliers,
                            _trimmed_pencil)
from gfloquet.system import array_form
from gfloquet.builtins import kronig_penney, separable_nonlocal

from bloch_oracles import (companion_multipliers, fixed_k_energies, kernel_entries,
                           kronig_penney_reference, per_node_collocation)

FREE = NonlocalPotential1D(1.0)
GRID = PeriodicGrid(1.0, 64, 0.0)


def test_potential_validation():
    pot, _ = separable_nonlocal()
    rep = validate_potential(pot)
    assert rep.passed
    asym = NonlocalPotential1D(
        1.0, kernel=lambda x, xp: (x - np.asarray(xp)) * 0 + x, kernel_range=0.3)
    assert not validate_potential(asym).passed  # W(x,x') = x is not symmetric


@pytest.mark.parametrize("kernel_range", [0.3, 0.37, 0.45, 0.7, 0.9])
def test_validation_reads_the_kernel_at_its_range(kernel_range):
    # the probes reach x' = x +- r_W; W is read there as it is, so a constant kernel
    # is bi-periodic at every range, and a symmetric x + x' is still not
    const = NonlocalPotential1D(1.0, kernel=lambda x, xp: np.ones_like(xp),
                                kernel_range=kernel_range)
    rep = validate_potential(const)
    assert rep.passed and rep.kernel_residual == 0.0
    drift = NonlocalPotential1D(1.0, kernel=lambda x, xp: x + xp, kernel_range=kernel_range)
    rep = validate_potential(drift)
    assert not rep.passed and rep.kernel_residual > 1.0


@pytest.mark.parametrize("n", [9, 64])
@pytest.mark.parametrize("kernel_range", [0.01, 0.3, 0.37, 0.9])
def test_constant_kernel_rows_integrate_the_whole_window(kernel_range, n):
    # W = c integrates to 2 c r_W over [x - r_W, x + r_W], a range narrower than one
    # step included. c = 2^20 scales the weights exactly and dwarfs the derivative
    # stencil's entries (up to 30 / (12 h^2) = 1.0e4 at n = 64), so subtracting the
    # kernel-free blocks leaves the kernel part to within a few ulps
    c = 2.0 ** 20
    pot = NonlocalPotential1D(1.0, kernel=lambda x, xp: np.full(np.shape(xp), c),
                              kernel_range=kernel_range)
    local = dataclasses.replace(pot, kernel=None, kernel_range=0.0)
    part = sum(cell_collocation_matrices(pot, 0.0, n)) - sum(cell_collocation_matrices(local, 0.0, n))
    want = 2.0 * c * kernel_range
    assert np.max(np.abs(part.sum(axis=1) - want)) <= 1e-13 * want


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
    for j in range(n):
        x = j * h
        entries = [(j + m, -c * scale)
                   for m, c in zip(range(-2, 3), (-1.0, 16.0, -30.0, 16.0, -1.0))]
        entries.append((j, pot.eval_local(x) - energy))
        if pot.kernel is not None:
            entries += kernel_entries(pot, n, j)
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


@pytest.mark.parametrize("n", [2, 9, 64, 128])
def test_one_kernel_call_assembly_equals_per_node_oracle(n):
    calls = []
    narrow, _ = separable_nonlocal(gamma=-30.0, range_fraction=0.3)

    def kernel(x, xp):
        calls.append((np.shape(x), np.shape(xp)))
        return narrow.kernel(x, xp)

    for pot in (separable_nonlocal()[0], _nonlocal_crystal(-5.0),
                NonlocalPotential1D(1.0, kernel=kernel, kernel_range=narrow.kernel_range)):
        got = cell_collocation_matrices(pot, -3.5, n)
        for block, ref in zip(got, per_node_collocation(pot, -3.5, n)):
            assert np.array_equal(block, ref)
    # node 0, the ceil(0.3 n) - 1 aligned nodes strictly within r_W on each side and
    # the two endpoints x +- r_W
    pairs = n * (2 * int(np.ceil(0.3 * n)) + 1)
    assert calls[0] == ((pairs,), (pairs,))  # the one assembly call, over every (x, x') pair


def test_rebuilt_potential_keeps_one_declaration_wrapper():
    pot, _ = separable_nonlocal()
    for _ in range(3):
        pot = dataclasses.replace(pot, kernel_range=pot.kernel_range)
    assert pot.kernel.array_form and not hasattr(pot.kernel.__wrapped__, "__wrapped__")


def test_wrong_shaped_kernel_is_named():
    pot = NonlocalPotential1D(1.0, kernel=lambda x, xp: np.zeros(3), kernel_range=0.3)
    with pytest.raises(InvalidSystemError, match=r"^W over \d+ points has shape \(3,\)"):
        cell_collocation_matrices(pot, 1.0, 16)
    with pytest.raises(InvalidSystemError, match=r"^W over"):
        validate_potential(pot)


@pytest.mark.parametrize("n", [64, 128])
def test_trimmed_pencil_keeps_the_resolved_spectrum(n):
    pot, _ = separable_nonlocal()
    for energy in (-12.0, -3.0, 2.5):
        blocks = cell_collocation_matrices(pot, energy, n)
        cols = np.flatnonzero(np.any(blocks[2] != 0.0, axis=0))
        # the kernel reaches past the cell edge up to the endpoint x + r_W's cubic
        # stencil, two nodes past floor(r_W / h). W vanishes at r_W, so the last two
        # columns hold its rounding noise only, which the trimmed pencil leaves out
        assert cols.size == int(0.9 * n) + 2
        assert 0.0 < np.abs(blocks[2][:, cols[-2:]]).max() < 1e-30
        lhs, rhs = _trimmed_pencil(*blocks)
        assert lhs.shape == rhs.shape == (n + cols.size - 2, n + cols.size - 2)
        full = companion_multipliers(pot, energy, n)
        trimmed = _finite_multipliers(lhs, rhs)
        for ours, theirs in ((full, trimmed), (trimmed, full)):
            for mu in ours[np.abs(ours) <= 1e3]:
                assert np.min(np.abs(theirs - mu)) <= 1e-8 * max(1.0, abs(mu))


def test_unresolved_multiplier_is_never_confirmed():
    # 1e9 lies within 0.5% of a fine multiplier, but beyond eps^(-1/2) both
    # grids only round, so the match confirms nothing; nor does it for its
    # partner 1e-9 below eps^(1/2), though within 10 unit_tol in absolute terms
    for coarse, fine in (([1e9, 1.0], [1.005e9, 1.0]), ([1e-9, 1.0], [1.005e-9, 1.0])):
        ps = _confirmed_set(0.0, coarse, fine, 1e-3)
        assert ps.all_multipliers.tolist() == [1.0]


@pytest.mark.parametrize("coarse, fine, unit_tol, kept", [
    # |mu| of exactly _UNRESOLVED_MAGNITUDE is kept, the next float above it is not
    ([_UNRESOLVED_MAGNITUDE, np.nextafter(_UNRESOLVED_MAGNITUDE, np.inf), 2.0],
     [_UNRESOLVED_MAGNITUDE, np.nextafter(_UNRESOLVED_MAGNITUDE, np.inf), 2.0], 1e-3,
     [_UNRESOLVED_MAGNITUDE, 2.0]),
    # |mu| of exactly 1 / _UNRESOLVED_MAGNITUDE is kept, the next float below it is not
    ([1.0 / _UNRESOLVED_MAGNITUDE, np.nextafter(1.0 / _UNRESOLVED_MAGNITUDE, 0.0), 2.0],
     [1.0 / _UNRESOLVED_MAGNITUDE, np.nextafter(1.0 / _UNRESOLVED_MAGNITUDE, 0.0), 2.0], 1e-3,
     [1.0 / _UNRESOLVED_MAGNITUDE, 2.0]),
    # a distance of exactly 10 unit_tol max(1, |mu|) is kept, one ulp more is not
    ([1.0, 4.0], [1.0 + 10 * 2.0 ** -10, np.nextafter(4.0 + 40 * 2.0 ** -10, np.inf)],
     2.0 ** -10, [1.0]),
    ([], [1.0, 2.0], 1e-3, []),
], ids=["magnitude", "small_magnitude", "distance", "empty"])
def test_confirmed_set_bounds_are_inclusive(coarse, fine, unit_tol, kept):
    ps = _confirmed_set(0.0, coarse, fine, unit_tol)
    assert ps.all_multipliers.tolist() == kept


# bands_nonlocal seeds 11 (energy 0) and 13 (energy 21): with one BLAS thread
# the trimmed pencil put a rounding pair near |mu| = 1e9 within the two-grid
# threshold of the coarse one, where the full pencil did not
@pytest.mark.parametrize("gamma, energy", [
    (-79.04765037396754, -13.169584515603795),
    (-79.30713603867295, 2.94721573469719),
])
def test_trimmed_confirmation_matches_the_full_pencil(gamma, energy):
    pot, _ = separable_nonlocal(gamma=gamma)
    got = propagating_multipliers(pot, energy, GRID).all_multipliers
    want = _confirmed_set(energy, bloch_multipliers_collocation(pot, energy, 64),
                          companion_multipliers(pot, energy, 128), 1e-3).all_multipliers
    assert got.tobytes() == want.tobytes()


def test_collocation_rejects_wide_kernel():
    # no solve takes r_W >= a, so the potential itself refuses it
    with pytest.raises(InvalidSystemError):
        NonlocalPotential1D(1.0, kernel=lambda x, xp: 0.0 * np.asarray(xp), kernel_range=1.2)


def test_kernel_with_delta_comb_is_refused():
    # collocation refuses the comb and the transfer matrix the kernel
    with pytest.raises(InvalidSystemError, match="delta comb"):
        NonlocalPotential1D(1.0, kernel=lambda x, xp: 0.0 * np.asarray(xp), kernel_range=0.3,
                            deltas=((0.0, 1.0),))


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
def test_kernel_symbol_error_of_the_window_rule():
    # a plane wave e^{ikx} is an exact mode of the difference kernel's term, which
    # multiplies it by the rule's symbol sum_m w_m W(u_m) e^{iku_m}; against the
    # transform W(k) the window with the exact endpoint errs by at most 4.8e-4 and
    # 9.1e-5 at n = 32 and 64 (the window cut at floor(r_W / h) h: 3.2e-3, 2.5e-4)
    pot, _ = separable_nonlocal()
    local = dataclasses.replace(pot, kernel=None, kernel_range=0.0)
    window = lambda u: -80.0 * np.cos(2 * np.pi * u) * np.cos(np.pi * u / 1.8) ** 2
    ks = np.linspace(0.1, 3 * np.pi, 60)
    w_hat = [quad(window, -0.9, 0.9, weight="cos", wvar=k, epsabs=1e-11, limit=200)[0]
             for k in ks]
    for n, bound in ((32, 6e-4), (64, 1.2e-4)):
        part = [a - b for a, b in zip(cell_collocation_matrices(pot, 0.0, n),
                                      cell_collocation_matrices(local, 0.0, n))]
        x = np.arange(n) / n
        worst = 0.0
        for k, want in zip(ks, w_hat):
            mu, psi = np.exp(1j * k), np.exp(1j * k * x)
            got = (part[0] / mu + part[1] + mu * part[2]) @ psi / psi
            worst = max(worst, float(np.max(np.abs(got - want))))
        assert worst < bound, (n, worst)


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
    (u,) = local_cell_monodromy(pot, np.array([5.0]), 128)
    assert np.linalg.det(u) == pytest.approx(1.0, abs=1e-10)  # Wronskian


@pytest.mark.parametrize("energy", [2.0, 7.5, 30.0])
def test_local_cell_monodromy_order_is_four(energy):
    # the half-trace of the transfer matrix is the Kronig-Penney discriminant
    pot, _ = kronig_penney()
    exact = kronig_penney_reference(3.0, 1.0, energy)["discriminant"]
    errs = np.array([abs(0.5 * np.trace(local_cell_monodromy(pot, np.array([energy]), n)[0])
                         - exact) for n in (32, 64, 128)])
    assert np.all(np.log2(errs[:-1] / errs[1:]) > 3.7)


LOCAL_POTENTIALS = {
    "kronig_penney": kronig_penney()[0],
    "cosine": NonlocalPotential1D(1.0, local=lambda x: 5.0 * np.cos(2 * np.pi * x)),
    "cosine_and_deltas": NonlocalPotential1D(
        1.3, local=lambda x: 5.0 * np.cos(2 * np.pi * x / 1.3),
        deltas=((0.2, 1.5), (0.9, -0.7))),
}


@pytest.mark.parametrize("name", sorted(LOCAL_POTENTIALS))
@pytest.mark.parametrize("n_steps", [17, 64, 128])
def test_local_cell_monodromy_stack_equals_scalar_calls(name, n_steps):
    pot = LOCAL_POTENTIALS[name]
    energies = np.linspace(-4.0, 45.0, 17)
    stack = local_cell_monodromy(pot, energies, n_steps)
    assert stack.shape == (17, 2, 2)
    single = [local_cell_monodromy(pot, energies[i:i + 1], n_steps) for i in range(17)]
    assert all(u.shape == (1, 2, 2) for u in single)
    assert np.array_equal(stack, np.concatenate(single))


@pytest.mark.parametrize("energy", [5.0, [[5.0]]])
def test_local_cell_monodromy_takes_only_a_1d_array(energy):
    with pytest.raises(ValueError, match="1-d array"):
        local_cell_monodromy(kronig_penney()[0], energy, 16)


@pytest.mark.parametrize("name", sorted(LOCAL_POTENTIALS) + ["nonlocal_crystal"])
def test_band_scan_matches_per_energy_path(name):
    # the scan gives, bitwise, the records of one propagating_multipliers call
    # per energy: the swept transfer matrices of a local potential, and a
    # kernel's trimmed pencil on each grid
    pot, grid, count = ((_nonlocal_crystal(-5.0), PeriodicGrid(1.0, 32, 0.0), 4)
                        if name == "nonlocal_crystal" else (LOCAL_POTENTIALS[name], GRID, 15))
    energies = np.linspace(-3.0, 30.0, count)
    diagram = band_scan(pot, energies, grid)
    for rec, energy in zip(diagram.records, energies):
        ps = propagating_multipliers(pot, energy, grid)
        assert not rec.failed and rec.p == ps.p
        assert rec.k_values == tuple(sorted(multiplier_phases_to_k(ps.propagating,
                                                                   pot.lattice_constant)))
        assert rec.multiplier_magnitudes == tuple(
            np.sort(np.abs(ps.all_multipliers))[::-1][:12])


def test_local_band_scan_isolates_non_finite_energy():
    pot = LOCAL_POTENTIALS["cosine"]
    with np.errstate(over="ignore", invalid="ignore"):
        diagram = band_scan(pot, [-2e6, -1e5, 2.0, 7.5], GRID)
    assert [r.failed for r in diagram.records] == [True, False, False, False]
    assert "Array must not contain infs or NaNs" in diagram.records[0].message


def test_local_band_scan_callback_failure_fails_every_record():
    def boom(x):
        raise RuntimeError("boom")

    diagram = band_scan(NonlocalPotential1D(1.0, local=boom), [1.0, 2.0, 3.0], GRID)
    assert all(r.failed and r.message == "boom" for r in diagram.records)
    assert len(diagram.records) == 3


def test_pooled_band_scan_is_bitwise_the_serial_scan(monkeypatch, tmp_path):
    # with 2 CPUs a kernel's energies are solved in forked workers, with 1 in
    # the process itself; the records are the same bits, a failed energy's
    # message included, and no worker outlives the scan
    pot, grid = _nonlocal_crystal(-5.0), PeriodicGrid(1.0, 32, 0.0)
    energies = np.linspace(-3.0, 30.0, 4)
    collocation = bloch._collocation
    pids = tmp_path / "pids"

    def logged(pot, n_nodes, fail_at):  # each energy's assembly logs where it ran
        blocks = collocation(pot, n_nodes)

        def at(energy):
            with open(pids, "a") as fh:
                fh.write(f"{os.getpid()}\n")
            if energy == fail_at and n_nodes == 2 * grid.samples_per_period:
                raise np.linalg.LinAlgError(f"no fine solve at E = {energy}")
            return blocks(energy)
        return at

    def scan(cpus, fail_at):
        monkeypatch.setattr(bloch, "_available_cpus", lambda: cpus)
        monkeypatch.setattr(bloch, "_collocation", functools.partial(logged, fail_at=fail_at))
        pids.write_text("")
        diagram = band_scan(pot, energies, grid)
        assert multiprocessing.active_children() == []
        solved_in = {int(pid) for pid in pids.read_text().split()}
        assert (solved_in == {os.getpid()}) == (cpus == 1), solved_in
        return diagram.records

    for fail_at in (None, energies[1]):
        pooled, serial = scan(2, fail_at), scan(1, fail_at)
        assert [repr(r) for r in pooled] == [repr(r) for r in serial]
        assert [r.failed for r in pooled] == [e == fail_at for e in energies]
    assert pooled[1].message == f"no fine solve at E = {energies[1]}"


@pytest.mark.parametrize("cpus", [2, 1])
def test_nonlocal_band_scan_evaluates_w_once_per_grid(monkeypatch, cpus):
    # W does not depend on the energy: the scan evaluates it once on the N- and
    # once on the 2N-node grid, before it forks (so every call is seen here),
    # and its records are bitwise those of a scan that assembles each energy's
    # cell operators through cell_collocation_matrices
    base, grid = _nonlocal_crystal(-5.0), PeriodicGrid(1.0, 32, 0.0)
    calls = []

    @array_form
    def kernel(x, xp):
        calls.append(len(x))
        return base.kernel(x, xp)

    energies = np.linspace(-3.0, 30.0, 4)
    monkeypatch.setattr(bloch, "_available_cpus", lambda: cpus)
    diagram = band_scan(dataclasses.replace(base, kernel=kernel), energies, grid)
    assert len(calls) == 2
    n = grid.samples_per_period
    for rec, energy in zip(diagram.records, energies):
        blocks = cell_collocation_matrices(base, energy, 2 * n)
        ps = _confirmed_set(energy, bloch_multipliers_collocation(base, energy, n),
                            _finite_multipliers(*_trimmed_pencil(*blocks)), 1e-3)
        assert not rec.failed and rec.p == ps.p
        assert rec.k_values == tuple(sorted(float(k) for k in multiplier_phases_to_k(
            ps.propagating, base.lattice_constant)))
        assert rec.multiplier_magnitudes == tuple(np.sort(np.abs(ps.all_multipliers))[::-1][:12])


def test_band_maximum_from_two_sheets_dying_together():
    # two sheets born at E = 0 about k = 1.1 (a minimum), drawn together at
    # E = 0.5 and gone at E = 1 (a maximum at the last energy they were seen)
    records = (BandRecord(0.0, (1.0, 1.2), 2, ()), BandRecord(0.5, (1.05, 1.15), 2, ()),
               BandRecord(1.0, (), 0, ()))
    found = detect_interior_extrema(BandDiagram(1.0, records))
    assert [(e.band_index, e.energy_star) for e in found] == [(0, 0.0), (0, 0.5)]
    assert all(e.k_star == pytest.approx(1.1, abs=1e-12) for e in found)
