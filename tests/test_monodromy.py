import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg

from gfloquet import (
    ConvergenceError, DelayTap, LinearMemorySystem, NonTruncatableError,
    PeriodicGrid, ResolutionError, StateSegment, build_monodromy, difference_kernel,
    extract_mode, floquet_spectrum, principal_exponents, sort_multipliers,
    step_integrate, truncate_infinite_kernel, verify_floquet_form,
)
from gfloquet import monodromy
from gfloquet.integrate import propagate_history
from gfloquet.builtins import delay_pi_over_2, exp_kernel, scalar_cosine


def _grid_for(meta, n, quadrature="trapezoid"):
    return PeriodicGrid(meta["period"], n, meta["memory_depth"], quadrature)


def test_monodromy_scalar_cosine():
    system, meta = scalar_cosine(alpha=0.3, beta=1.0)
    op = build_monodromy(system, _grid_for(meta, 128))
    assert op.matrix.shape == (1, 1)
    assert abs(op.matrix[0, 0] - np.exp(0.3)) < 1e-8


def test_monodromy_matches_matrix_exponential():
    rng = np.random.default_rng(3)
    a = rng.standard_normal((4, 4))
    a -= (np.max(np.real(np.linalg.eigvals(a))) + 0.5) * np.eye(4)  # stable
    system = LinearMemorySystem(4, lambda s: a)
    op = build_monodromy(system, PeriodicGrid(1.0, 256, 0.0))
    oracle = scipy.linalg.expm(a)  # independent scaling-and-squaring
    assert np.linalg.norm(op.matrix - oracle) < 1e-8


def test_monodromy_zero_system_is_freeze_and_shift():
    system = LinearMemorySystem(1, lambda s: np.array([[0.0]]))
    grid = PeriodicGrid(1.0, 16, 0.25)
    op = build_monodromy(system, grid)
    nh = grid.history_points
    # z' = 0: every final history node equals the initial value at node 0
    for j in range(nh + 1):
        expected = np.zeros(nh + 1)
        expected[:] = 1.0 if j == nh else 0.0
        assert np.allclose(op.matrix[:, j], expected if j == nh else 0.0)


def test_spectrum_scalar_cosine():
    system, meta = scalar_cosine()
    dec = floquet_spectrum(system, _grid_for(meta, 128), modes=2)
    assert dec.p_retained == 1
    assert abs(dec.retained[0] - np.exp(0.3)) < 1e-6
    # a real spectrum still comes back complex, as do the modes built from it
    assert dec.multipliers.dtype == np.complex128
    assert [m.samples.dtype for m in dec.modes] == [np.complex128]


def test_spectrum_constant_diagonal():
    a = np.diag([-1.0, -2.0])
    system = LinearMemorySystem(2, lambda s: a)
    dec = floquet_spectrum(system, PeriodicGrid(1.0, 128, 0.0), modes=2)
    got = np.sort(np.abs(dec.retained))[::-1]
    assert np.max(np.abs(got - [np.exp(-1.0), np.exp(-2.0)])) < 1e-8


def test_spectrum_delay_dominant_pair():
    system, meta = delay_pi_over_2()
    dec = floquet_spectrum(system, _grid_for(meta, 256), modes=4)
    top = dec.multipliers[:2]
    assert dec.converged[:2].all()
    assert np.min(np.abs(top - 1j)) < 1e-3
    assert np.min(np.abs(top + 1j)) < 1e-3


def test_spectrum_flags_spurious_cluster():
    system, meta = delay_pi_over_2()
    dec = floquet_spectrum(system, _grid_for(meta, 128), modes=4)
    # discretization fills the spectrum with eigenvalues near 0; they must not
    # all be flagged converged
    assert dec.p_retained < len(dec.multipliers)


def test_spectrum_no_convergence_raises():
    # two grids that disagree everywhere: random-ish stiff delay underresolved
    tap = DelayTap(1.0, lambda s: np.array([[-40.0 * np.sin(2 * np.pi * s) - 45.0]]))
    system = LinearMemorySystem(1, lambda s: np.array([[0.0]]), delay_taps=(tap,))
    with pytest.raises(ConvergenceError):
        floquet_spectrum(system, PeriodicGrid(1.0, 8, 1.0), modes=2,
                         convergence_tol=1e-12)


def test_spectrum_names_the_requested_step_for_an_unresolved_delay():
    # a delay below half the step is resolved by neither grid; the requested
    # grid is built first, so the error names the step to refine
    grid = PeriodicGrid(1.0, 8, 1.0)
    with pytest.raises(ResolutionError, match=f"not resolved by step {grid.step};"):
        floquet_spectrum(_tap_system(0.05), grid, modes=2)


def test_sorting_total_order():
    mus = np.array([1.0, -1.0, 1j, -1j, 0.5, 2.0, 1j])
    order = sort_multipliers(mus)
    s = mus[order]
    mags = np.abs(s)
    assert np.all(np.diff(mags) <= 1e-12)
    for i in range(len(s) - 1):
        if abs(mags[i] - mags[i + 1]) < 1e-12:
            assert np.angle(s[i]) <= np.angle(s[i + 1]) + 1e-12


def test_principal_exponents_branch():
    mus = np.array([np.exp(0.3), -1.0, 1j * 0.5])
    lam = principal_exponents(mus, 2.0)
    assert np.all(lam.imag > -np.pi / 2.0 - 1e-12)
    assert np.all(lam.imag <= np.pi / 2.0 + 1e-12)
    assert np.max(np.abs(np.exp(lam * 2.0) - mus)) < 1e-12


def test_extract_mode_constant_matrix():
    a = np.array([[-1.0, 1.0], [0.0, -2.0]])
    system = LinearMemorySystem(2, lambda s: a)
    grid = PeriodicGrid(1.0, 128, 0.0)
    dec = floquet_spectrum(system, grid, modes=2)
    mode = dec.modes[0]
    # eigenmode of a constant matrix: r(sigma) is constant
    spread = np.max(np.abs(mode.samples - mode.samples[0]), axis=0)
    assert np.max(spread) < 1e-7
    assert mode.periodicity_residual < 1e-8


def test_extract_mode_scalar_cosine_shape():
    system, meta = scalar_cosine()
    grid = _grid_for(meta, 256)
    dec = floquet_spectrum(system, grid, modes=1)
    mode = dec.modes[0]
    sig = np.arange(grid.samples_per_period + 1) * grid.step
    shape = np.exp(np.sin(2 * np.pi * sig) / (2 * np.pi))
    shape = shape / np.max(np.abs(shape))
    got = np.abs(mode.samples[:, 0]) / np.max(np.abs(mode.samples[:, 0]))
    assert np.max(np.abs(got - shape)) < 1e-6
    assert mode.periodicity_residual <= 1e-6


def test_mode_normalization_deterministic():
    system, meta = delay_pi_over_2()
    grid = _grid_for(meta, 96)
    dec = floquet_spectrum(system, grid, modes=2)
    for mode in dec.modes:
        mags = np.abs(mode.samples)
        assert np.max(mags) == pytest.approx(1.0)
        flat = mode.samples.reshape(-1)
        lead = flat[np.argmax(np.abs(flat) > 1.0 - 1e-12)]
        idx = np.where(np.abs(flat) >= np.max(np.abs(flat)) - 1e-12)[0][0]
        lead = flat[idx]
        assert lead.real > 0 and abs(lead.imag) < 1e-9


def test_verify_constant_matrix_residuals():
    a = np.array([[-0.3, 0.2], [-0.2, -0.4]])
    system = LinearMemorySystem(2, lambda s: a)
    grid = PeriodicGrid(1.0, 128, 0.0)
    dec = floquet_spectrum(system, grid, modes=2)
    rep = verify_floquet_form(system, dec)
    assert rep.shift_residual < 1e-8
    assert rep.max_residual < 1e-6


def test_verify_delay_residuals():
    system, meta = delay_pi_over_2()
    grid = _grid_for(meta, 256)
    dec = floquet_spectrum(system, grid, modes=2)
    rep = verify_floquet_form(system, dec)
    assert rep.shift_residual <= 1e-3
    assert max(rep.mode_periodicity_residuals) <= 1e-3
    assert max(rep.operator_residuals) <= 1e-3


def test_verify_simpson_job_uses_simpson_operator_residual():
    # a trapezoid window in the check would read its own O(h^2) error, 5.5e-4 here
    system, meta = exp_kernel(a=2.0, b=-9.0, theta=0.3, depth=7.2)
    grid = _grid_for(meta, 64, "simpson")
    dec = floquet_spectrum(system, grid, modes=2)
    rep = verify_floquet_form(system, dec)
    assert len(rep.operator_residuals) >= 1
    assert max(rep.operator_residuals) < 1e-6


def test_verify_refuses_a_decomposition_without_operator():
    # verify continues the kept operator's propagation and builds none itself
    from dataclasses import replace

    system, meta = scalar_cosine()
    dec = floquet_spectrum(system, _grid_for(meta, 64), modes=1)
    with pytest.raises(ValueError, match="no monodromy operator"):
        verify_floquet_form(system, replace(dec, operator=None))


def test_verify_corrupted_mode_negative_control():
    from dataclasses import replace

    system, meta = scalar_cosine()
    grid = _grid_for(meta, 128)
    dec = floquet_spectrum(system, grid, modes=1)
    sig = np.arange(grid.samples_per_period + 1) * grid.step
    bad_mode = replace(dec.modes[0], samples=dec.modes[0].samples * np.exp(sig)[:, None])
    bad = replace(dec, modes=(bad_mode,))
    rep = verify_floquet_form(system, bad)
    assert max(rep.operator_residuals) > 1e-1


def test_two_period_semigroup():
    system, meta = delay_pi_over_2()
    grid = _grid_for(meta, 64)
    op = build_monodromy(system, grid)
    rng = np.random.default_rng(11)
    h0 = rng.standard_normal(grid.state_size(1))
    seg = StateSegment(grid, h0.reshape(-1, 1))
    nh = grid.history_points
    # history segment on [2*Sigma - r, 2*Sigma] vs U^2 applied to h0
    got = step_integrate(system, grid, seg, 2.0 * grid.period).values[-(nh + 1):, 0]
    want = op.matrix @ (op.matrix @ h0)
    # single-period error estimated against a refined grid
    from gfloquet.grid import interp_uniform

    g2 = grid.refined()
    h0f = interp_uniform(h0.reshape(-1, 1), -grid.memory_depth, grid.step,
                         np.linspace(-g2.memory_depth, 0.0, g2.history_points + 1))
    fine = step_integrate(system, g2, StateSegment(g2, h0f),
                          grid.period).values[-(g2.history_points + 1)::2, 0]
    single_err = np.linalg.norm(op.matrix @ h0 - fine)
    assert np.linalg.norm(got - want) <= 10 * single_err


def test_conjugate_symmetry():
    system, meta = delay_pi_over_2()
    dec = floquet_spectrum(system, _grid_for(meta, 96), modes=4)
    for mu in dec.retained:
        if abs(mu.imag) > 1e-10:
            assert np.min(np.abs(dec.retained - np.conj(mu))) < 1e-10


def test_refinement_order_smooth():
    system, meta = scalar_cosine(alpha=0.1, beta=0.7)
    exact = np.exp(0.1)
    errs = []
    for n in (16, 32):
        op = build_monodromy(system, _grid_for(meta, n))
        errs.append(abs(op.matrix[0, 0] - exact))
    assert np.log2(errs[0] / errs[1]) > 1.9


def _kernel_system(kernel):
    return LinearMemorySystem(1, lambda s: 0.0, kernel=kernel)


def test_truncate_exponential_kernel():
    grid = PeriodicGrid(1.0, 64, 1.0)
    kernel = difference_kernel(lambda u: np.exp(-np.asarray(u)))
    r = truncate_infinite_kernel(_kernel_system(kernel), 1.0, 1e-8, grid)
    exact = np.log(1.0 / 1e-8)  # theta ln(theta/eps), theta = 1
    assert exact <= r <= exact + 2 * grid.step + 1e-9


def test_truncate_trivial_when_eps_large():
    grid = PeriodicGrid(1.0, 64, 1.0)
    kernel = difference_kernel(lambda u: np.exp(-np.asarray(u)))
    assert truncate_infinite_kernel(_kernel_system(kernel), 1.0, 10.0, grid) == 0.0


def test_truncate_needs_a_kernel():
    with pytest.raises(ValueError, match="no kernel"):
        truncate_infinite_kernel(_kernel_system(None), 1.0, 1e-8, PeriodicGrid(1.0, 64, 1.0))


@pytest.mark.parametrize("amplitude, eps", [(-1.0, 1e-8), (np.inf, 1e-8), (np.nan, 1e-8),
                                            (1.0, np.nan), (1.0, np.inf), (1.0, 0.0)])
def test_truncate_refuses_a_bad_amplitude_or_eps(amplitude, eps):
    system, _ = exp_kernel()
    name = "eps" if amplitude == 1.0 else "reference_amplitude"
    with pytest.raises(ValueError, match=rf"^{name} must be"):
        truncate_infinite_kernel(system, amplitude, eps, PeriodicGrid(1.0, 64, 1.0))


def test_truncate_harmonic_tail_raises():
    grid = PeriodicGrid(1.0, 64, 1.0)
    kernel = difference_kernel(lambda u: 1.0 / (np.asarray(u) + 1.0))
    with pytest.raises(NonTruncatableError):
        truncate_infinite_kernel(_kernel_system(kernel), 1.0, 1e-8, grid)


def test_eig_leading_dense_fallback_on_partial_arpack(monkeypatch):
    rng = np.random.default_rng(11)
    # an operator over N = 8 steps with nh + 1 = 40 history rows: its row at
    # time 0 and 8 computed rows
    op = monodromy.MonodromyOperator(rng.standard_normal((9, 1, 40)), PeriodicGrid(1.0, 8, 39 / 8))

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence(
            "ARPACK error -1: No convergence", np.array([3.0, 2.0]), np.zeros((40, 2)))

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", no_convergence)
    mus = monodromy._eig_leading(op, k=8)
    assert len(mus) == 40
    np.testing.assert_allclose(np.sort_complex(mus),
                               np.sort_complex(scipy.linalg.eigvals(op.matrix)))


@pytest.mark.parametrize("n, rows", [(1, 32), (1, 21), (1, 5), (2, 13)],
                         ids=["m_multiple_of_s", "m_not_multiple_of_s", "s_equals_m", "n2"])
def test_shift_structured_eigenvector_matches_dense(n, rows):
    # a random operator over N = 8 steps with `rows` history rows: s = 8n rows
    # computed, the rest shifted (none when s = m); its spectrum straddles 1
    grid = PeriodicGrid(1.0, 8, (rows - 1) / 8)
    rng = np.random.default_rng(rows * n)
    op = monodromy.MonodromyOperator(0.5 * rng.standard_normal((9, n, n * rows)), grid)
    mat = op.matrix
    mus, vecs = np.linalg.eig(mat)
    assert np.abs(mus).min() < 1.0 < np.abs(mus).max()
    norm = np.linalg.norm(mat, 2)
    for mu, u, v in zip(mus, vecs.T, monodromy._eigenvectors(op, mus)):
        assert np.linalg.norm(mat @ v - mu * v) <= 1e-12 * norm * np.linalg.norm(v)
        # the eig column, up to scale
        c = np.vdot(u, v) / np.vdot(u, u)
        assert np.linalg.norm(v - c * u) <= 1e-10 * np.linalg.norm(v)


@pytest.mark.parametrize("rows", [21, 5], ids=["memory", "s_equals_m"])
def test_repeated_multiplier_gets_independent_eigenvectors(rows):
    # two identical uncoupled components: the n = 2 operator is the scalar one
    # times eye(2), so every multiplier is a semisimple double
    grid = PeriodicGrid(1.0, 8, (rows - 1) / 8)
    rng = np.random.default_rng(rows)
    scalar = monodromy.MonodromyOperator(0.5 * rng.standard_normal((9, 1, rows)), grid)
    mat = np.kron(scalar.matrix, np.eye(2))
    s = min(16, 2 * rows)  # N*n rows computed, or all of them
    hist = np.zeros((9, 2, 2 * rows))
    hist[0, :, -2:] = np.eye(2)
    hist[9 - s // 2 :] = mat[-s:].reshape(-1, 2, 2 * rows)
    op = monodromy.MonodromyOperator(hist, grid)
    assert np.array_equal(op.matrix, mat)
    mus = np.linalg.eigvals(mat)
    vecs = list(monodromy._eigenvectors(op, mus))
    norm = np.linalg.norm(mat, 2)
    for mu, v in zip(mus, vecs):
        assert np.linalg.norm(mat @ v - mu * v) <= 1e-12 * norm * np.linalg.norm(v)
        twins = [u / np.linalg.norm(u) for nu, u in zip(mus, vecs)
                 if abs(nu - mu) <= 1e-8 * abs(mu)]
        assert len(twins) == 2
        assert np.linalg.svd(np.column_stack(twins), compute_uv=False)[-1] >= 0.1


def test_spectrum_of_uncoupled_copies_keeps_both_modes():
    # each multiplier of two identical uncoupled delay equations is double: its
    # two modes must span both components, not repeat one
    tap = DelayTap(0.3, lambda s: -0.8 * np.eye(2))
    system = LinearMemorySystem(2, lambda s: (0.2 * np.cos(2 * np.pi * s) - 0.5) * np.eye(2),
                                delay_taps=(tap,))
    dec = floquet_spectrum(system, PeriodicGrid(1.0, 32, 0.3), modes=4)
    assert len(dec.modes) >= 2
    first, second = dec.modes[:2]
    assert abs(first.multiplier - second.multiplier) <= 1e-8 * abs(first.multiplier)
    pair = np.column_stack([first.samples.ravel(), second.samples.ravel()])
    assert np.linalg.svd(pair / np.linalg.norm(pair, axis=0), compute_uv=False)[-1] >= 0.1


def test_monodromy_leading_rows_are_unit_shift():
    # memory deeper than the period: the first m - N*n rows only move the history
    depth = 1.6
    system, _ = exp_kernel(depth=depth)
    grid = PeriodicGrid(1.0, 32, depth, "simpson")
    u = build_monodromy(system, grid).matrix
    m, s = u.shape[0], grid.samples_per_period * system.dimension
    assert m > s
    np.testing.assert_array_equal(u[: m - s], np.eye(m)[s:])


def test_eig_leading_shift_structured_matches_dense(monkeypatch):
    depth = 2.3
    system, _ = exp_kernel(depth=depth)
    grid = PeriodicGrid(1.0, 32, depth)
    op = build_monodromy(system, grid)
    u = op.matrix
    seen = []
    eigs = scipy.sparse.linalg.eigs

    def spy(a, *args, **kwargs):
        seen.append(a)
        return eigs(a, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", spy)
    got = monodromy._eig_leading(op, k=6)
    assert isinstance(seen[0], scipy.sparse.linalg.LinearOperator)
    assert len(got) == 6  # ARPACK converged; no dense fallback
    dense = scipy.linalg.eigvals(u)
    lead = dense[np.argsort(-np.abs(dense))[:6]]
    np.testing.assert_allclose(np.sort(np.abs(got)), np.sort(np.abs(lead)), rtol=0, atol=1e-10)
    assert max(np.min(np.abs(lead - mu)) for mu in got) <= 1e-10


def test_eig_leading_is_deterministic():
    # the refined operator of the floquet_kernel benchmark (m = 924), on ARPACK
    depth = 0.3 * np.log(9.0 * 0.3 / 1e-10)
    system, _ = exp_kernel(depth=depth)
    grid = PeriodicGrid(1.0, 128, depth, "simpson")
    op = build_monodromy(system, grid)
    u = op.matrix
    assert u.shape[0] > monodromy._DENSE_EIG_LIMIT
    first, second = (monodromy._eig_leading(op, k=32) for _ in range(2))
    np.testing.assert_array_equal(first, second)


def _spy_eig_leading(monkeypatch):
    """Record (operator size, k) of every _eig_leading call."""
    calls, eig_leading = [], monodromy._eig_leading

    def spy(operator, k):
        calls.append((operator.size, k))
        return eig_leading(operator, k)

    monkeypatch.setattr(monodromy, "_eig_leading", spy)
    return calls


def _dense_spectrum(operator):
    mus = np.linalg.eigvals(operator.matrix).astype(complex)
    return mus[sort_multipliers(mus)]


# exp_kernel at N = 64 with memory 2.3 deep: m = 149 coarse and 296 refined, both
# solved by ARPACK once the dense limit is 10. Of the coarse multipliers, the
# 33rd in magnitude is 0.0033 and the 66th 0.0017; the refined solve's 32nd is 0.0035
_SHALLOW_KERNEL = exp_kernel(depth=2.3)[0]
_SHALLOW_GRID = PeriodicGrid(1.0, 64, 2.3)


def test_coarse_request_doubles_until_a_multiplier_lies_below_the_floor(monkeypatch):
    # tol 0.2 puts the floor at 0.8 * 0.0035: the 33 leading coarse multipliers
    # all lie above it, the 66 leading do not
    monkeypatch.setattr(monodromy, "_DENSE_EIG_LIMIT", 10)
    calls = _spy_eig_leading(monkeypatch)
    dec = floquet_spectrum(_SHALLOW_KERNEL, _SHALLOW_GRID, modes=2, convergence_tol=0.2)
    assert calls == [(296, 32), (149, 33), (149, 66)]
    assert len(dec.multipliers) in (66, 67)  # ARPACK may return both of a split pair
    dense = _dense_spectrum(dec.operator)
    assert len(dec.modes) == 2
    for mode in dec.modes:  # ARPACK's, on the balanced operator: dense-accurate
        assert np.min(np.abs(dense - mode.multiplier)) <= 1e-12 * abs(mode.multiplier)
    np.testing.assert_allclose(dec.multipliers[:30], dense[:30], rtol=1e-8)


def test_coarse_request_past_half_the_operator_is_the_dense_solve(monkeypatch):
    # tol 0.9 puts the floor at 0.1 * 0.0035, below the 66 leading coarse
    # multipliers: the request for 132 of 149 is solved densely, unrefined
    monkeypatch.setattr(monodromy, "_DENSE_EIG_LIMIT", 10)
    calls = _spy_eig_leading(monkeypatch)
    dec = floquet_spectrum(_SHALLOW_KERNEL, _SHALLOW_GRID, modes=2, convergence_tol=0.9)
    assert calls == [(296, 32), (149, 33), (149, 66), (149, 132)]
    np.testing.assert_array_equal(dec.multipliers, _dense_spectrum(dec.operator))


def test_dense_refined_solve_keeps_the_dense_coarse_spectrum(monkeypatch):
    # the delay operator's refined solve is dense (m = 193), so the coarse one
    # is too: all m multipliers, those of eigvals
    system, meta = delay_pi_over_2()
    calls = _spy_eig_leading(monkeypatch)
    dec = floquet_spectrum(system, _grid_for(meta, 96), modes=4)
    assert calls == [(193, 193), (97, 97)]
    assert len(dec.multipliers) == dec.operator.size == 97
    np.testing.assert_array_equal(dec.multipliers, _dense_spectrum(dec.operator))
    assert [m.multiplier for m in dec.modes] == list(dec.retained[: len(dec.modes)])


def test_arpack_coarse_solve_refines_the_kept_modes():
    # builtin exp_kernel at N = 64 with a 1e-12 tail: m = 551 coarse and 1101
    # refined. Kept multipliers 3 and 4 (|mu| = 0.0355) lie in a cluster: 1.3e-5
    # off, their modes' operator residual is 1.2e-2. ARPACK on the balanced
    # operator must give them to rounding
    system, meta = exp_kernel()
    grid = _grid_for(meta, 64, "simpson")
    dec = floquet_spectrum(system, grid, modes=4)
    assert len(dec.multipliers) < dec.operator.size == 551
    dense = _dense_spectrum(dec.operator)
    assert len(dec.modes) == 4
    for mode in dec.modes:
        assert np.min(np.abs(dense - mode.multiplier)) <= 1e-12 * abs(mode.multiplier)
    assert verify_floquet_form(system, dec).max_residual <= 1e-6


@pytest.fixture(scope="module")
def builtin_exp_kernel_solves():
    """Builtin exp_kernel at N = 64 (Simpson, modes 4), the CLI's `analyze` of it:
    its decomposition, and each ARPACK solve as (dense eigvals of the operator,
    the multipliers ARPACK listed)."""
    system, meta = exp_kernel()
    solves, eig_leading = [], monodromy._eig_leading

    def spy(operator, k):
        mus = eig_leading(operator, k)
        if len(mus) < operator.size:
            solves.append((np.linalg.eigvals(operator.matrix), mus))
        return mus

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(monodromy, "_eig_leading", spy)
        dec = floquet_spectrum(system, _grid_for(meta, 64, "simpson"), modes=4)
    return dec, solves


def test_arpack_multipliers_match_the_dense_ones(builtin_exp_kernel_solves):
    # unbalanced, ARPACK's small clustered multipliers were up to 4e-5 off
    _, solves = builtin_exp_kernel_solves
    assert [(len(dense), len(mus)) for dense, mus in solves] == [(1101, 32), (551, 33)]
    for dense, mus in solves:
        for mu in mus:
            assert np.min(np.abs(dense - mu)) <= 1e-10 * abs(mu)


def test_arpack_converged_flags_are_the_dense_decisions(builtin_exp_kernel_solves):
    # the same two-grid rule on dense eigenvalues of both operators: 24
    # converged; unbalanced ARPACK's errors put multipliers 24-27 under tol
    dec, ((fine, _), (coarse, _)) = builtin_exp_kernel_solves
    coarse = coarse[sort_multipliers(coarse)][: len(dec.multipliers)]
    dist = np.abs(coarse[:, None] - fine) / np.maximum.outer(np.abs(coarse), np.abs(fine))
    np.testing.assert_array_equal(dec.converged, dist.min(axis=1) <= 1e-4)
    assert dec.p_retained == 24


def _balanced_operator(monkeypatch, op, k):
    """The LinearOperator that _eig_leading hands ARPACK for op."""
    class Handed(Exception):
        pass

    def stop(a, *args, **kwargs):
        raise Handed(a)

    monkeypatch.setattr(scipy.sparse.linalg, "eigs", stop)
    with pytest.raises(Handed) as handed:
        monodromy._eig_leading(op, k)
    return handed.value.args[0]


def test_balanced_matvec_is_the_similarity_by_powers_of_two(monkeypatch):
    # exp_kernel 2.3 deep at N = 32: m = 75 rows in blocks of 11, 32 and 32
    # (s = 32), X's column blocks of norm 8.2e-4, 0.040 and 7.2: D grades them
    system, _ = exp_kernel(depth=2.3)
    op = build_monodromy(system, PeriodicGrid(1.0, 32, 2.3))
    u = op.matrix
    assert u.shape == (75, 75) and len(op._computed) == 32
    d = monodromy._block_balance(op._computed, op.size)
    assert np.all(np.frexp(d)[0] == 0.5)  # powers of two
    np.testing.assert_array_equal(d, np.repeat([2.0 ** 7, 2.0 ** 3, 1.0], [11, 32, 32]))
    a = _balanced_operator(monkeypatch, op, 6)
    for v in np.random.default_rng(2).standard_normal((4, 75)):
        want = (u @ (d * v)) / d
        np.testing.assert_allclose(a.matvec(v), want, rtol=0,
                                   atol=1e-14 * np.abs(want).max())


def test_one_block_operator_is_not_rescaled():
    # m = s = 5: X is the whole matrix, and D = I
    rng = np.random.default_rng(4)
    op = monodromy.MonodromyOperator(rng.standard_normal((9, 1, 5)), PeriodicGrid(1.0, 8, 0.5))
    assert op.size == len(op._computed) == 5
    np.testing.assert_array_equal(monodromy._block_balance(op._computed, op.size), np.ones(5))


def test_balance_of_a_steeply_decaying_operator_stays_finite(monkeypatch):
    # 64 blocks of s = 8 with X of order 1e-320: unclamped, a block's scale
    # passes 2^1023 and overflows; clamped, every scale lies within 2^(+-970)
    rng = np.random.default_rng(5)
    hist = rng.standard_normal((9, 1, 512))
    hist[1:] *= 1e-320
    op = monodromy.MonodromyOperator(hist, PeriodicGrid(1.0, 8, 511 / 8))
    d = monodromy._block_balance(op._computed, op.size)
    assert np.all(np.isfinite(d)) and np.all(np.frexp(d)[0] == 0.5)
    assert np.abs(np.log2(d)).max() <= 2 * monodromy._SCALE_EXP
    a = _balanced_operator(monkeypatch, op, 4)
    for j in (0, 255, 511):
        assert np.all(np.isfinite(a.matvec(np.eye(512)[j])))


def _leading_multiplier_error(system, grid, exact):
    mus = scipy.linalg.eigvals(build_monodromy(system, grid).matrix)
    top = mus[np.argsort(-np.abs(mus))[: len(exact)]]
    return max(np.min(np.abs(top - mu)) for mu in exact)


@pytest.mark.parametrize("quadrature, order", [("trapezoid", 1.9), ("simpson", 3.7)])
def test_kernel_multiplier_convergence_order(quadrature, order):
    # truncation at a 1e-10 tail; exact multipliers from the augmented 2x2
    depth = 0.3 * np.log(9.0 * 0.3 / 1e-10)
    system, meta = exp_kernel(depth=depth)
    exact = np.linalg.eigvals(scipy.linalg.expm(meta["augmented_matrix"]))
    errs = [_leading_multiplier_error(system, PeriodicGrid(1.0, n, depth, quadrature), exact)
            for n in (32, 64)]
    assert np.log2(errs[0] / errs[1]) > order


def test_delay_multiplier_convergence_order():
    # RK4 with cubic history interpolation: fourth order towards +-i
    system, meta = delay_pi_over_2()
    errs = np.array([_leading_multiplier_error(system, _grid_for(meta, n), (1j, -1j))
                     for n in (32, 64, 128)])
    assert np.all(np.log2(errs[:-1] / errs[1:]) > 3.7)


def _tap_system(delay):
    tap = DelayTap(delay, lambda s: np.array([[-1.2, 0.3 * np.sin(2 * np.pi * s)], [0.4, -0.7]]))
    return LinearMemorySystem(
        2, lambda s: np.array([[0.0, 1.0], [-1.0 - 0.3 * np.cos(2 * np.pi * s), -0.1]]),
        delay_taps=(tap,))


def _kernel_with_tap_system():
    amp = np.array([[-0.5, 0.2], [0.1, -0.3]])
    tap = DelayTap(0.25, lambda s: np.array([[0.1, 0.0], [0.2 * np.sin(2 * np.pi * s), -0.1]]))
    return LinearMemorySystem(
        2, lambda s: np.array([[0.0, 1.0], [-1.0 - 0.3 * np.cos(2 * np.pi * s), -0.1]]),
        delay_taps=(tap,),
        kernel=difference_kernel(lambda u: np.exp(-np.asarray(u) / 0.2), scale=amp),
    )


def _reintegrated_mode(system, grid, mu, eigenvector):
    """Samples and periodicity residual of the mode of (mu, eigenvector) with the
    eigenvector's history segment propagated over the period on its own, then
    normalized to unit max node magnitude with the leading component real."""
    n, nh = system.dimension, grid.history_points
    seg = np.asarray(eigenvector).reshape(nh + 1, n, 1)
    z = propagate_history(system, grid, seg, grid.samples_per_period)[nh:, :, 0]
    lam = principal_exponents(np.array([mu]), grid.period)[0]
    r = z * np.exp(-lam * np.arange(grid.samples_per_period + 1) * grid.step)[:, None]
    mag = np.linalg.norm(r, axis=1)
    residual = np.linalg.norm(r[-1] - r[0]) / mag.max()
    k = int(np.argmax(mag > mag.max() * (1 - 1e-12)))
    c = r[k, int(np.argmax(np.abs(r[k])))]
    return r * (abs(c) / c) / mag[k], residual


@pytest.mark.parametrize("system, grid", [
    (_tap_system(0.5), PeriodicGrid(1.0, 64, 0.5)),
    (_tap_system(1.0), PeriodicGrid(1.0, 64, 1.0)),
    (exp_kernel(depth=1.3)[0], PeriodicGrid(1.0, 32, 1.3, "simpson")),
    (_kernel_with_tap_system(), PeriodicGrid(1.0, 64, 0.43)),
], ids=["delay0.5", "delay1.0", "exp_kernel_simpson", "matrix_kernel_with_tap"])
def test_modes_match_reintegrated_eigenvectors(system, grid):
    # the build's unit-basis propagation combined by the eigenvector is the
    # eigenvector's own propagation, up to roundoff
    dec = floquet_spectrum(system, grid, modes=8)
    mus, vecs = scipy.linalg.eig(build_monodromy(system, grid).matrix)
    assert len(dec.modes) >= 2
    for mode in dec.modes:
        j = int(np.argmin(np.abs(mus - mode.multiplier)))
        want, residual = _reintegrated_mode(system, grid, mus[j], vecs[:, j])
        assert mode.samples.shape == want.shape
        np.testing.assert_allclose(mode.samples, want, rtol=0, atol=1e-12)
        assert abs(mode.periodicity_residual - residual) <= 1e-12


# exp_kernel about as deep as the floquet_kernel benchmark's: m = 462 at N = 64
# (dense eig) and 923 at the refined N = 128 (ARPACK), so the unit-basis
# histories dominate every other array
_DEEP_KERNEL = exp_kernel(depth=7.2)[0]
_DEEP_GRID = PeriodicGrid(1.0, 64, 7.2)


def _history_bytes(grid):
    """Bytes of the scalar system's unit-basis propagation over one period: its
    row at time 0 and the N computed rows."""
    return (1 + grid.samples_per_period) * grid.state_size(1) * 8


def _traced_peak(fn, *args, **kwargs):
    tracemalloc.start()
    try:
        return fn(*args, **kwargs), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


# a build holds its history and temporaries a few kernel windows in size (the
# cubic stencils, their slot indices, a block of K): 0.60 of the history at the
# refined N = 128, whose kernel window is 7 times the period's rows, and the
# same bytes as beside the full-height history it replaced. The unit rows
# stored as before, or a separate m x m identity, would each add 7.1 times the
# history's bytes here
_BUILD_PEAK = 1.7


def _matrix_bytes(grid):
    return grid.state_size(1) ** 2 * 8


def test_build_holds_no_identity_beside_the_history():
    # the unit basis stores its row at time 0 and the computed rows only
    op, peak = _traced_peak(build_monodromy, _DEEP_KERNEL, _DEEP_GRID.refined())
    assert op.history.nbytes == _history_bytes(_DEEP_GRID.refined())
    assert peak <= _BUILD_PEAK * op.history.nbytes


def test_spectrum_holds_one_propagation_at_a_time():
    # the refined operator is built, solved and dropped before the coarse
    # eigensolve: only the coarse history is alive beside its build, and the
    # coarse dense matrix beside neither
    dec, peak = _traced_peak(floquet_spectrum, _DEEP_KERNEL, _DEEP_GRID, modes=2)
    assert dec.operator.history.nbytes == _history_bytes(_DEEP_GRID)
    assert peak <= (_BUILD_PEAK * _history_bytes(_DEEP_GRID.refined()) + _history_bytes(_DEEP_GRID)
                    + _matrix_bytes(_DEEP_GRID))


def test_spectrum_holds_no_complex_matrix():
    # eigenvalues alone from the dense solve, each kept mode's eigenvector from
    # its shift block: below the bytes of the m x m complex eigenvector array
    # a full eigendecomposition returns
    dec, peak = _traced_peak(floquet_spectrum, _DEEP_KERNEL, _DEEP_GRID)
    assert len(dec.modes) >= 2
    assert peak < 2 * _matrix_bytes(_DEEP_GRID)
