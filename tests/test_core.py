import tracemalloc

import numpy as np
import pytest

from gfloquet import (
    DelayTap, GridError, InvalidSystemError, LinearMemorySystem, PeriodicGrid,
    ResolutionError, StateSegment, difference_kernel, forced_response,
    shift_commutation_residual, step_integrate, tabulated_coefficient, validate_system,
)
from gfloquet.grid import interp_uniform, periodic_interp, quadrature_window
from gfloquet import system as system_module
from gfloquet.integrate import propagate_history
from gfloquet.system import _LOOKUPS, apply_memory, array_form, evaluate
from gfloquet.builtins import exp_kernel


def test_grid_basic_fields():
    g = PeriodicGrid(2.0, 100, 0.5)
    assert g.step == pytest.approx(0.02)
    assert g.history_points == 25  # ceil(0.5 * 100 / 2)
    assert g.history_points * g.step >= 0.5 - 1e-15
    assert g.state_size(3) == 3 * 26


def test_grid_history_covers_depth_non_divisible():
    g = PeriodicGrid(1.0, 64, 0.33)
    assert g.history_points == int(np.ceil(0.33 * 64))
    assert g.history_points * g.step >= 0.33


def test_grid_rejects_bad_parameters():
    with pytest.raises(GridError):
        PeriodicGrid(-1.0, 64, 0.0)
    with pytest.raises(GridError):
        PeriodicGrid(1.0, 7, 0.0)  # N >= 8
    with pytest.raises(GridError):
        PeriodicGrid(1.0, 64, -0.1)


@pytest.mark.parametrize("n", [64.0, 64.5, "64", None])
def test_grid_refuses_a_non_integer_sample_count(n):
    with pytest.raises(GridError, match=r"^samples_per_period must be an integer >= 8, got "):
        PeriodicGrid(1.0, n, 1.0)
    assert PeriodicGrid(1.0, np.int64(64), 1.0).history_points == 64


def test_grid_refined():
    g = PeriodicGrid(1.0, 64, 0.5)
    g2 = g.refined()
    assert g2.samples_per_period == 128
    assert g2.period == g.period and g2.memory_depth == g.memory_depth


def test_state_segment_shape_and_finiteness():
    g = PeriodicGrid(1.0, 16, 0.25)
    nh = g.history_points
    seg = StateSegment(g, np.zeros((nh + 1, 2)))
    assert seg.samples.shape == (nh + 1, 2)
    with pytest.raises(ValueError):
        StateSegment(g, np.zeros((nh, 2)))
    bad = np.zeros((nh + 1, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        StateSegment(g, bad)


def test_interp_uniform_cubic_exactness():
    # piecewise-cubic interpolation reproduces cubics to roundoff; with 2 or 3
    # nodes the full-degree fallback reproduces a line or a parabola
    q = np.array([0.11, 0.37, 0.52, 0.93])
    for coeffs, nodes in (([0.3, -1.2, 0.5, 2.0], 9), ([0.3, -1.2], 2), ([0.3, -1.2, 0.5], 3)):
        poly = np.polynomial.Polynomial(coeffs)
        t = np.linspace(0.0, 1.0, nodes)
        out = interp_uniform(poly(t).reshape(-1, 1), 0.0, t[1] - t[0], q)
        assert np.max(np.abs(out[:, 0] - poly(q))) < 1e-13


def test_periodic_interp_matches_interp_uniform_on_wrapped_rows():
    # both share one cubic rule: the periodic lookup is the uniform one on the
    # samples written out as rows -1 .. N+1, queried at the time mod the period
    rng = np.random.default_rng(5)
    n, period = 12, 2.5
    h = period / n
    q = np.array([0.0, period, -0.3, -period - 0.7, 0.4 * h, 5.5 * h, (n - 0.2) * h, 7.1])
    for trailing in ((2,), (1, 1)):
        samples = rng.standard_normal((n,) + trailing)
        wrapped = samples[np.arange(-1, n + 2) % n]
        got = periodic_interp(samples, period, q)
        want = interp_uniform(wrapped, -h, h, q % period)
        assert got.shape == want.shape == (len(q),) + trailing
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_periodic_interp_wraps():
    t = np.linspace(0.0, 1.0, 32, endpoint=False)
    vals = np.sin(2 * np.pi * t).reshape(-1, 1)
    out = periodic_interp(vals, 1.0, np.array([1.03, -0.02, 2.5]))
    exact = np.sin(2 * np.pi * np.array([1.03, -0.02, 2.5]))
    assert np.max(np.abs(out[:, 0] - exact)) < 1e-4


def test_validate_periodic_cosine_passes():
    sys_ = LinearMemorySystem(1, lambda s: np.array([[np.cos(2 * np.pi * s)]]))
    rep = validate_system(sys_, PeriodicGrid(1.0, 64, 0.0))
    assert rep.passed
    assert rep.coefficient_residual < 1e-14  # cos(2 pi (s+1)) vs cos(2 pi s), roundoff only


def test_validate_constant_kernel_passes():
    sys_ = LinearMemorySystem(
        1, lambda s: np.array([[0.0]]),
        kernel=difference_kernel(lambda u: np.exp(-np.asarray(u))),
    )
    rep = validate_system(sys_, PeriodicGrid(1.0, 32, 0.5))
    assert rep.passed
    assert rep.kernel_residual <= 1e-10
    assert np.isfinite(rep.kernel_integral_bound)


def _spy_kernel(kernel, calls):
    # kernel, declared, recording the (sigma, tau) pairs of each call
    @array_form
    def spy(sigma, taus):
        calls.append((np.array(sigma), np.array(taus)))
        return kernel(sigma, taus)
    return spy


def test_validate_checks_the_kernel_in_bounded_blocks():
    # each call takes the windows of at most _LOOKUPS // window period nodes, and
    # the calls of each shifted grid together take every period node x window
    # node pair once
    system, meta = exp_kernel()
    grid = PeriodicGrid(1.0, 64, meta["memory_depth"])
    calls = []
    spied = LinearMemorySystem(1, system.coefficient, kernel=_spy_kernel(system.kernel, calls))
    rep = validate_system(spied, grid)
    assert rep.passed
    taus0, w, _ = quadrature_window(grid)
    step = _LOOKUPS // len(taus0)
    assert 1 < step < len(grid.period_nodes)  # several blocks of several nodes
    assert all(len(np.unique(sigma)) <= step for sigma, _ in calls)
    nodes = grid.period_nodes
    want = [(s, s + t) for shift in (0.0, grid.period) for s in nodes + shift for t in taus0]
    got = [pair for sigma, taus in calls for pair in zip(sigma, taus)]
    assert sorted(got) == sorted(want)
    assert len(calls) == 2 * -(-len(nodes) // step)
    # the bound is the largest window integral of |K| over the period nodes
    bound = max(np.dot(w, np.abs(system.eval_kernel(s, s + taus0)[:, 0, 0]))
                for s in grid.period_nodes)
    assert rep.kernel_integral_bound == pytest.approx(bound, rel=1e-14)


def test_validate_memory_does_not_grow_with_the_grid():
    # exp_kernel's default depth 8.59 gives 8,797-node windows at N = 1024; every
    # node at once held about 433 MB of kernel values and norms
    system, meta = exp_kernel()
    grid = PeriodicGrid(1.0, 1024, meta["memory_depth"])
    tracemalloc.start()
    try:
        assert validate_system(system, grid).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def test_validate_linear_ramp_fails():
    sys_ = LinearMemorySystem(1, lambda s: np.array([[s]]))
    rep = validate_system(sys_, PeriodicGrid(1.0, 32, 0.0))
    assert not rep.passed
    assert rep.coefficient_residual == pytest.approx(1.0)


def test_validate_nonfinite_raises():
    sys_ = LinearMemorySystem(1, lambda s: np.array([[np.inf]]))
    with pytest.raises(InvalidSystemError):
        validate_system(sys_, PeriodicGrid(1.0, 32, 0.0))


def test_delay_tap_requires_positive_delay():
    with pytest.raises(InvalidSystemError):
        DelayTap(0.0, lambda s: np.array([[1.0]]))


def test_kernel_window_weights_integrate_constant():
    for quadrature in ("trapezoid", "simpson"):
        g = PeriodicGrid(1.0, 64, 0.37, quadrature)
        taus0, w, n_uni = quadrature_window(g)
        taus = 0.8 + taus0
        assert np.isclose(np.sum(w), 0.37)
        assert taus[0] == pytest.approx(0.8)
        assert taus[-1] == pytest.approx(0.8 - 0.37)


def test_quadrature_window_names():
    # the window follows the rule its grid names, and the refined grid keeps it
    g = PeriodicGrid(1.0, 64, 0.37, "simpson")
    assert g.refined().quadrature == "simpson"
    simpson = quadrature_window(g)[1]
    trapezoid = quadrature_window(PeriodicGrid(1.0, 64, 0.37))[1]
    assert simpson[1] == pytest.approx(4 * g.step / 3) and trapezoid[1] == pytest.approx(g.step)
    with pytest.raises(GridError, match="unknown quadrature 'gauss'"):
        PeriodicGrid(1.0, 64, 0.37, "gauss")


@pytest.mark.parametrize("depth", [1.0, 0.0], ids=["delay_only", "memoryless"])
def test_grid_rejects_unknown_quadrature_without_kernel(depth):
    # a delay-only or memoryless job never builds a kernel window, but the
    # name is checked once, when the grid is built
    with pytest.raises(GridError, match="unknown quadrature 'gauss'"):
        PeriodicGrid(1.0, 32, depth, "gauss")


def test_step_integrate_exponential():
    sys_ = LinearMemorySystem(1, lambda s: np.array([[-1.0]]))
    g = PeriodicGrid(1.0, 128, 0.0)
    traj = step_integrate(sys_, g, StateSegment(g, np.array([[1.0]])), 1.0)
    assert abs(traj.final[0] - np.exp(-1.0)) < 1e-8


def test_step_integrate_delay_first_interval():
    # method of steps by hand: z' = -(pi/2) z(t-1), history 1 => z(1) = 1 - pi/2
    tap = DelayTap(1.0, lambda s: np.array([[-np.pi / 2]]))
    sys_ = LinearMemorySystem(1, lambda s: np.array([[0.0]]), delay_taps=(tap,))
    g = PeriodicGrid(1.0, 128, 1.0)
    seg = StateSegment(g, np.ones((g.history_points + 1, 1)))
    traj = step_integrate(sys_, g, seg, 1.0)
    assert abs(traj.final[0] - (1.0 - np.pi / 2)) < 1e-8


def test_step_integrate_zero_system_constant():
    sys_ = LinearMemorySystem(2, lambda s: np.zeros((2, 2)))
    g = PeriodicGrid(1.0, 16, 0.25)
    nh = g.history_points
    seg = StateSegment(g, np.tile([1.5, -2.0], (nh + 1, 1)))
    traj = step_integrate(sys_, g, seg, 2.0)
    assert np.max(np.abs(traj.values - [1.5, -2.0])) == 0.0


def test_step_integrate_rejects_bad_span_and_delay():
    sys_ = LinearMemorySystem(1, lambda s: np.array([[0.0]]))
    g = PeriodicGrid(1.0, 16, 0.0)
    seg = StateSegment(g, np.array([[1.0]]))
    with pytest.raises(ValueError):
        step_integrate(sys_, g, seg, 0.33)
    tap = DelayTap(0.01, lambda s: np.array([[1.0]]))  # below step 1/16
    sysd = LinearMemorySystem(1, lambda s: np.array([[0.0]]), delay_taps=(tap,))
    gd = PeriodicGrid(1.0, 16, 0.5)
    segd = StateSegment(gd, np.ones((gd.history_points + 1, 1)))
    with pytest.raises(ResolutionError):
        step_integrate(sysd, gd, segd, 1.0)


def test_ode_order_is_four():
    sys_ = LinearMemorySystem(1, lambda s: np.array([[np.cos(2 * np.pi * s)]]))
    errs = []
    for n in (32, 64):
        g = PeriodicGrid(1.0, n, 0.0)
        traj = step_integrate(sys_, g, StateSegment(g, np.array([[1.0]])), 1.0)
        errs.append(abs(traj.final[0] - 1.0))  # exact: exp(int cos) = exp(0) = 1
    order = np.log2(errs[0] / errs[1])
    assert order > 3.5


def test_shift_commutation_biperiodic_small():
    tap = DelayTap(0.5, lambda s: np.array([[0.4 * np.sin(2 * np.pi * s)]]))
    sys_ = LinearMemorySystem(
        1, lambda s: np.array([[-0.5 + 0.2 * np.cos(2 * np.pi * s)]]),
        delay_taps=(tap,),
        kernel=difference_kernel(lambda u: 0.5 * np.exp(-2.0 * np.asarray(u))),
    )
    g = PeriodicGrid(1.0, 128, 0.5)
    rng = np.random.default_rng(7)
    seg = StateSegment(g, rng.standard_normal((g.history_points + 1, 1)) * 0.1)
    assert shift_commutation_residual(sys_, g, seg) <= 1e-8


def test_shift_commutation_flags_non_biperiodic():
    sys_ = LinearMemorySystem(
        1, lambda s: np.array([[0.0]]),
        kernel=lambda s, taus: np.exp(-s * np.atleast_1d(taus)).reshape(-1, 1, 1),
    )
    g = PeriodicGrid(1.0, 64, 0.5)
    seg = StateSegment(g, np.ones((g.history_points + 1, 1)))
    assert shift_commutation_residual(sys_, g, seg) > 1e-2


def test_shift_commutation_zero_system():
    sys_ = LinearMemorySystem(1, lambda s: np.array([[0.0]]))
    g = PeriodicGrid(1.0, 32, 0.25)
    seg = StateSegment(g, np.ones((g.history_points + 1, 1)))
    assert shift_commutation_residual(sys_, g, seg) == 0.0


def test_shift_commutation_of_a_non_finite_system_is_nan():
    # a NaN at every node must not read as a residual of 0
    sys_ = LinearMemorySystem(1, lambda s: np.array([[np.nan]]))
    g = PeriodicGrid(1.0, 32, 0.25)
    seg = StateSegment(g, np.ones((g.history_points + 1, 1)))
    assert np.isnan(shift_commutation_residual(sys_, g, seg))


def _reference_propagate(system, grid, hist0, n_steps, include_forcing=False):
    """Method-of-steps RK4, staged, that interpolates every delayed value and
    every kernel window node on its own with interp_uniform and sums
    w_j K_j z(tau_j) (oracle for the taps, the folded window weights and the
    affine blocks of propagate_history)."""
    nh, h = grid.history_points, grid.step
    t0 = -nh * h
    hist = np.zeros((nh + 1 + n_steps,) + hist0.shape[1:], dtype=np.result_type(hist0, float))
    hist[: nh + 1] = hist0

    def rhs(sigma, z, known):
        d = system.eval_coefficient(sigma) @ z
        if include_forcing:
            d = d + system.eval_forcing(sigma)[:, None]
        for tap in system.delay_taps:
            tau = sigma - tap.delay
            if tau <= 0.0:
                zd = interp_uniform(hist[: nh + 1], t0, h, tau)[0]
            else:
                zd = interp_uniform(hist[nh : known + 1], 0.0, h, tau)[0]
            d = d + system.eval_tap(tap, sigma) @ zd
        if system.kernel is None:
            return d
        taus0, w, _ = quadrature_window(grid)
        taus = sigma + taus0
        kmat = system.eval_kernel(sigma, taus)
        d = d + w[0] * kmat[0] @ z
        vals = interp_uniform(hist[: known + 1], t0, h, taus[1:])
        return d + np.einsum("t,tij,tjm->im", w[1:], kmat[1:], vals)

    for step in range(n_steps):
        known, t = nh + step, step * h
        z = hist[known]
        k1 = rhs(t, z, known)
        k2 = rhs(t + 0.5 * h, z + 0.5 * h * k1, known)
        k3 = rhs(t + 0.5 * h, z + 0.5 * h * k2, known)
        k4 = rhs(t + h, z + h * k3, known)
        hist[known + 1] = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return hist


def _scalar_kernel_system():
    return LinearMemorySystem(
        1, lambda s: np.array([[-0.3 + 0.2 * np.cos(2 * np.pi * s)]]),
        kernel=difference_kernel(lambda u: 0.7 * np.exp(-np.asarray(u) / 0.3)),
    )


@pytest.mark.parametrize("quadrature", ["trapezoid", "simpson"])
@pytest.mark.parametrize("depth", [0.5, 1 / 32, 2 / 32, 3 / 32, 0.37])
def test_folded_kernel_window_matches_per_node_interpolation(quadrature, depth):
    # depth 0.5 is on the node lattice, 1-3 steps give nh = 1, 2, 3 (short
    # stencils), 0.37 puts the lower endpoint between nodes
    g = PeriodicGrid(1.0, 32, depth, quadrature)
    m = g.state_size(1)
    hist0 = np.eye(m).reshape(m, 1, m)
    system = _scalar_kernel_system()
    got = propagate_history(system, g, hist0, 40)
    ref = _reference_propagate(system, g, hist0, 40)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_folded_kernel_window_complex_column():
    g = PeriodicGrid(1.0, 32, 0.41, "simpson")
    rng = np.random.default_rng(5)
    shape = (g.history_points + 1, 1, 1)
    seg = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    system = _scalar_kernel_system()
    got = propagate_history(system, g, seg, 40)
    ref = _reference_propagate(system, g, seg, 40)
    assert got.dtype == complex
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def test_folded_kernel_window_matrix_kernel_with_tap():
    amp = np.array([[-0.5, 0.2], [0.1, -0.3]])
    tap = DelayTap(0.25, lambda s: np.array([[0.1, 0.0], [0.2 * np.sin(2 * np.pi * s), -0.1]]))
    system = LinearMemorySystem(
        2, lambda s: np.array([[0.0, 1.0], [-1.0 - 0.3 * np.cos(2 * np.pi * s), -0.1]]),
        delay_taps=(tap,),
        kernel=difference_kernel(lambda u: np.exp(-np.asarray(u) / 0.2), scale=amp),
    )
    g = PeriodicGrid(1.0, 32, 0.43)
    m = g.state_size(2)
    hist0 = np.eye(m).reshape(-1, 2, m)
    got = propagate_history(system, g, hist0, 40)
    ref = _reference_propagate(system, g, hist0, 40)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("quadrature", ["trapezoid", "simpson"])
@pytest.mark.parametrize("depth", [2 / 32, 0.37, 1.7])
def test_unit_basis_start_matches_explicit_identity(quadrature, depth):
    # hist0=None takes the unit initial rows of the kernel window in closed
    # form; depth 1.7 outlasts the 40 steps, so every stage still reaches them
    g = PeriodicGrid(1.0, 32, depth, quadrature)
    m = g.state_size(1)
    system = _scalar_kernel_system()
    got = propagate_history(system, g, None, 40)
    ref = propagate_history(system, g, np.eye(m).reshape(m, 1, m), 40)[g.history_points :]
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("quadrature", ["trapezoid", "simpson"])
@pytest.mark.parametrize("depth", [0.43, 1.3])
def test_unit_basis_start_matrix_kernel_with_tap(quadrature, depth):
    amp = np.array([[-0.5, 0.2], [0.1, -0.3]])
    tap = DelayTap(0.25, lambda s: np.array([[0.1, 0.0], [0.2 * np.sin(2 * np.pi * s), -0.1]]))
    system = LinearMemorySystem(
        2, lambda s: np.array([[0.0, 1.0], [-1.0 - 0.3 * np.cos(2 * np.pi * s), -0.1]]),
        delay_taps=(tap,),
        kernel=difference_kernel(lambda u: np.exp(-np.asarray(u) / 0.2), scale=amp),
    )
    g = PeriodicGrid(1.0, 32, depth, quadrature)
    m = g.state_size(2)
    got = propagate_history(system, g, None, 40)
    ref = propagate_history(system, g, np.eye(m).reshape(-1, 2, m), 40)[g.history_points :]
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


@pytest.mark.parametrize("unit", [True, False])
@pytest.mark.parametrize("delay", [0.5, 1.0])
def test_delay_taps_match_reference_stepper(delay, unit):
    # delay 0.5: the stage references cross tau = 0 mid-period; delay = depth
    # = 1.0: over one period every reference lies in the initial rows
    tap = DelayTap(delay, lambda s: np.array([[-1.2, 0.3 * np.sin(2 * np.pi * s)], [0.4, -0.7]]))
    system = LinearMemorySystem(
        2, lambda s: np.array([[0.0, 1.0], [-1.0 - 0.3 * np.cos(2 * np.pi * s), -0.1]]),
        delay_taps=(tap,),
    )
    g = PeriodicGrid(1.0, 32, delay)
    m = g.state_size(2)
    if unit:
        hist0 = np.eye(m).reshape(-1, 2, m)
    else:
        hist0 = np.random.default_rng(3).standard_normal((g.history_points + 1, 2, 3))
    got = propagate_history(system, g, None if unit else hist0, 32)
    ref = _reference_propagate(system, g, hist0, 32)[g.history_points if unit else 0 :]
    assert got.shape == ref.shape
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _tap_system(delay):
    return LinearMemorySystem(
        2, lambda s: np.array([[0.0, 1.0], [-1.0 - 0.3 * np.cos(2 * np.pi * s), -0.1]]),
        delay_taps=(DelayTap(delay, lambda s: np.array([[-1.2, 0.3 * np.sin(2 * np.pi * s)],
                                                        [0.4, -0.7]])),),
        forcing=lambda s: np.array([np.sin(2 * np.pi * s), 0.5]),
    )


@pytest.mark.parametrize("unit", [True, False])
@pytest.mark.parametrize("delay, depth", [
    (1 / 32, 0.25),  # one step: from tau > 0 on, each stage reads the newest row, one-step blocks
    (1.5 / 32, 0.25),  # off the lattice, and the frac-0 stencils end at the newest row too
    (0.25, 0.5),  # on the lattice: the block from step 8 holds tau = 0 and tau > 0 lookups
    (0.3, 0.5),  # off the lattice: the block from step 9 straddles tau = 0
    (0.37, 0.37),  # a tap at an off-lattice memory depth
])
def test_tap_blocks_match_reference_stepper(delay, depth, unit):
    system = _tap_system(delay)
    g = PeriodicGrid(1.0, 32, depth)
    m = g.state_size(2)
    if unit:
        hist0 = np.eye(m).reshape(-1, 2, m)
    else:
        hist0 = np.random.default_rng(7).standard_normal((g.history_points + 1, 2, 3))
    got = propagate_history(system, g, None if unit else hist0, 48)
    ref = _reference_propagate(system, g, hist0, 48)[g.history_points if unit else 0 :]
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("delay, depth", [(1 / 32, 0.25), (0.3, 0.5), (0.37, 0.37)])
def test_forced_response_matches_reference_stepper(delay, depth):
    system = _tap_system(delay)
    g = PeriodicGrid(1.0, 32, depth)
    seg = np.random.default_rng(11).standard_normal((g.history_points + 1, 2))
    got = forced_response(system, g, StateSegment(g, seg), 1.5).values
    ref = _reference_propagate(system, g, seg[:, :, None], 48, include_forcing=True)
    ref = ref[g.history_points :, :, 0]
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("quadrature", ["trapezoid", "simpson"])
def test_deep_taps_and_kernel_match_reference_stepper_on_complex_columns(quadrature):
    g = PeriodicGrid(1.0, 32, 2.2, quadrature)
    rng = np.random.default_rng(13)
    shape = (g.history_points + 1, 2, 2)
    hist0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    system = _deep_tap_kernel_system()
    got = propagate_history(system, g, hist0, 48)
    ref = _reference_propagate(system, g, hist0, 48)
    assert got.dtype == complex
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("first", [8, 40])
def test_resume_inside_a_block_equals_one_call_bitwise(first):
    # over the first period every lookup of the 1.0 tap reads the initial rows,
    # and after it the newest rows are far from its stencils, so one call takes
    # blocks of 16 steps: a resume after 8 or 40 steps starts inside one
    system = _tap_system(1.0)
    g = PeriodicGrid(1.0, 32, 1.0)
    whole = propagate_history(system, g, None, 48)
    part = propagate_history(system, g, None, first)
    assert np.array_equal(propagate_history(system, g, None, 48 - first, resume=part), whole)


def _deep_tap_kernel_system():
    taps = (DelayTap(0.23, lambda s: np.array([[0.1, 0.0], [0.2 * np.sin(2 * np.pi * s), -0.1]])),
            DelayTap(2.13, lambda s: np.array([[-0.3, 0.1], [0.0, -0.2 * np.cos(2 * np.pi * s)]])))
    return LinearMemorySystem(
        2, lambda s: np.array([[0.0, 1.0], [-1.0 - 0.3 * np.cos(2 * np.pi * s), -0.1]]),
        delay_taps=taps,
        kernel=difference_kernel(lambda u: np.exp(-np.asarray(u) / 0.2),
                                 scale=np.array([[-0.5, 0.2], [0.1, -0.3]])),
    )


@pytest.mark.parametrize("quadrature", ["trapezoid", "simpson"])
@pytest.mark.parametrize("n_steps", [40, 64])
@pytest.mark.parametrize("unit", [True, False])
def test_resumed_propagation_equals_one_call_bitwise(quadrature, n_steps, unit):
    # 40 steps end while the 2.13 tap reads the initial history; after
    # either resume the 2.13 tap still reads the initial history, the 0.23 tap
    # reads computed rows, and the window's lower endpoint (depth 2.2) is off
    # the lattice
    g = PeriodicGrid(1.0, 32, 2.2, quadrature)
    system = _deep_tap_kernel_system()
    hist0 = None
    if not unit:
        rng = np.random.default_rng(n_steps)
        shape = (g.history_points + 1, 2, 3)
        hist0 = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    whole = propagate_history(system, g, hist0, 2 * n_steps)
    first = propagate_history(system, g, hist0, n_steps)
    resumed = propagate_history(system, g, hist0, n_steps, resume=first)
    assert resumed.dtype == whole.dtype
    assert np.array_equal(resumed, whole)
    assert np.array_equal(resumed[: len(first)], first)


def test_resume_rejects_a_history_of_other_columns():
    g = PeriodicGrid(1.0, 32, 0.5)
    system = _scalar_kernel_system()
    first = propagate_history(system, g, None, 8)
    with pytest.raises(ValueError, match="resumed history"):
        propagate_history(system, g, np.ones((g.history_points + 1, 1, 2)), 8, resume=first)
    # the unit basis is checked against its (n, m), which no identity shows,
    # and needs at least its row at time 0
    for wrong in (first[:, :, 1:], first[:0], first[:, 0]):
        with pytest.raises(ValueError, match="resumed history"):
            propagate_history(system, g, None, 8, resume=wrong)


def _per_stage_propagate(monkeypatch, *args, **kwargs):
    """propagate_history with one kernel call per stage time, each over its
    own window (oracle for the stage windows drawn from blocks)."""
    with monkeypatch.context() as m:
        m.setattr(system_module, "_LOOKUPS", 1)
        return propagate_history(*args, **kwargs)


@pytest.mark.parametrize("depth, lookups", [(2.2, _LOOKUPS), (2 / 32, _LOOKUPS), (1 / 32, 8)])
def test_propagation_evaluates_the_kernel_in_blocks_of_stages(monkeypatch, depth, lookups):
    # depth 2.2: 72-node windows, 56 stage times per call, so blocks end
    # mid-step; depths 2/32 and 1/32: the first stages have fewer than 4 rows
    # stored, and blocks of 4 stage times (lookups 8) cross the steps there
    monkeypatch.setattr(system_module, "_LOOKUPS", lookups)
    g = PeriodicGrid(1.0, 32, depth)
    deep = _deep_tap_kernel_system()
    system = LinearMemorySystem(2, deep.coefficient, kernel=deep.kernel)
    calls = []
    spied = LinearMemorySystem(2, deep.coefficient, kernel=_spy_kernel(deep.kernel, calls))
    step = max(1, lookups // len(quadrature_window(g)[0]))
    first = propagate_history(spied, g, None, 40)
    assert len(calls) == -(-3 * 40 // step)
    del calls[:]
    resumed = propagate_history(spied, g, None, 24, resume=first)
    assert len(calls) == -(-3 * 24 // step)
    reference = _per_stage_propagate(monkeypatch, system, g, None, 40)
    assert np.array_equal(first, reference)
    assert np.array_equal(resumed, _per_stage_propagate(monkeypatch, system, g, None, 24,
                                                        resume=reference))


def _reference_apply_memory(system, grid, sigmas, z_at, out):
    """apply_memory one sigma at a time: B_i(sigma) z(sigma - d_i) for each tap,
    then the kernel sum over the quadrature window [sigma - r, sigma]."""
    rows = []
    for sigma, row in zip(sigmas, out):
        for tap in system.delay_taps:
            row = row + system.eval_tap(tap, sigma) @ z_at(np.array([sigma - tap.delay]))[0]
        if system.kernel is not None:
            taus0, w, _ = quadrature_window(grid)
            taus = sigma + taus0
            row = row + np.einsum("t,tij,tj->i", w, system.eval_kernel(sigma, taus), z_at(taus))
        rows.append(row)
    return np.array(rows)


@pytest.mark.parametrize("quadrature", ["trapezoid", "simpson"])
@pytest.mark.parametrize("dtype", [float, complex])
@pytest.mark.parametrize("big_n", [32, 256])
def test_apply_memory_equals_per_node_reference_bitwise(quadrature, dtype, big_n):
    # the 0.23 and 2.13 taps and the window's lower endpoint (depth 0.37) are
    # all off the node lattice; at N = 256 the 96-node windows of the 257
    # nodes are looked up in several blocks, the last one short
    g = PeriodicGrid(1.0, big_n, 0.37, quadrature)
    system = _deep_tap_kernel_system()
    rng = np.random.default_rng(11)
    samples = rng.standard_normal((big_n, 2)).astype(dtype)
    out = rng.standard_normal((big_n + 1, 2)).astype(dtype)
    if dtype is complex:
        samples += 1j * rng.standard_normal((big_n, 2))
        out += 1j * rng.standard_normal((big_n + 1, 2))

    def z_at(times):
        return periodic_interp(samples, g.period, times)

    got = apply_memory(system, g, g.period_nodes, z_at, out)
    assert got.dtype == dtype
    assert np.array_equal(got, _reference_apply_memory(system, g, g.period_nodes, z_at, out))


@pytest.mark.parametrize("big_n", [32, 256])
def test_apply_memory_calls_the_kernel_once_per_chunk(big_n):
    g = PeriodicGrid(1.0, big_n, 0.37)
    system = _deep_tap_kernel_system()
    calls = []
    spied = LinearMemorySystem(2, system.coefficient, system.delay_taps,
                               _spy_kernel(system.kernel, calls))
    samples = np.random.default_rng(5).standard_normal((big_n, 2))
    z_at = lambda times: periodic_interp(samples, g.period, times)
    got = apply_memory(spied, g, g.period_nodes, z_at, np.zeros((big_n + 1, 2)))
    assert np.array_equal(got, apply_memory(system, g, g.period_nodes, z_at,
                                            np.zeros((big_n + 1, 2))))
    window = len(quadrature_window(g)[0])
    step = max(1, _LOOKUPS // window)
    assert len(calls) == -(-(big_n + 1) // step)
    assert sum(len(taus) for _, taus in calls) == (big_n + 1) * window


def _stage_times(n_steps):
    # the stage times step*h + frac*h that propagate_history evaluates at
    h = 1.0 / n_steps
    return ((np.arange(n_steps) * h)[:, None] + np.array([0.0, 0.5, 1.0]) * h).ravel()


@pytest.mark.parametrize("table_shape", [(4, 1, 1), (64, 1, 1), (16, 2, 2)])
@pytest.mark.parametrize("n_steps", [64, 128])
def test_array_form_equals_per_point_bitwise(table_shape, n_steps):
    table = np.random.default_rng(table_shape[0] + n_steps).standard_normal(table_shape)
    ev = tabulated_coefficient(table, 1.0)
    n = table_shape[1]
    sigmas = _stage_times(n_steps)
    declared = LinearMemorySystem(n, ev).eval_coefficient(sigmas)
    # a wrapper that drops the declaration is evaluated one point at a time
    per_point = LinearMemorySystem(n, lambda s: ev(s)).eval_coefficient(sigmas)
    assert declared.shape == (len(sigmas), n, n)
    assert np.array_equal(declared, per_point)
    assert np.array_equal(declared, np.array([ev(s) for s in sigmas]))
    kernel = difference_kernel(lambda u: np.exp(-np.asarray(u) / 0.3), scale=table[0])
    pairs = (np.full_like(sigmas, 0.5), 0.5 - sigmas)
    assert np.array_equal(evaluate(kernel, pairs, (n, n), "K"),
                          evaluate(lambda s, t: kernel(s, t), pairs, (n, n), "K"))


def test_undeclared_callbacks_only_see_scalars():
    seen = []

    def spy(value):
        def fn(*args):
            seen.extend(args)
            return value
        return fn

    system = LinearMemorySystem(
        2, spy(np.array([[0.0, 1.0], [-4.0, -0.1]])),
        delay_taps=(DelayTap(0.3, spy(np.array([[-0.2, 0.0], [0.1, -0.3]]))),),
        kernel=spy(np.array([[-0.5, 0.0], [0.2, -0.5]])))
    grid = PeriodicGrid(1.0, 16, 0.4, "simpson")
    assert validate_system(system, grid).passed
    propagate_history(system, grid, None, 20)
    assert seen and all(np.ndim(x) == 0 and isinstance(x, (float, np.floating)) for x in seen)


@pytest.mark.parametrize("name", ["A", "B", "K"])
def test_declared_callback_of_the_wrong_shape_is_named(name):
    good = lambda *args: np.eye(2)
    bad = array_form(lambda *args: np.zeros((len(args[-1]), 2)))  # (len, 2), not (len, 2, 2)
    parts = {"A": good, "B": good, "K": good}
    parts[name] = bad
    system = LinearMemorySystem(2, parts["A"], delay_taps=(DelayTap(0.25, parts["B"]),),
                                kernel=parts["K"])
    with pytest.raises(InvalidSystemError, match=rf"^{name} over \d+ points has shape"):
        propagate_history(system, PeriodicGrid(1.0, 16, 0.5), None, 4)


@pytest.mark.parametrize("declare", [False, True])
def test_validate_names_the_first_non_finite_node(declare):
    def coefficient(s):
        return np.where((np.asarray(s) % 1.0 >= 0.4) & (np.asarray(s) % 1.0 <= 0.6), np.inf, 0.0)

    system = LinearMemorySystem(1, array_form(coefficient) if declare else coefficient)
    with pytest.raises(InvalidSystemError, match=r"non-finite A at node sigma=0\.40625$"):
        validate_system(system, PeriodicGrid(1.0, 32, 0.0))
    tap = DelayTap(0.5, array_form(coefficient) if declare else coefficient)
    system = LinearMemorySystem(1, lambda s: 0.0, delay_taps=(tap,))
    with pytest.raises(InvalidSystemError, match=r"non-finite B at node sigma=-0\.5$"):
        validate_system(system, PeriodicGrid(1.0, 32, 0.5))
    kernel = lambda s, t: coefficient(s) + 0.0 * np.asarray(t)
    system = LinearMemorySystem(1, lambda s: 0.0, kernel=array_form(kernel) if declare else kernel)
    # depth 0.25: one block of every node; depth 20: blocks of 6 nodes (641-node
    # windows), the first non-finite one in the third
    for depth in (0.25, 20.0):
        with pytest.raises(InvalidSystemError, match=r"non-finite kernel at node sigma=0\.40625$"):
            validate_system(system, PeriodicGrid(1.0, 32, depth))


def _diagonal_kernel(s, t):
    # written for one scalar tau; an array tau would come back as (2, 2, len)
    e = np.exp(-(s - t))
    return np.array([[e, 0.0 * e], [0.0 * e, 2.0 * e]])


def test_per_tau_kernel_is_not_read_as_an_array_when_len_equals_n():
    system = LinearMemorySystem(2, lambda s: np.zeros((2, 2)), kernel=_diagonal_kernel)
    got = system.eval_kernel(0.0, np.array([0.0, -0.5]))
    assert np.array_equal(got[0], np.diag([1.0, 2.0]))
    assert np.allclose(got[1], np.diag([1.0, 2.0]) * np.exp(-0.5), rtol=1e-15)
    # a memory depth of one step gives the two-node window of the bug
    grid = PeriodicGrid(1.0, 16, 1.0 / 16)
    declared = LinearMemorySystem(2, lambda s: np.zeros((2, 2)), kernel=difference_kernel(
        lambda u: np.exp(-np.asarray(u)), scale=np.diag([1.0, 2.0])))
    assert np.allclose(propagate_history(system, grid, None, 16),
                       propagate_history(declared, grid, None, 16), rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("kernel", [False, True])
def test_tap_lookups_among_fewer_than_four_rows_match_reference(kernel):
    # at N = 32 the taps 0.05, 0.09 and 1/32 reach past tau = 0 within the first
    # steps, where fewer than 4 rows are computed and the full-degree stencil is used
    coef = lambda c: (lambda s: np.array([[c * (1.0 + 0.3 * np.sin(2 * np.pi * s))]]))
    g = PeriodicGrid(1.0, 32, 0.09)
    m = g.state_size(1)
    zero = lambda s: np.zeros((1, 1))
    for a in (zero, lambda s: np.array([[-0.3 + 0.2 * np.cos(2 * np.pi * s)]])):
        system = LinearMemorySystem(
            1, a,
            delay_taps=tuple(DelayTap(d, coef(c)) for d, c in ((0.05, -0.8), (0.09, 0.5),
                                                                 (1 / 32, 0.3))),
            kernel=_scalar_kernel_system().kernel if kernel else None,
        )
        got = propagate_history(system, g, None, 32)
        ref = _reference_propagate(system, g, np.eye(m).reshape(m, 1, m), 32)[g.history_points :]
        if a is zero and not kernel:  # P = I exactly: the staged reference's bits
            assert np.array_equal(got, ref)
        else:  # the affine step sums A's products in another order than the stages
            assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))
