import numpy as np
import pytest
import scipy.integrate

from gfloquet import (
    DelayTap, InvalidSystemError, LimitCycle, LinearMemorySystem,
    NonlinearMemorySystem, PeriodicGrid, StateSegment, floquet_spectrum,
    forced_response, linearize, stability_verdict, step_integrate,
)
from gfloquet.integrate import Trajectory
from gfloquet.system import array_form


def variation_of_constants_response(
    system: LinearMemorySystem,
    grid: PeriodicGrid,
    initial_value: np.ndarray,
    span: float,
) -> Trajectory:
    """Independent cross-check for the memoryless case: z = X(s) c0 +
    int_0^s X(s) X(eta)^-1 b(eta) deta, with the transition matrix from an
    adaptive integrator and the convolution by Simpson quadrature."""
    if grid.history_points != 0 or system.delay_taps or system.kernel is not None:
        raise ValueError("variation-of-constants form requires a memoryless system")
    n = system.dimension
    n_steps = int(round(span / grid.step))
    times = np.arange(n_steps + 1) * grid.step

    def rhs(t, flat):
        return (system.eval_coefficient(t) @ flat.reshape(n, n)).ravel()

    sol = scipy.integrate.solve_ivp(
        rhs, (0.0, span), np.eye(n).ravel(), t_eval=times,
        rtol=1e-12, atol=1e-14, method="DOP853", dense_output=False,
    )
    if not sol.success:
        raise RuntimeError(f"transition-matrix integration failed: {sol.message}")
    xs = sol.y.T.reshape(-1, n, n)
    integrand = np.array(
        [np.linalg.solve(xs[k], system.eval_forcing(times[k])) for k in range(len(times))]
    )
    values = np.empty((len(times), n))
    c0 = np.asarray(initial_value, dtype=float)
    for k in range(len(times)):
        acc = scipy.integrate.simpson(integrand[: k + 1], x=times[: k + 1], axis=0) if k >= 2 else (
            scipy.integrate.trapezoid(integrand[: k + 1], x=times[: k + 1], axis=0) if k >= 1 else np.zeros(n)
        )
        values[k] = xs[k] @ (c0 + acc)
    return Trajectory(times, values)


def _cubic_cycle(nodes=64):
    ts = np.linspace(0.0, 1.0, nodes + 1)
    return LimitCycle(1.0, (0.5 + 0.3 * np.cos(2 * np.pi * ts)).reshape(-1, 1))


def test_limit_cycle_wrap_enforced():
    samples = np.linspace(0.0, 1.0, 17).reshape(-1, 1)  # endpoint mismatch
    with pytest.raises(InvalidSystemError):
        LimitCycle(1.0, samples)


def _cosine_cycle(nodes, distortion=0.0):
    ts = np.arange(nodes + 1) / nodes
    phase = 2 * np.pi * ts + distortion * np.sin(2 * np.pi * ts)
    return LimitCycle(1.0, np.cos(phase).reshape(-1, 1))


# y = cos 2 pi t solves y'(t) = -2 pi y(t - 1/4) and y'(t) = -2 pi^2 int_{t-1/2}^t y
_DELAY_CYCLE_SYSTEM = NonlinearMemorySystem(
    1, lambda y, t: np.zeros(1), memory_field=lambda y, t: y,
    delay_taps=(DelayTap(0.25, lambda t: np.array([[-2 * np.pi]])),), memory_depth=0.25)
_KERNEL_CYCLE_SYSTEM = NonlinearMemorySystem(
    1, lambda y, t: np.zeros(1), memory_field=lambda y, t: y,
    kernel=lambda t, taus: np.full(len(taus), -2 * np.pi ** 2),  # (len(taus),) shape
    memory_depth=0.5)


def test_limit_cycle_residual_exact_delay_cycle():
    # delayed nodes fall on the samples, so only the 4th-order derivative errs
    res = [_cosine_cycle(n).residual(_DELAY_CYCLE_SYSTEM, PeriodicGrid(1.0, n, 0.25))
           for n in (64, 128)]
    assert res[0] < 3e-5 and res[1] < 2e-6
    assert res[0] / res[1] > 12.0


def test_limit_cycle_residual_kernel_trapezoid_error():
    # the trapezoid rule on half a period of cos leaves (h^2/12)|f'(t) - f'(t - 1/2)|
    # times 2 pi^2, i.e. (2 pi^3 / 3) h^2 at the extremes of sin 2 pi t
    for n in (64, 128):
        res = _cosine_cycle(n).residual(_KERNEL_CYCLE_SYSTEM, PeriodicGrid(1.0, n, 0.5))
        assert res == pytest.approx(2 * np.pi ** 3 / 3 / n ** 2, rel=0.02)


def test_limit_cycle_residual_kernel_follows_the_grid_rule():
    # on a Simpson grid the kernel window no longer leaves the trapezoid's h^2
    # error: the exact cycle reads less, and the residual falls faster
    res = {q: [_cosine_cycle(n).residual(_KERNEL_CYCLE_SYSTEM, PeriodicGrid(1.0, n, 0.5, q))
               for n in (64, 128)] for q in ("trapezoid", "simpson")}
    assert all(s < t for s, t in zip(res["simpson"], res["trapezoid"]))
    assert res["simpson"][0] / res["simpson"][1] >= 7.0


@pytest.mark.parametrize("nl, depth", [(_DELAY_CYCLE_SYSTEM, 0.25), (_KERNEL_CYCLE_SYSTEM, 0.5)])
def test_limit_cycle_residual_phase_distorted_negative_control(nl, depth):
    bad = _cosine_cycle(64, distortion=0.3)
    assert bad.residual(nl, PeriodicGrid(1.0, 64, depth)) > 1.0


def test_linearize_cubic_oracle():
    cycle = _cubic_cycle()
    nl = NonlinearMemorySystem(
        1, lambda y, t: np.array([-y[0] ** 3 + np.cos(2 * np.pi * t)]))
    lin = linearize(nl, cycle, fd_step=1e-6)
    for t in np.linspace(0.0, 1.0, 13):
        exact = -3.0 * cycle.at(t)[0, 0] ** 2
        assert abs(lin.eval_coefficient(t)[0, 0] - exact) < 2e-6 ** 2 * 100 + 1e-9


def test_linearize_exact_for_linear_field():
    m = np.array([[0.1, -0.4], [0.7, -0.2]])
    nl = NonlinearMemorySystem(2, lambda y, t: m @ y)
    ts = np.linspace(0.0, 1.0, 33)
    cyc = LimitCycle(1.0, np.stack([np.cos(2 * np.pi * ts), np.sin(2 * np.pi * ts)], 1),
                     wrap_tol=1e-8)
    lin = linearize(nl, cyc, fd_step=1e-4)
    assert np.max(np.abs(lin.eval_coefficient(0.37) - m)) < 1e-10


def test_linearize_memory_field_derivative():
    tap = DelayTap(0.5, lambda t: np.array([[1.0]]))
    nl = NonlinearMemorySystem(
        1, lambda y, t: np.array([-y[0]]),
        memory_field=lambda y, t: np.array([y[0] ** 2]),
        delay_taps=(tap,), memory_depth=0.5)
    cyc = LimitCycle(1.0, np.full((33, 1), 2.0))
    lin = linearize(nl, cyc, fd_step=1e-6)
    got = lin.eval_tap(lin.delay_taps[0], 0.2)[0, 0]
    assert abs(got - 4.0) < 1e-8


def test_linearize_jacobian_order():
    cycle = _cubic_cycle()
    nl = NonlinearMemorySystem(
        1, lambda y, t: np.array([-y[0] ** 3 + np.cos(2 * np.pi * t)]))
    errs = []
    for step in (2e-4, 1e-4):
        lin = linearize(nl, cycle, fd_step=step)
        errs.append(max(
            abs(lin.eval_coefficient(t)[0, 0] + 3.0 * cycle.at(t)[0, 0] ** 2)
            for t in np.linspace(0.0, 1.0, 9)))
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


def _memory_linearization():
    """A 2-D system whose memory field feeds one tap and a kernel, about a
    closed-form cycle."""
    ts = np.linspace(0.0, 1.0, 129)
    cycle = LimitCycle(1.0, np.stack([1.0 + 0.4 * np.cos(2 * np.pi * ts),
                                      0.3 * np.sin(2 * np.pi * ts)], 1))
    nl = NonlinearMemorySystem(
        2, lambda y, t: np.array([y[1] - 0.3 * y[0] ** 3, -y[0] + 0.1 * np.cos(2 * np.pi * t)]),
        memory_field=lambda y, t: np.array([np.tanh(y[0] + y[1]), y[0] * y[1]]),
        delay_taps=(DelayTap(0.37, lambda t: np.array([[0.2, 0.1 * np.cos(2 * np.pi * t)],
                                                       [0.0, -0.3]])),),
        kernel=lambda t, taus: np.multiply.outer(np.exp(-(t - taus) / 0.3),
                                                 np.array([[0.5, -0.2], [0.1, 0.3]])),
        memory_depth=0.7)
    return nl, cycle, linearize(nl, cycle, fd_step=1e-6)


def _fd_jacobian(func, y, t, fd_step):
    """Central-difference Jacobian of func(y, t) at one point, column by column."""
    n = len(y)
    jac = np.empty((n, n))
    for j in range(n):
        step = fd_step * (1.0 + abs(y[j]))
        yp = y.copy(); yp[j] += step
        ym = y.copy(); ym[j] -= step
        jac[:, j] = (np.asarray(func(yp, t)) - np.asarray(func(ym, t))) / (2 * step)
    return jac


@pytest.mark.parametrize("callback", ["A", "B", "K"])
def test_linearize_coefficient_array_form_equals_per_point_jacobians(callback):
    from gfloquet.system import evaluate

    nl, cycle, lin = _memory_linearization()
    tap = nl.delay_taps[0]
    jac = lambda func, t: _fd_jacobian(func, cycle.at(t)[0], t, 1e-6)
    ts = np.arange(160) / 128  # the half steps of a 64-node grid, past one period
    if callback == "A":
        fn = lin.coefficient
        want = np.array([jac(nl.vector_field, t) for t in ts])
    elif callback == "B":
        fn = lin.delay_taps[0].coefficient
        want = np.array([tap.coefficient(t) @ jac(nl.memory_field, t - tap.delay) for t in ts])
    else:
        fn, ts = lin.kernel, 0.3 - np.linspace(0.0, 0.7, 23)
        want = np.array([np.einsum("ij,jk->ik", nl.kernel(np.array([0.3]), np.array([tau]))[0],
                                   jac(nl.memory_field, tau)) for tau in ts])
    # K takes (t, tau) pairs, here at t = 0.3
    at = (lambda t: (np.full_like(t, 0.3), t)) if callback == "K" else (lambda t: t)
    assert fn.array_form
    assert np.array_equal(evaluate(fn, at(ts), (2, 2), callback), want)
    assert np.array_equal(evaluate(fn, at(ts[5]), (2, 2), callback), want[5])
    # a wrapper that drops the declaration calls it one point at a time
    per_point = lambda *args: fn(*args)
    assert np.array_equal(evaluate(per_point, at(ts), (2, 2), callback), want)


def test_linearized_callbacks_look_the_cycle_up_once_per_call(monkeypatch):
    from gfloquet.integrate import propagate_history

    _, _, lin = _memory_linearization()
    counts = {"at": 0, "eval": 0}

    def counted(fn, key):
        def wrapper(*args):
            counts[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(LimitCycle, "at", counted(LimitCycle.at, "at"))
    for name in ("eval_coefficient", "eval_tap", "eval_kernel"):
        monkeypatch.setattr(LinearMemorySystem, name,
                            counted(getattr(LinearMemorySystem, name), "eval"))
    propagate_history(lin, PeriodicGrid(1.0, 32, 0.7), None, 32)
    assert counts["eval"] > 2 and counts["at"] == counts["eval"]


def test_array_form_field_is_called_twice_per_column_per_jacobians_call():
    ts = np.linspace(0.0, 1.0, 65)
    cycle = LimitCycle(1.0, np.stack([np.cos(2 * np.pi * ts), np.sin(2 * np.pi * ts)], 1))
    calls = []

    @array_form
    def f(y, t):
        calls.append(np.shape(t))
        return np.stack([y[..., 1], -y[..., 0] - 0.1 * y[..., 1] ** 3], axis=-1)

    lin = linearize(NonlinearMemorySystem(2, f), cycle)
    sigmas = np.arange(40) / 40
    assert lin.eval_coefficient(sigmas).shape == (40, 2, 2)
    assert calls == [(40,)] * 4  # 2n calls, each over every point


def test_undeclared_van_der_pol_field_linearizes_to_the_same_bits():
    from gfloquet.builtins import van_der_pol

    nl, _ = van_der_pol(1.3)
    per_point = NonlinearMemorySystem(
        2, lambda y, t: np.array([y[1], 1.3 * (1.0 - y[0] * y[0]) * y[1] - y[0]]))
    ts = np.linspace(0.0, 1.0, 97)
    cycle = LimitCycle(1.0, np.stack([2.0 * np.cos(2 * np.pi * ts), -np.sin(2 * np.pi * ts)], 1))
    sigmas = np.random.default_rng(5).uniform(0.0, 1.0, 300)
    want = linearize(nl, cycle).eval_coefficient(sigmas)
    assert np.array_equal(linearize(per_point, cycle).eval_coefficient(sigmas), want)
    assert np.array_equal(want[7], linearize(per_point, cycle).eval_coefficient(sigmas[7]))
    grid = PeriodicGrid(1.0, 96, 0.0)
    assert cycle.residual(nl, grid) == cycle.residual(per_point, grid)


def test_linearize_rejects_bad_fd_step():
    cycle = _cubic_cycle()
    nl = NonlinearMemorySystem(1, lambda y, t: np.array([-y[0]]))
    with pytest.raises(ValueError):
        linearize(nl, cycle, fd_step=0.5)


def test_linearize_nonfinite_jacobian():
    cycle = _cubic_cycle()
    nl = NonlinearMemorySystem(1, lambda y, t: np.array([np.inf * y[0]]))
    lin = linearize(nl, cycle, fd_step=1e-6)
    with pytest.raises(InvalidSystemError):
        lin.eval_coefficient(0.0)


@pytest.mark.parametrize("declare", [False, True])
def test_nonfinite_jacobian_names_the_first_time(declare):
    def f(y, t):
        return np.where(np.asarray(t)[..., None] >= 0.5, np.log(y - 0.6), -y)

    cycle = _cubic_cycle()  # y = 0.5 + 0.3 cos 2 pi t falls below 0.6 from t = 0.33
    lin = linearize(NonlinearMemorySystem(1, array_form(f) if declare else f), cycle)
    assert np.all(np.isfinite(lin.eval_coefficient(np.linspace(0.0, 0.45, 10))))
    with pytest.raises(InvalidSystemError, match=r"non-finite Jacobian entries at t=0\.5$"):
        with np.errstate(invalid="ignore"):
            lin.eval_coefficient(np.linspace(0.0, 1.0, 9)[1:])


@pytest.mark.parametrize("samples", [
    np.cos(2 * np.pi * np.linspace(0.0, 1.0, 9)),  # 1-d: not read as one 9-dimensional node
    np.ones((1, 2)),
    np.array([[1.0], [np.nan], [1.0]]),
])
def test_limit_cycle_refuses_malformed_samples(samples):
    with pytest.raises(InvalidSystemError, match="limit cycle samples"):
        LimitCycle(1.0, samples)


def _dec_from_multipliers(mus, period=1.0):
    from gfloquet.monodromy import FloquetDecomposition, principal_exponents

    mus = np.asarray(mus, dtype=complex)
    return FloquetDecomposition(
        multipliers=mus,
        exponents=principal_exponents(mus, period),
        converged=np.ones(len(mus), dtype=bool),
        modes=(),
        p_retained=len(mus),
        grid=PeriodicGrid(period, 16, 0.0),
    )


def test_verdict_stable_non_autonomous():
    rep = stability_verdict(_dec_from_multipliers([0.9, 0.5]))
    assert rep.verdict == "STABLE"
    assert rep.trivial_multiplier is None


def test_verdict_autonomous_trivial_identified():
    rep = stability_verdict(_dec_from_multipliers([1.0001, 0.3]), autonomous=True)
    assert rep.verdict == "STABLE"
    assert rep.trivial_multiplier == pytest.approx(1.0001)
    assert rep.trivial_error == pytest.approx(1e-4, rel=1e-6)
    assert rep.decisive_magnitude == pytest.approx(0.3)


def test_verdict_unstable_and_marginal():
    assert stability_verdict(_dec_from_multipliers([1.1, 0.2])).verdict == "UNSTABLE"
    assert stability_verdict(_dec_from_multipliers([1.0004, 0.2])).verdict == "MARGINAL"


def test_verdict_empty_raises():
    dec = _dec_from_multipliers([0.5])
    object.__setattr__(dec, "converged", np.zeros(1, dtype=bool))
    with pytest.raises(ValueError):
        stability_verdict(dec)


def test_van_der_pol_stability(vdp_cycle):
    period, samples = vdp_cycle
    cycle = LimitCycle(period, samples, wrap_tol=1e-6)
    nl = NonlinearMemorySystem(
        2, lambda y, t: np.array([y[1], (1.0 - y[0] ** 2) * y[1] - y[0]]))
    lin = linearize(nl, cycle, fd_step=1e-6)
    grid = PeriodicGrid(period, 256, 0.0)
    dec = floquet_spectrum(lin, grid, modes=2)
    rep = stability_verdict(dec, autonomous=True)
    assert rep.verdict == "STABLE"
    assert rep.trivial_error < 1e-3
    assert rep.decisive_magnitude < 1.0


def test_forced_scalar_textbook():
    system = LinearMemorySystem(1, lambda t: np.array([[-1.0]]),
                                forcing=lambda t: np.array([1.0]))
    grid = PeriodicGrid(1.0, 128, 0.0)
    traj = forced_response(system, grid, StateSegment(grid, np.zeros((1, 1))), 3.0)
    exact = 1.0 - np.exp(-traj.times)
    assert np.max(np.abs(traj.values[:, 0] - exact)) < 1e-8


def test_forced_matches_variation_of_constants():
    a = np.array([[0.0, 1.0], [-4.0, -0.1]])
    system = LinearMemorySystem(
        2, lambda t: a,
        forcing=lambda t: np.array([np.sin(2 * np.pi * t), np.cos(2 * np.pi * t)]))
    grid = PeriodicGrid(1.0, 512, 0.0)
    z0 = np.array([0.3, -0.2])
    traj = forced_response(system, grid, StateSegment(grid, z0.reshape(1, -1)), 2.0)
    oracle = variation_of_constants_response(system, grid, z0, 2.0)
    assert np.max(np.abs(traj.values - oracle.values)) < 1e-7


def test_forced_zero_forcing_matches_homogeneous():
    system = LinearMemorySystem(1, lambda t: np.array([[-0.7]]),
                                forcing=lambda t: np.array([0.0]))
    grid = PeriodicGrid(1.0, 64, 0.0)
    seg = StateSegment(grid, np.array([[1.2]]))
    forced = forced_response(system, grid, seg, 2.0)
    plain = step_integrate(system, grid, seg, 2.0)
    assert np.array_equal(forced.values, plain.values)


def test_forced_linearity():
    a = np.array([[-0.5, 0.3], [-0.3, -0.5]])
    grid = PeriodicGrid(1.0, 64, 0.0)
    zero = StateSegment(grid, np.zeros((1, 2)))

    def run(forcing):
        system = LinearMemorySystem(2, lambda t: a, forcing=forcing)
        return forced_response(system, grid, zero, 2.0).values

    b1 = lambda t: np.array([np.sin(2 * np.pi * t), 0.0])
    b2 = lambda t: np.array([0.0, np.cos(2 * np.pi * t)])
    combo = lambda t: 2.0 * b1(t) - 0.5 * b2(t)
    lhs = run(combo)
    rhs = 2.0 * run(b1) - 0.5 * run(b2)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_exponent_class_reconstruction_invariance():
    # z = r e^{lam s} is unchanged under lam -> lam + 2 pi i / T with
    # r -> r e^{-2 pi i s / T}
    from gfloquet.builtins import delay_pi_over_2

    system, meta = delay_pi_over_2()
    grid = PeriodicGrid(1.0, 96, 1.0)
    dec = floquet_spectrum(system, grid, modes=2)
    mode = dec.modes[0]
    sig = np.arange(grid.samples_per_period + 1) * grid.step
    lam = mode.exponent
    z1 = mode.samples[:, 0] * np.exp(lam * sig)
    shift = 2j * np.pi / grid.period
    z2 = (mode.samples[:, 0] * np.exp(-shift * sig)) * np.exp((lam + shift) * sig)
    assert np.max(np.abs(z1 - z2)) < 1e-8


def test_linearize_carries_the_kernel_onto_the_jacobian_of_g():
    # g(y) = y^2 about y = 1 + 0.5 cos 2 pi t: the linearized kernel is K 2 y(tau)
    ts = np.linspace(0.0, 1.0, 257)
    cycle = LimitCycle(1.0, (1.0 + 0.5 * np.cos(2 * np.pi * ts)).reshape(-1, 1))
    kern = lambda t, taus: np.exp(-(t - np.asarray(taus)) / 0.3)
    nl = NonlinearMemorySystem(1, lambda y, t: -y, memory_field=lambda y, t: y ** 2,
                               kernel=kern, memory_depth=0.5)
    lin = linearize(nl, cycle)
    for t in (0.0, 0.37, 0.9):
        taus = t - np.linspace(0.0, 0.5, 23)
        want = kern(t, taus) * 2.0 * (1.0 + 0.5 * np.cos(2 * np.pi * taus))
        got = lin.eval_kernel(t, taus)[:, 0, 0]
        assert np.max(np.abs(got - want)) <= 1e-8 * np.max(np.abs(want))


def test_verdict_groups_equal_exponents_into_one_class():
    # the double multiplier 0.5 shares one exponent; -0.3 is a class of its own
    rep = stability_verdict(_dec_from_multipliers([0.5, 0.5, -0.3]))
    assert sorted(len(cls) for cls in rep.exponent_classes) == [1, 2]
    double = next(cls for cls in rep.exponent_classes if len(cls) == 2)
    assert all(mu == pytest.approx(0.5) for _, mu in double)
