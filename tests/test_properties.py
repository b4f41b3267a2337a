"""Property-based checks of the structural invariants promised by the API."""
import numpy as np
from hypothesis import example, given, settings, strategies as st

from gfloquet import (
    LinearMemorySystem, PeriodicGrid, StateSegment, forced_response,
    multiplier_phases_to_k, principal_exponents, sort_multipliers,
)
from gfloquet.system import kernel_window
from gfloquet.bloch import _symmetrize_unit
from gfloquet.grid import interp_uniform

from bloch_oracles import kronig_penney_reference

complexes = st.complex_numbers(
    min_magnitude=1e-6, max_magnitude=1e6, allow_nan=False, allow_infinity=False)


@given(st.lists(complexes, min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
@example(mus=[1 + 0j, -1 - 0j])  # angle -pi folds to +pi
@example(mus=[1e6j, 0.0078125 + 999999.9999999999j])  # |mu| differ by 1e-10 < 1e-12 relative
def test_sorting_is_total_order(mus):
    mus = np.asarray(mus)
    order = sort_multipliers(mus)
    assert sorted(order) == list(range(len(mus)))
    s = mus[order]
    mags, angs = np.abs(s), np.angle(s)
    angs = np.where(angs <= -np.pi, np.pi, angs)  # branch (-pi, pi], as documented
    for i in range(len(s) - 1):
        assert mags[i] >= mags[i + 1] - 1e-12 * max(mags[i], 1.0)
        if abs(mags[i] - mags[i + 1]) <= 1e-12 * max(mags[i], 1.0):
            assert angs[i] <= angs[i + 1] + 1e-12


@given(st.lists(complexes, min_size=1, max_size=8),
       st.floats(min_value=0.1, max_value=20.0))
@settings(max_examples=60, deadline=None)
def test_principal_branch_and_exponential_consistency(mus, period):
    mus = np.asarray(mus)
    lam = principal_exponents(mus, period)
    assert np.all(lam.imag > -np.pi / period - 1e-12)
    assert np.all(lam.imag <= np.pi / period + 1e-12)
    back = np.exp(lam * period)
    assert np.max(np.abs(back - mus) / np.abs(mus)) < 1e-12


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.integers(min_value=8, max_value=512),
       st.floats(min_value=0.0, max_value=50.0))
@settings(max_examples=80, deadline=None)
@example(period=16.0, n=8, depth=5e-324)  # depth / step underflows to 0
def test_grid_invariants(period, n, depth):
    grid = PeriodicGrid(period, n, depth)
    assert abs(grid.step * n - period) < 1e-12 * period
    nh = grid.history_points
    # enough nodes to cover the memory window, but never a full node too many
    assert nh * grid.step >= depth * (1.0 - 1e-11)
    assert nh == 0 or (nh - 1) * grid.step < depth
    assert grid.state_size(3) == 3 * (nh + 1)
    assert len(grid.segment_nodes) == nh + 1
    assert grid.segment_nodes[-1] == 0.0


@given(st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=4, max_size=4),
       st.floats(min_value=0.0, max_value=7.0))
@settings(max_examples=80, deadline=None)
def test_interpolation_reproduces_cubics(coeffs, query):
    c0, c1, c2, c3 = coeffs
    poly = lambda t: c0 + c1 * t + c2 * t ** 2 + c3 * t ** 3
    h = 0.7
    nodes = np.arange(11) * h
    got = interp_uniform(poly(nodes).reshape(-1, 1), 0.0, h, query)[0, 0]
    scale = max(1.0, np.max(np.abs(poly(nodes))))
    assert abs(got - poly(query)) < 1e-10 * scale


@given(st.floats(min_value=0.05, max_value=3.0),
       st.integers(min_value=16, max_value=128))
@settings(max_examples=60, deadline=None)
def test_kernel_window_weights_sum_to_depth(depth, n):
    grid = PeriodicGrid(1.0, n, depth)
    taus, weights, _ = kernel_window(grid, 0.4)
    # trapezoid weights integrate 1 exactly over the window [sigma - r, sigma]
    assert abs(np.sum(weights) - depth) < 1e-12 * max(depth, 1.0)
    assert np.all(np.diff(taus) < 0)  # window walks backward from sigma
    assert abs(taus[0] - 0.4) < 1e-12
    assert abs(taus[-1] - (0.4 - depth)) < 1e-12


@given(st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=-2.0, max_value=2.0),
       st.floats(min_value=0.3, max_value=2.0))
@settings(max_examples=40, deadline=None)
def test_forced_response_linearity(w1, w2, span_scale):
    a = np.array([[-0.4, 0.2], [-0.2, -0.6]])
    grid = PeriodicGrid(1.0, 16, 0.0)
    zero = StateSegment(grid, np.zeros((1, 2)))
    span = round(span_scale * 16) * grid.step
    if span <= 0:
        span = grid.step

    def run(forcing):
        system = LinearMemorySystem(2, lambda t: a, forcing=forcing)
        return forced_response(system, grid, zero, span).values

    b1 = lambda t: np.array([np.sin(2 * np.pi * t), 0.0])
    b2 = lambda t: np.array([0.0, np.cos(2 * np.pi * t)])
    lhs = run(lambda t: w1 * b1(t) + w2 * b2(t))
    rhs = w1 * run(b1) + w2 * run(b2)
    assert np.max(np.abs(lhs - rhs)) < 1e-9 * max(abs(w1) + abs(w2), 1.0)


@given(st.lists(st.floats(min_value=-np.pi, max_value=np.pi), min_size=1, max_size=8),
       st.floats(min_value=0.2, max_value=5.0))
@settings(max_examples=80, deadline=None)
def test_phase_folding_range(phases, a):
    mus = np.exp(1j * np.array(phases))
    ks = multiplier_phases_to_k(mus, a)
    assert np.all(ks > -np.pi / a - 1e-12)
    assert np.all(ks <= np.pi / a + 1e-12)
    # exp(i k a) must reproduce the multiplier phase
    assert np.max(np.abs(np.exp(1j * ks * a) - mus)) < 1e-10


@given(st.lists(st.floats(min_value=-np.pi, max_value=np.pi), min_size=0, max_size=6))
@settings(max_examples=80, deadline=None)
def test_symmetrized_unit_set_closure(phases):
    mus = np.exp(1j * np.array(phases)) if phases else np.array([], dtype=complex)
    # the scan dedupes before symmetrizing; mirror that here
    dedup = []
    for mu in mus:
        if min((abs(mu - o) for o in dedup), default=np.inf) > 1e-7:
            dedup.append(mu)
    sym = _symmetrize_unit(np.asarray(dedup, dtype=complex), 1e-7)
    for mu in sym:
        # closed under conjugation and the reflection mu -> 1/conj(mu)
        assert np.min(np.abs(sym - np.conj(mu))) < 1e-6
        assert np.min(np.abs(sym - 1.0 / np.conj(mu))) < 1e-6
    # away from the self-conjugate points mu = +-1 (band edges) the count is even
    if len(sym) and np.min(np.abs(sym.imag)) > 1e-6:
        assert len(sym) % 2 == 0


@given(st.floats(min_value=1e-3, max_value=200.0),
       st.floats(min_value=0.2, max_value=4.0))
@settings(max_examples=80, deadline=None)
def test_kronig_penney_free_limit_always_allowed(energy, a):
    ref = kronig_penney_reference(0.0, a, energy)
    assert ref["allowed"]
    assert abs(ref["discriminant"]) <= 1.0 + 1e-12
    assert abs(np.cos(ref["k"] * a) - ref["discriminant"]) < 1e-10
