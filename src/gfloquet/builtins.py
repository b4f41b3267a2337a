"""Named example systems used by the CLI and the test suite.

Each builder returns a fully configured object plus the natural grid metadata
(period, memory depth) so callers only choose a resolution.
"""
from __future__ import annotations

import numpy as np

from .bloch import NonlocalPotential1D
from .perturbation import NonlinearMemorySystem
from .system import DelayTap, LinearMemorySystem, array_form, difference_kernel

# Tuning of the nonlocal example kernel, frozen after a parameter search:
# gamma = -80 with a cos(2 pi u) difference profile windowed to range 0.9
# produces an interior minimum of E(k) near k* = 2.45, E* = -11.0 and a
# four-mode propagating window, while every local example stays monotone.
SEPARABLE_GAMMA = -80.0
SEPARABLE_RANGE_FRACTION = 0.9


def scalar_cosine(alpha: float = 0.3, beta: float = 1.0, period: float = 1.0):
    """Scalar ODE z' = (alpha + beta cos(2 pi t / T)) z; exact multiplier
    exp(alpha T) since the cosine integrates to zero over a period."""
    omega = 2.0 * np.pi / period

    def coefficient(t):
        return np.array([[alpha + beta * np.cos(omega * t)]])

    system = LinearMemorySystem(1, coefficient)
    return system, {"period": period, "memory_depth": 0.0,
                    "exact_multiplier": float(np.exp(alpha * period))}


def delay_pi_over_2(period: float = 1.0):
    """z'(t) = -(pi/2) z(t - 1): the characteristic root is exactly i pi/2,
    so the dominant multipliers over a unit period are +-i."""

    def coefficient(t):
        return np.array([[0.0]])

    tap = DelayTap(1.0, lambda t: np.array([[-np.pi / 2.0]]))
    system = LinearMemorySystem(1, coefficient, delay_taps=(tap,))
    return system, {"period": period, "memory_depth": 1.0,
                    "exact_exponent": complex(0.0, np.pi / 2.0)}


def exp_kernel(a: float = 2.0, b: float = -9.0, theta: float = 0.3,
               period: float = 1.0, depth: float = None):
    """z' = a z + b * int e^{-(t-tau)/theta} z(tau) dtau, truncated at depth.

    With w(t) = b * int_{-inf}^t e^{-(t-tau)/theta} z(tau) dtau the pair obeys
    the memoryless system z' = a z + w, w' = b z - w/theta, so the exact
    multipliers are those of the constant matrix [[a, 1], [b, -1/theta]] over
    one period. The truncation depth controls how well the infinite-memory
    roots are reproduced.
    """
    if depth is None:
        # tail bound: cutting at r leaves int_r^inf |b| e^{-u/theta} = |b| theta e^{-r/theta}
        depth = theta * np.log(abs(b) * theta / 1e-12)

    def coefficient(t):
        return np.array([[a]])

    kernel = difference_kernel(lambda u: np.exp(-np.asarray(u) / theta),
                               scale=np.array([[b]]))
    system = LinearMemorySystem(1, coefficient, kernel=kernel)
    aug = np.array([[a, 1.0], [b, -1.0 / theta]])
    return system, {"period": period, "memory_depth": float(depth),
                    "augmented_matrix": aug}


def van_der_pol(mu: float = 1.0):
    """y1' = y2, y2' = mu (1 - y1^2) y2 - y1 (autonomous, memoryless)."""

    @array_form
    def f(y, t):  # y1 * y1: y1 ** 2 is x * x over an array but libm pow at a numpy scalar
        return np.stack([y[:, 1], mu * (1.0 - y[:, 0] * y[:, 0]) * y[:, 1] - y[:, 0]], axis=1)

    return NonlinearMemorySystem(2, f), {"autonomous": True}


def kronig_penney(strength: float = 3.0, a: float = 1.0):
    """Delta-comb crystal; the dimensionless strength P maps to the
    derivative jump g = 2P/a in hbar^2/2m = 1 units."""
    pot = NonlocalPotential1D(a, deltas=((0.0, 2.0 * strength / a),))
    return pot, {"strength": strength, "lattice_constant": a}


def separable_nonlocal(gamma: float = SEPARABLE_GAMMA, a: float = 1.0,
                       range_fraction: float = SEPARABLE_RANGE_FRACTION):
    """Rank-two separable kernel gamma [cos qx cos qx' + sin qx sin qx'] w(u)
    = gamma cos(q (x - x')) w(u), q = 2 pi / a, with a smooth half-cosine
    range window w. At the frozen default tuning the second band acquires an
    interior minimum (see module constant)."""
    r_w = range_fraction * a
    q = 2.0 * np.pi / a

    def kernel(x, xp):  # the window takes u's buffer: at most 3 arrays of the points' size
        u = x - np.asarray(xp, dtype=float)
        wave = gamma * np.cos(q * u)
        np.cos(np.divide(np.multiply(np.pi, u, out=u), 2.0 * r_w, out=u), out=u)
        return np.multiply(wave, np.square(u, out=u), out=wave)

    pot = NonlocalPotential1D(a, kernel=kernel, kernel_range=r_w)
    return pot, {"gamma": gamma, "lattice_constant": a, "kernel_range": r_w}


CATALOG = {
    "scalar_cosine": scalar_cosine,
    "delay_pi_over_2": delay_pi_over_2,
    "exp_kernel": exp_kernel,
    "van_der_pol": van_der_pol,
    "kronig_penney": kronig_penney,
    "separable_nonlocal": separable_nonlocal,
}
