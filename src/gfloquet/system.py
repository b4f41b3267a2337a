"""Linear periodic systems with memory: coefficient, delay taps, convolution kernel."""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import (PeriodicGrid, StateSegment, interp_uniform, periodic_interp,
                   quadrature_window)

VALIDATION_TOL = 1e-10
# kernel_windows takes about this many (sigma, tau) pairs per kernel call: every
# node at once made memory grow with N, one node per call costs a call per node
_LOOKUPS = 4096


class InvalidSystemError(ValueError):
    pass


@dataclass(frozen=True)
class DelayTap:
    delay: float
    coefficient: Callable  # B_i(sigma) -> (n, n)

    def __post_init__(self):
        if not self.delay > 0:
            raise InvalidSystemError(f"delay must be positive, got {self.delay}")


@dataclass(frozen=True)
class LinearMemorySystem:
    """dz/dsigma = A(s) z(s) + sum_i B_i(s) z(s - d_i) + int_{s-r}^{s} K(s,t) z(t) dt + b(s).

    All evaluators are callbacks of one point: A and B_i take a scalar sigma
    and return an (n, n) array (a scalar when n = 1), the kernel takes one
    pair (sigma, tau) and returns K(sigma, tau) the same way, the forcing
    takes sigma and returns an n-vector. Each may declare `array_form`: it is
    then handed a 1-d array of sigma (two of one length, sigma and tau, for
    the kernel) instead and returns its values stacked on a leading axis,
    (len,) when each is a single number, bitwise those of its per-point form,
    which a wrapper that drops the declaration gets.
    """

    dimension: int
    coefficient: Callable
    delay_taps: tuple = ()
    kernel: Optional[Callable] = None
    forcing: Optional[Callable] = None

    def __post_init__(self):
        if self.dimension < 1:
            raise InvalidSystemError("dimension must be >= 1")
        object.__setattr__(self, "delay_taps", tuple(self.delay_taps))

    def eval_coefficient(self, sigma) -> np.ndarray:  # sigma scalar or 1-d (see evaluate)
        return evaluate(self.coefficient, sigma, (self.dimension,) * 2, "A")

    def eval_tap(self, tap: DelayTap, sigma) -> np.ndarray:
        return evaluate(tap.coefficient, sigma, (self.dimension,) * 2, "B")

    def eval_kernel(self, sigma, taus) -> np.ndarray:  # sigma broadcast against taus, >= 1-d
        sigma, taus = np.broadcast_arrays(sigma, np.atleast_1d(taus))
        return evaluate(self.kernel, (sigma, taus), (self.dimension,) * 2, "K")

    def eval_forcing(self, sigma: float) -> np.ndarray:
        return evaluate(self.forcing, sigma, (self.dimension,), "b")


def array_form(fn: Callable) -> Callable:
    """fn, declared to take 1-d arrays of points (one per argument, of one
    length) and return its values there stacked on a leading axis; a callable
    already declared is returned as it is."""
    if getattr(fn, "array_form", False):
        return fn
    declared = functools.wraps(fn)(lambda *args: fn(*args))
    declared.array_form = True
    return declared


def evaluate(fn: Callable, points, shape: tuple, name: str) -> np.ndarray:
    """fn over points as points.shape + shape (a tuple of arrays passes one
    argument each, led by the last one's shape: a field's states (P, n) and
    times (P,), a kernel's sigma and tau). The point axes are flattened once:
    a callback declaring `array_form` gets every point in one call, any other
    one point (one scalar pair) per call. A wrong shape raises InvalidSystemError."""
    args = [np.asarray(p, dtype=float)
            for p in (points if isinstance(points, tuple) else (points,))]
    pts = args[-1].shape
    flat = [a.reshape((-1,) + a.shape[len(pts):]) for a in args]
    if getattr(fn, "array_form", False):
        out = _fit(fn(*flat), flat[-1].shape[:1] + shape, shape, name, None)
    else:
        out = np.array([_fit(fn(*row), shape, shape, name, row) for row in zip(*flat)])
    return out.reshape(pts + shape)


def _fit(value, want: tuple, shape: tuple, name: str, args) -> np.ndarray:
    value = np.asarray(value, dtype=float)
    if value.shape == want:
        return value
    # reshaped where it cannot be misread: one number per point, or a leading 1
    if value.shape == (1,) + want or (math.prod(shape) == 1 and value.size == math.prod(want)):
        return value.reshape(want)
    at = (f" over {math.prod(want[:len(want) - len(shape)])} points" if args is None
          else f"({', '.join(map(str, args))})")
    raise InvalidSystemError(f"{name}{at} has shape {value.shape}, expected {want}")


@dataclass
class ValidationReport:
    passed: bool
    coefficient_residual: float
    tap_residuals: tuple
    kernel_residual: float
    kernel_integral_bound: float
    messages: tuple = ()


def validate_system(system: LinearMemorySystem, grid: PeriodicGrid) -> ValidationReport:
    """Check Sigma-periodicity of A and B_i, bi-periodicity of K, and the
    boundedness of the kernel integral, on the grid nodes of [-r, Sigma]. A
    kernel on a grid with no history node fails: its integral would be dropped."""
    sig = grid.period
    nodes = np.concatenate([grid.segment_nodes[:-1], grid.period_nodes])
    msgs = []

    def residual_of(m0, m1, name, at):  # m0 at the nodes `at`, m1 one period later
        finite = (np.isfinite(m0) & np.isfinite(m1)).reshape(len(at), -1).all(axis=1)
        if not finite.all():
            raise InvalidSystemError(f"non-finite {name} at node sigma={at[np.argmin(finite)]}")
        return float(np.max(np.abs(m1 - m0)))

    coeff_res = residual_of(system.eval_coefficient(nodes), system.eval_coefficient(nodes + sig),
                            "A", nodes)
    tap_res = tuple(residual_of(system.eval_tap(tap, nodes), system.eval_tap(tap, nodes + sig),
                                "B", nodes) for tap in system.delay_taps)
    kern_res = 0.0
    bound = 0.0
    if system.kernel is not None:  # each period node against its window, block by block
        w = quadrature_window(grid)[1]
        at = grid.period_nodes
        blocks = [(residual_of(k0, k1, "kernel", taus[:, 0]),  # a window's node 0 is sigma
                   np.max(np.linalg.norm(k0, axis=(2, 3)) @ w))
                  for (taus, k0), (_, k1) in zip(kernel_windows(system, grid, at),
                                                 kernel_windows(system, grid, at + sig))]
        kern_res, bound = (float(v) for v in np.max(blocks, axis=0))
    passed = coeff_res <= VALIDATION_TOL and kern_res <= VALIDATION_TOL and np.isfinite(bound)
    for i, tr in enumerate(tap_res):
        if tr > VALIDATION_TOL:
            passed = False
            msgs.append(f"delay tap {i} periodicity residual {tr:.3e}")
    if coeff_res > VALIDATION_TOL:
        msgs.append(f"coefficient periodicity residual {coeff_res:.3e}")
    if kern_res > VALIDATION_TOL:
        msgs.append(f"kernel bi-periodicity residual {kern_res:.3e}")
    if system.kernel is not None and grid.history_points == 0:
        passed = False
        msgs.append("kernel window empty at memory_depth 0: set it to the kernel's reach")
    return ValidationReport(passed, coeff_res, tap_res, kern_res, bound, tuple(msgs))


def kernel_windows(system: LinearMemorySystem, grid: PeriodicGrid, sigmas: np.ndarray):
    """Yield, per block of max(1, _LOOKUPS // window) consecutive sigmas (1-d),
    the quadrature window nodes taus = sigma + quadrature_window(grid)[0],
    (block, window), and K there, (block, window, n, n), from one kernel call."""
    taus0 = quadrature_window(grid)[0]
    step = max(1, _LOOKUPS // len(taus0))
    for lo in range(0, len(sigmas), step):
        part = sigmas[lo : lo + step, None]
        taus = part + taus0
        yield taus, system.eval_kernel(part, taus)


def apply_memory(system: LinearMemorySystem, grid: PeriodicGrid, sigmas: np.ndarray,
                 z_at: Callable, out: np.ndarray) -> np.ndarray:
    """Return out plus the memory part of L{z} at each of sigmas, one row per
    sigma: the delay taps, then the kernel integral over the grid's quadrature
    window, taken from kernel_windows block by block.

    sigmas is a 1-d array of times; z_at maps a 1-d array of times to the
    values of z there, one row per time.
    """
    for tap in system.delay_taps:
        out = out + (system.eval_tap(tap, sigmas) @ z_at(sigmas - tap.delay)[:, :, None])[:, :, 0]
    if system.kernel is not None:
        w = quadrature_window(grid)[1]
        out = out + np.concatenate([
            np.einsum("t,stij,stj->si", w, kmat, z_at(taus.ravel()).reshape(taus.shape + (-1,)))
            for taus, kmat in kernel_windows(system, grid, sigmas)])
    return out


def shift_commutation_residual(
    system: LinearMemorySystem, grid: PeriodicGrid, probe: StateSegment
) -> float:
    """max-norm of L{T z} - T{L z} on one period, with z the probe extended by
    integration over [0, 2*Sigma]. Zero to quadrature accuracy iff the system
    commutes with the period shift (bi-periodic coefficients)."""
    from .integrate import propagate_history

    sig = grid.period
    n_steps = 2 * grid.samples_per_period
    hist0 = probe.samples[:, :, None].astype(float)
    hist = propagate_history(system, grid, hist0, n_steps, include_forcing=False)
    z = hist[:, :, 0]
    t0 = -grid.history_points * grid.step

    def apply_operator(sigmas, shift):
        # L{z(. + shift)} at sigmas: the grid's memory window, off-node values
        # by piecewise-cubic interpolation of the samples
        def z_at(times):
            return interp_uniform(z, t0, grid.step, times + shift)

        out = (system.eval_coefficient(sigmas) @ z_at(sigmas)[:, :, None])[:, :, 0]
        return apply_memory(system, grid, sigmas, z_at, out)

    nodes = grid.period_nodes
    return float(np.max(np.abs(apply_operator(nodes, sig) - apply_operator(nodes + sig, 0.0))))


def tabulated_coefficient(samples: np.ndarray, period: float) -> Callable:
    """Adapter turning uniform samples of a Sigma-periodic matrix (or number)
    over [0, Sigma) into an evaluator (cubic periodic interpolation)."""
    samples = np.asarray(samples, dtype=float)

    @array_form
    def evaluator(sigma):
        out = periodic_interp(samples, period, sigma)
        return out if np.ndim(sigma) else out[0]

    return evaluator


def difference_kernel(profile: Callable, scale=None) -> Callable:
    """Kernel K(sigma, tau) = C * profile(sigma - tau), declared `array_form`
    over (sigma, tau) pairs; constant-coefficient difference kernels are
    automatically bi-periodic."""

    @array_form
    def kernel(sigma, taus):
        vals = np.asarray(profile(np.asarray(sigma, dtype=float) - taus), dtype=float)
        return vals[..., None, None] * (1.0 if scale is None else np.asarray(scale, dtype=float))

    return kernel
