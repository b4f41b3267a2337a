"""Fixed-step RK4 integration of memory systems by the method of steps.

Delayed and convolution lookups only ever refer to already-computed history
(delays are required to be at least one step), so every step is explicit.
Several columns can be propagated at once by stacking them on a trailing axis;
the monodromy builder uses this to evolve all basis segments together.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .grid import PeriodicGrid, StateSegment, _cubic_weights, interp_uniform
from .system import LinearMemorySystem, quadrature_window

class ResolutionError(ValueError):
    pass


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    values: np.ndarray  # (len(times), n)

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]


def rk4_step(stage: Callable, z: np.ndarray, h: float) -> np.ndarray:
    """One classical RK4 step of size h from z.

    stage(frac) returns the right-hand side, as a function of the state, at
    frac steps past the start; it is called once per stage time, so k2 and k3
    share one evaluation of the terms that do not depend on the state.
    """
    k1 = stage(0.0)(z)
    half = stage(0.5)
    k2 = half(z + 0.5 * h * k1)
    k3 = half(z + 0.5 * h * k2)
    k4 = stage(1.0)(z + h * k3)
    return z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def propagate_history(
    system: LinearMemorySystem,
    grid: PeriodicGrid,
    hist0: np.ndarray | None,
    n_steps: int,
    include_forcing: bool = False,
    quadrature: str = "trapezoid",
) -> np.ndarray:
    """Advance the initial history block n_steps; returns (nh+1+n_steps, n, m).

    hist0=None is the unit basis, m = (nh+1)*n: column j starts from the j-th
    canonical unit segment, and the kernel window multiplies computed rows only.
    """
    n = system.dimension
    nh = grid.history_points
    h = grid.step
    unit = hist0 is None
    hist0 = np.eye(grid.state_size(n)).reshape(nh + 1, n, -1) if unit else np.asarray(hist0)
    if hist0.ndim == 2:
        hist0 = hist0[:, :, None]
    if hist0.shape[:2] != (nh + 1, n):
        raise ValueError(f"initial history has shape {hist0.shape}, expected ({nh + 1}, {n}, m)")
    for tap in system.delay_taps:
        if tap.delay < h * (1 - 1e-9):
            raise ResolutionError(
                f"delay {tap.delay} is not resolved by step {h}; refine the grid"
            )
        if tap.delay > grid.memory_depth * (1 + 1e-9):
            raise ResolutionError(f"delay {tap.delay} exceeds memory depth {grid.memory_depth}")
    dtype = np.result_type(hist0.dtype, float)
    hist = np.zeros((nh + 1 + n_steps, n, hist0.shape[2]), dtype=dtype)
    hist[: nh + 1] = hist0
    use_kernel = system.kernel is not None and nh > 0
    forcing = include_forcing and system.forcing is not None
    t0 = -nh * h
    # window nodes sigma - j*h, then the exact lower endpoint sigma - r when it
    # is off the lattice: sigma + taus0 gives them bitwise, the weights do not
    # depend on sigma, and node j > 0 lies offsets[j-1] steps back; built for
    # every system, so that an unknown quadrature name raises on each path
    taus0, w, n_uni = quadrature_window(grid, 0.0, quadrature)
    offsets = np.arange(1.0, len(taus0))
    offsets[n_uni - 1 :] = grid.memory_depth / h

    def stage(sigma, known, frac):
        # the right-hand side at sigma, frac steps past stored row `known`, as a
        # function of the stage value; the terms without it are evaluated here
        a = system.eval_coefficient(sigma)
        taps = []
        for tap in system.delay_taps:
            tau = sigma - tap.delay
            # the solution has a derivative kink where the initial history ends;
            # keep the interpolation stencil on one side of it
            if tau <= 0.0:
                zd = interp_uniform(hist[: nh + 1], t0, h, tau)[0]
            else:
                zd = interp_uniform(hist[nh : known + 1], 0.0, h, tau)[0]
            taps.append(system.eval_tap(tap, sigma) @ zd)
        if use_kernel:
            wk = w[:, None, None] * system.eval_kernel(sigma, sigma + taus0)
            # the nodes' cubic interpolation weights fold into w_j K_j, so the rest of
            # the integral is one weight row times a contiguous block of stored rows
            k0, c = _cubic_weights(known + frac - offsets, known + 1)
            lo = int(k0.min())
            # one bincount sums in the order of one np.add.at per stencil slot
            slot = (k0 - lo + np.arange(c.shape[1])[:, None])[:, :, None] * n * n + np.arange(n * n)
            g = np.bincount(slot.ravel(), (c.T[:, :, None, None] * wk[1:]).ravel(),
                            (known + 1 - lo) * n * n).reshape(-1, n, n).transpose(1, 0, 2)
            # unit initial rows: row j's weight goes to columns j*n .. j*n+n-1
            cut = max(lo, nh + 1) if unit else lo
            mem = g[:, cut - lo :].reshape(n, -1) @ hist[cut : known + 1].reshape(-1, hist.shape[2])
            mem[:, lo * n : cut * n] += g[:, : cut - lo].reshape(n, -1)
        if forcing:
            force = system.eval_forcing(sigma)[:, None]

        def rhs(Z):
            d = a @ Z
            for zd in taps:
                d = d + zd
            if use_kernel:
                d = d + wk[0] @ Z  # the node tau = sigma carries the stage value
                d = d + mem
            if forcing:
                d = d + force
            return d
        return rhs

    for step in range(n_steps):
        known = nh + step
        t = step * h
        hist[known + 1] = rk4_step(lambda frac: stage(t + frac * h, known, frac), hist[known], h)
    return hist


def _trajectory(system, grid, initial, span, include_forcing, quadrature) -> Trajectory:
    steps = span / grid.step
    n_steps = int(round(steps))
    if n_steps < 1 or abs(steps - n_steps) > 1e-9 * max(1.0, steps):
        raise ValueError(f"span {span} is not a positive multiple of the step {grid.step}")
    hist = propagate_history(system, grid, initial.samples[:, :, None], n_steps,
                             include_forcing=include_forcing, quadrature=quadrature)
    return Trajectory(np.arange(n_steps + 1) * grid.step, hist[grid.history_points:, :, 0])


def step_integrate(
    system: LinearMemorySystem,
    grid: PeriodicGrid,
    initial: StateSegment,
    span: float,
    quadrature: str = "trapezoid",
) -> Trajectory:
    """Integrate the homogeneous system from the initial history over [0, span]."""
    return _trajectory(system, grid, initial, span, False, quadrature)


def forced_response(
    system: LinearMemorySystem,
    grid: PeriodicGrid,
    initial: StateSegment,
    span: float,
    quadrature: str = "trapezoid",
) -> Trajectory:
    """Direct integration of the inhomogeneous system (forcing included)."""
    return _trajectory(system, grid, initial, span, True, quadrature)
