"""Fixed-step RK4 integration of memory systems by the method of steps.

Delayed and convolution lookups only ever refer to already-computed history
(delays are required to be at least one step), so every step is explicit.
Several columns can be propagated at once by stacking them on a trailing axis;
the monodromy builder uses this to evolve all basis segments together.
"""
from __future__ import annotations

from dataclasses import dataclass

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


def propagate_history(
    system: LinearMemorySystem,
    grid: PeriodicGrid,
    hist0: np.ndarray,
    n_steps: int,
    include_forcing: bool = False,
    quadrature: str = "trapezoid",
) -> np.ndarray:
    """Advance the initial history block n_steps; returns (nh+1+n_steps, n, m)."""
    n = system.dimension
    nh = grid.history_points
    h = grid.step
    hist0 = np.asarray(hist0)
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
    window = quadrature_window(quadrature)
    t0 = -nh * h

    def rhs(sigma, Z, known, frac):
        # sigma lies frac steps past the last stored row `known`
        d = system.eval_coefficient(sigma) @ Z
        for tap in system.delay_taps:
            tau = sigma - tap.delay
            # the solution has a derivative kink where the initial history ends;
            # keep the interpolation stencil on one side of it
            if tau <= 0.0:
                zd = interp_uniform(hist[: nh + 1], t0, h, tau)[0]
            else:
                zd = interp_uniform(hist[nh : known + 1], 0.0, h, tau)[0]
            d = d + system.eval_tap(tap, sigma) @ zd
        if use_kernel:
            taus, w, n_uni = window(grid, sigma)
            wk = w[:, None, None] * system.eval_kernel(sigma, taus)
            d = d + wk[0] @ Z  # the node tau = sigma carries the stage value
            # nodes sigma - j*h, then the exact lower endpoint sigma - r when it
            # is off the lattice; their cubic interpolation weights fold into
            # w_j K_j, so the rest of the integral is one weight row times a
            # contiguous block of stored rows
            offsets = np.arange(1.0, len(taus))
            offsets[n_uni - 1 :] = grid.memory_depth / h
            k0, c = _cubic_weights(known + frac - offsets, known + 1)
            lo = int(k0.min())
            g = np.zeros((known + 1 - lo, n, n), dtype=wk.dtype)
            for i, ci in enumerate(c):
                np.add.at(g, k0 - lo + i, ci[:, None, None] * wk[1:])
            g = g.transpose(1, 0, 2).reshape(n, -1)
            d = d + g @ hist[lo : known + 1].reshape(-1, hist.shape[2])
        if include_forcing and system.forcing is not None:
            d = d + system.eval_forcing(sigma)[:, None]
        return d

    for step in range(n_steps):
        known = nh + step
        t = step * h
        Z = hist[known]
        k1 = rhs(t, Z, known, 0.0)
        k2 = rhs(t + 0.5 * h, Z + 0.5 * h * k1, known, 0.5)
        k3 = rhs(t + 0.5 * h, Z + 0.5 * h * k2, known, 0.5)
        k4 = rhs(t + h, Z + h * k3, known, 1.0)
        hist[known + 1] = Z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return hist


def _check_span(grid: PeriodicGrid, span: float) -> int:
    steps = span / grid.step
    n_steps = int(round(steps))
    if n_steps < 1 or abs(steps - n_steps) > 1e-9 * max(1.0, steps):
        raise ValueError(f"span {span} is not a positive multiple of the step {grid.step}")
    return n_steps


def step_integrate(
    system: LinearMemorySystem,
    grid: PeriodicGrid,
    initial: StateSegment,
    span: float,
    quadrature: str = "trapezoid",
) -> Trajectory:
    """Integrate the homogeneous system from the initial history over [0, span]."""
    n_steps = _check_span(grid, span)
    hist = propagate_history(
        system, grid, initial.samples[:, :, None], n_steps, include_forcing=False,
        quadrature=quadrature,
    )
    nh = grid.history_points
    times = np.arange(n_steps + 1) * grid.step
    return Trajectory(times, hist[nh:, :, 0])
