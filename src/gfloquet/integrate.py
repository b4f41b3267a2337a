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

from .grid import (PeriodicGrid, StateSegment, _cubic_weights, _gather, interp_uniform,
                   quadrature_window)
from .system import LinearMemorySystem, kernel_windows

_BLOCK = 48  # delayed stage times interpolated in the initial history at once


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
    resume: np.ndarray | None = None,
) -> np.ndarray:
    """Advance the initial history hist0, (nh+1, n, m), n_steps; returns (nh+1+n_steps, n, m).

    hist0=None is the unit basis, m = (nh+1)*n: column j starts from the j-th
    canonical unit segment, and the result, (1+n_steps, n, m), holds its row at
    time 0 and the computed rows; the memory terms take the others in closed form.
    resume is a history an earlier call returned for the same system, grid,
    hist0 and include_forcing; the call then takes n_steps further steps after
    its last row and returns its rows followed by the new ones, bitwise equal
    to the history of one call that takes all the steps.
    """
    n = system.dimension
    nh = grid.history_points
    h = grid.step
    unit = hist0 is None
    hist0 = None if unit else np.asarray(hist0)
    if not unit and (hist0.ndim != 3 or hist0.shape[:2] != (nh + 1, n)):
        raise ValueError(f"initial history has shape {hist0.shape}, expected ({nh + 1}, {n}, m)")
    m = grid.state_size(n) if unit else hist0.shape[2]
    base = nh if unit else 0  # history row k is stored at k - base
    done = hist0 if resume is None else np.asarray(resume)
    if done is not None and (done.shape[1:] != (n, m) or len(done) < nh + 1 - base):
        raise ValueError(f"resumed history has shape {done.shape}, expected "
                         f"(k, {n}, {m}) with k >= {nh + 1 - base}")
    for tap in system.delay_taps:
        if tap.delay < h * (1 - 1e-9):
            raise ResolutionError(
                f"delay {tap.delay} is not resolved by step {h}; refine the grid"
            )
        if tap.delay > grid.memory_depth * (1 + 1e-9):
            raise ResolutionError(f"delay {tap.delay} exceeds memory depth {grid.memory_depth}")
    if done is None:  # the unit basis: its row at time 0 only
        hist = np.zeros((1 + n_steps, n, m))
        hist[0, :, nh * n :] = np.eye(n)
    else:
        hist = np.zeros((len(done) + n_steps, n, m), dtype=np.result_type(done.dtype, float))
        hist[: len(done)] = done
    start = len(hist) - n_steps - nh - 1 + base  # steps taken before this call
    use_kernel = system.kernel is not None and nh > 0
    forcing = include_forcing and system.forcing is not None

    # every stage time step*h + frac*h, frac = 0, 1/2, 1; A, each B_i and the
    # forcing are evaluated there once per propagation, K in kernel_windows' blocks
    steps = np.arange(start, start + n_steps)
    fracs = np.array([0.0, 0.5, 1.0])
    sigmas = ((steps * h)[:, None] + fracs * h).ravel()
    a_all = system.eval_coefficient(sigmas)
    f_all = system.eval_forcing(sigmas)[:, :, None] if forcing else None
    taps = [(tap.delay, system.eval_tap(tap, sigmas),
             _tap_stencils(sigmas - tap.delay, nh - base, h, start)) for tap in system.delay_taps]
    if use_kernel:
        # window nodes sigma - j*h, then the exact lower endpoint sigma - r when it
        # is off the lattice; node j > 0 lies offsets[j-1] steps back
        taus0, w, n_uni = quadrature_window(grid)
        offsets = np.arange(1.0, len(taus0))
        offsets[n_uni - 1 :] = grid.memory_depth / h
        # at a stage frac steps past stored row `known`, node j's cubic stencil sits
        # at known + frac - offsets[j-1]. For the grid-aligned nodes that is exact,
        # and once 4 rows are stored their stencils are the same relative to known:
        # set up once per frac. The endpoint's rounding moves with known, so its
        # stencils are set up for all stages in one call.
        ref = max(nh, 3)
        aligned = [_cubic_weights(ref + frac - offsets[: n_uni - 1], ref + 1) for frac in fracs]
        aligned = [(k0 - ref, c) for k0, c in aligned]
        short = 3 * max(0, 3 - nh - start)  # stages with fewer than 4 rows stored
        windows = (k for _, ks in kernel_windows(system, grid, sigmas) for k in ks)
        knowns = np.repeat(nh + steps, 3)[short:, None]
        end_k0, end_c = _cubic_weights(knowns + np.tile(fracs, n_steps)[short:, None]
                                       - offsets[n_uni - 1 :], knowns + 1)
        slots = {}

    def stage(i, known, frac):
        # the right-hand side at stage time i (called once per i, in order: it takes
        # the next kernel window), frac steps past stored row `known`, as a function
        # of the stage value; the terms without it are set up here
        a = a_all[i]
        tap_terms = []  # (first column, term)
        for (_, b, stencils), (col, early) in zip(taps, block):
            zd = early[i % _BLOCK] if stencils[i] is None else _gather(hist, *stencils[i])[0]
            tap_terms.append((col if stencils[i] is None else 0, b[i] @ zd))
        if use_kernel:
            wk = w[:, None, None] * next(windows)
            # the nodes' cubic interpolation weights fold into w_j K_j, so the rest of
            # the integral is one weight row times a contiguous block of stored rows
            if i < short:  # the full-degree stencil through every stored row
                k0, c = _cubic_weights(known + frac - offsets, known + 1)
            else:
                k0 = np.concatenate([known + aligned[i % 3][0], end_k0[i - short]])
                c = np.concatenate([aligned[i % 3][1], end_c[i - short]])
            lo = int(k0.min())
            # one bincount sums in the order of one np.add.at per stencil slot; the
            # endpoint, when there is one, is the lowest node, so the slots depend
            # on the stage only through frac, known - lo and the stencil width
            key = (i % 3, known - lo, c.shape[1])
            if key not in slots:
                slots[key] = ((k0 - lo + np.arange(c.shape[1])[:, None])[:, :, None] * n * n
                              + np.arange(n * n)).ravel()
            g = np.bincount(slots[key], (c.T[:, :, None, None] * wk[1:]).ravel(),
                            (known + 1 - lo) * n * n).reshape(-1, n, n).transpose(1, 0, 2)
            # unit initial rows: row j's weight goes to columns j*n .. j*n+n-1
            cut = max(lo, nh + 1) if unit else lo
            mem = g[:, cut - lo :].reshape(n, -1) @ hist[cut - base : known + 1 - base].reshape(-1, m)
            mem[:, lo * n : cut * n] += g[:, : cut - lo].reshape(n, -1)

        def rhs(Z):
            d = a @ Z
            for col, zd in tap_terms:
                d[:, col : col + zd.shape[1]] += zd
            if use_kernel:
                d = d + wk[0] @ Z  # the node tau = sigma carries the stage value
                d = d + mem
            if forcing:
                d = d + f_all[i]
            return d
        return rhs

    for step in range(n_steps):
        known = nh + start + step
        if step % (_BLOCK // 3) == 0:
            # the solution has a derivative kink where the initial history ends, so a
            # lookup before it reads the initial rows only. The next _BLOCK stage times'
            # are one interpolation among the rows lo..hi-1 they read (in node units),
            # blocked from this call's first step on; the unit basis stores none of
            # these rows, which are the identity in their own columns from lo*n on
            block = []
            for d, _, _ in taps:
                s = (sigmas[3 * step : 3 * step + _BLOCK] - d + nh * h) / h
                lo, top = _cubic_weights(np.minimum(s[[0, -1]], nh), nh + 1)[0]
                hi = min(top + 4, nh + 1)
                rows = np.eye((hi - lo) * n).reshape(hi - lo, n, -1) if unit else hist[lo:hi]
                block.append((lo * n if unit else 0, interp_uniform(rows, lo, 1.0, s)))
        hist[known + 1 - base] = rk4_step(
            lambda frac: stage(3 * step + int(2 * frac), known, frac), hist[known - base], h)
    return hist


def _tap_stencils(taus: np.ndarray, row0: int, h: float, start: int) -> list:
    """Per delayed stage time tau (three per step, from step `start` on): None
    when tau <= 0, else the rows of the history (its row at time 0 is row0) and
    the cubic weights, shaped for one `_gather`, of its lookup among the rows
    computed by then (the full-degree fallback while fewer than 4)."""
    out = [None] * len(taus)
    late = np.flatnonzero(~(taus <= 0.0))
    rows = start + late // 3 + 1  # computed rows from the one at tau = 0 on
    few = rows < 4
    for i, r in zip(late[few], rows[few]):
        k0, c = _cubic_weights(taus[i : i + 1] / h, int(r))
        out[i] = ((row0 + k0 + np.arange(r))[None], c)
    k0, c = _cubic_weights(taus[late[~few]] / h, rows[~few])
    for i, k, ci in zip(late[~few], k0, c):
        out[i] = ((row0 + k + np.arange(4))[None], ci[None])
    return out


def _trajectory(system, grid, initial, span, include_forcing) -> Trajectory:
    steps = span / grid.step
    n_steps = int(round(steps))
    if n_steps < 1 or abs(steps - n_steps) > 1e-9 * max(1.0, steps):
        raise ValueError(f"span {span} is not a positive multiple of the step {grid.step}")
    hist = propagate_history(system, grid, initial.samples[:, :, None], n_steps,
                             include_forcing=include_forcing)
    return Trajectory(np.arange(n_steps + 1) * grid.step, hist[grid.history_points:, :, 0])


def step_integrate(
    system: LinearMemorySystem,
    grid: PeriodicGrid,
    initial: StateSegment,
    span: float,
) -> Trajectory:
    """Integrate the homogeneous system from the initial history over [0, span]."""
    return _trajectory(system, grid, initial, span, False)


def forced_response(
    system: LinearMemorySystem,
    grid: PeriodicGrid,
    initial: StateSegment,
    span: float,
) -> Trajectory:
    """Direct integration of the inhomogeneous system (forcing included)."""
    return _trajectory(system, grid, initial, span, True)
