"""Fixed-step RK4 integration of memory systems by the method of steps.

Delays are at least one step, so every lookup reads computed history. Where no
lookup reaches a row not yet computed, the memory terms are a known forcing g
of z' = A(sigma) z + g(sigma) (Bellen & Zennaro, Numerical Methods for Delay
Differential Equations, 2003), and its RK4 step is affine, z <- P_k z + q_k
(rk4_affine), with every P_k built at once. The steps go in blocks that end
before any stage whose tap lookup reads a row not stored at the block's start;
a block's lookups are one interpolation and one batched product per tap. A
kernel's window reads the newest row, so it is taken step by step. Columns
stacked on a trailing axis (all the monodromy's basis segments) go together.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (PeriodicGrid, StateSegment, _cubic_weights, _stencil_top, interp_uniform,
                   quadrature_window)
from .system import LinearMemorySystem, kernel_windows

_BLOCK = 48  # stage times of one block of steps at most, whose forcing is held at once


class ResolutionError(ValueError):
    pass


@dataclass(frozen=True)
class Trajectory:
    times: np.ndarray
    values: np.ndarray  # (len(times), n)

    @property
    def final(self) -> np.ndarray:
        return self.values[-1]


def rk4_affine(a: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """The classical RK4 step of z' = A z + g from z = 0, h/6 (k1 + 2 k2 + 2 k3 + k4).

    a holds A, (..., 3, n, n), and g, (..., 3, n, m), at the stage times 0,
    h/2 and h past the step's start. The step is linear in z and g, so it
    takes z to P z + rk4_affine(a, g, h), with P = I + rk4_affine(a, a, h).
    """
    k1 = g[..., 0, :, :]
    k2 = a[..., 1, :, :] @ (0.5 * h * k1) + g[..., 1, :, :]
    k3 = a[..., 1, :, :] @ (0.5 * h * k2) + g[..., 1, :, :]
    k4 = a[..., 2, :, :] @ (h * k3) + g[..., 2, :, :]
    return (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


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
    a_all = system.eval_coefficient(sigmas).reshape(n_steps, 3, n, n)
    f_all = system.eval_forcing(sigmas)[:, :, None] if forcing else None
    taps = [(tap.delay, system.eval_tap(tap, sigmas)) for tap in system.delay_taps]
    # a lookup at tau = sigma - d > 0 in step s reads the computed rows 0..s (from time 0
    # on) up to its stencil's top; `reach` is the last any stage of a step reads
    reach = np.full(n_steps, -1)
    for d, _ in taps:
        tau = sigmas - d
        top = _stencil_top(tau / h, np.repeat(steps, 3) + 1)
        reach = np.maximum(reach, np.where(tau > 0.0, top, -1).reshape(n_steps, 3).max(axis=1))
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

    def memory(i, known, frac):
        # stage time i's kernel (once per i, in order: it takes the next window), frac
        # steps past stored row `known`: w_0 K(sigma, sigma), and the rest of the window
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
        wf = np.bincount(slots[key], (c.T[:, :, None, None] * wk[1:]).ravel(),
                         (known + 1 - lo) * n * n).reshape(-1, n, n).transpose(1, 0, 2)
        # unit initial rows: row j's weight goes to columns j*n .. j*n+n-1
        cut = max(lo, nh + 1) if unit else lo
        mem = wf[:, cut - lo :].reshape(n, -1) @ hist[cut - base : known + 1 - base].reshape(-1, m)
        mem[:, lo * n : cut * n] += wf[:, : cut - lo].reshape(n, -1)
        return wk[0], mem

    p_all = None if use_kernel else np.eye(n) + rk4_affine(a_all, a_all, h)
    k = 0
    while k < n_steps:
        # a block of steps k..end-1: no stage in it reads a computed row beyond
        # the last one stored at its start, row start + k from time 0 on
        end = k + 1
        while end < min(n_steps, k + _BLOCK // 3) and reach[end] <= start + k:
            end += 1
        g = _block_forcing(hist, sigmas[3 * k : 3 * end],
                           [(d, b[3 * k : 3 * end]) for d, b in taps], start + k, unit, nh, h)
        if forcing:
            g = f_all[3 * k : 3 * end] if g is None else g + f_all[3 * k : 3 * end]
        g = None if g is None else g.reshape(end - k, 3, n, -1)
        q = None if g is None or use_kernel else rk4_affine(a_all[k:end], g, h)
        for j in range(k, end):
            known = nh + start + j
            z = hist[known - base]
            if use_kernel:
                wk0, mem = map(np.array, zip(*(memory(3 * j + f, known, frac)
                                               for f, frac in enumerate(fracs))))
                a = a_all[j] + wk0
                z = (np.eye(n) + rk4_affine(a, a, h)) @ z + rk4_affine(
                    a, mem if g is None else g[j - k] + mem, h)
            else:
                z = p_all[j] @ z if q is None else p_all[j] @ z + q[j - k]
            hist[known + 1 - base] = z
        k = end
    return hist


def _block_forcing(hist, sigmas, taps, row, unit, nh, h):
    """The taps' g at a block's stage times sigmas, each tap (d_i, B_i there),
    or None. The solution has a derivative kink where the initial history ends,
    so a lookup at tau <= 0 reads the initial rows only, one at tau > 0 the
    computed rows 0..row (from time 0 on)."""
    if not taps:
        return None
    _, n, m = hist.shape
    base = nh if unit else 0
    g = np.zeros((len(sigmas), n, m), dtype=hist.dtype)
    for d, b in taps:
        tau = sigmas - d
        early = np.flatnonzero(tau <= 0.0)
        if early.size:  # initial rows lo..hi-1, in node units; the unit basis stores
            # none of them: they are the identity in their own columns from lo*n on
            s = (sigmas[early] - d + nh * h) / h
            lo, top = _cubic_weights(np.minimum([s.min(), s.max()], nh), nh + 1)[0]
            hi = min(top + 4, nh + 1)
            rows = np.eye((hi - lo) * n).reshape(hi - lo, n, -1) if unit else hist[lo:hi]
            col = lo * n if unit else 0
            zd = interp_uniform(rows, lo, 1.0, s)
            g[early, :, col : col + zd.shape[2]] += b[early] @ zd
        late = np.flatnonzero(tau > 0.0)
        if late.size:
            g[late] += b[late] @ interp_uniform(hist[nh - base : nh + row + 1 - base], 0.0, h,
                                                tau[late])
    return g


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
