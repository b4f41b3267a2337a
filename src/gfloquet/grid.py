"""Uniform period/history grids, sampled state segments, and interpolation helpers."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class GridError(ValueError):
    pass


@dataclass(frozen=True)
class PeriodicGrid:
    """Uniform discretization of one period plus the trailing memory window.

    Nodes are spaced h = period / samples_per_period; the history window
    [-memory_depth, 0] is covered by history_points extra nodes so that
    history_points * h >= memory_depth. A positive memory_depth always gets
    at least one history node, even when memory_depth / h underflows to 0.
    quadrature names the rule of the memory window, "trapezoid" or "simpson"
    (see quadrature_window), which every kernel integral on this grid follows.
    """

    period: float
    samples_per_period: int
    memory_depth: float = 0.0
    quadrature: str = "trapezoid"

    def __post_init__(self):
        if not (self.period > 0 and np.isfinite(self.period)):
            raise GridError(f"period must be positive and finite, got {self.period}")
        n = self.samples_per_period
        if not (isinstance(n, (int, np.integer)) and n >= 8):
            raise GridError(f"samples_per_period must be an integer >= 8, got {n!r}")
        if not (self.memory_depth >= 0 and np.isfinite(self.memory_depth)):
            raise GridError(f"memory_depth must be non-negative, got {self.memory_depth}")
        if self.quadrature not in ("trapezoid", "simpson"):
            raise GridError(f"unknown quadrature {self.quadrature!r}")

    @property
    def step(self) -> float:
        return self.period / self.samples_per_period

    @property
    def history_points(self) -> int:
        # relative fuzz so that e.g. r = k*h computed in floating point does not
        # spuriously round up to k+1 nodes
        x = self.memory_depth / self.step
        nh = int(math.ceil(x - abs(x) * 1e-12))
        return max(nh, 1) if self.memory_depth > 0 else nh

    @property
    def segment_nodes(self) -> np.ndarray:
        """Nodes of the history window, [-history_points*h, ..., -h, 0]."""
        nh = self.history_points
        return (np.arange(nh + 1) - nh) * self.step

    @property
    def period_nodes(self) -> np.ndarray:
        """Nodes of one period, [0, h, ..., period]."""
        return np.arange(self.samples_per_period + 1) * self.step

    def refined(self) -> "PeriodicGrid":
        return PeriodicGrid(self.period, self.samples_per_period * 2, self.memory_depth,
                            self.quadrature)

    def state_size(self, dimension: int) -> int:
        return dimension * (self.history_points + 1)


def quadrature_window(grid: PeriodicGrid):
    """Nodes/weights of the grid's quadrature rule on the memory window [-r, 0];
    node sigma's window has the nodes sigma + taus (bitwise sigma - j*h, sigma - r).

    Returns (taus, weights, n_uniform): the first n_uniform nodes are the
    grid-aligned points -j*h (so that during stepping every interior node
    refers to already-known history); an extra node at the exact lower
    endpoint -r is appended when the aligned nodes stop short of it, and that
    remainder is closed with a trapezoid. "trapezoid" covers the aligned nodes
    with the trapezoid rule; "simpson", given at least 4 history points,
    covers [-M*h, 0] with M even by composite Simpson, leaving a remainder at
    most two steps wide, where an admissible kernel is near its truncation floor.
    """
    r = grid.memory_depth
    h = grid.step
    nh = grid.history_points
    if nh == 0 or r == 0.0:
        return np.array([0.0]), np.array([0.0]), 1
    if nh == 1:
        taus = np.array([0.0, -r])
        return taus, np.array([r / 2.0, r / 2.0]), 1
    if grid.quadrature == "simpson" and nh >= 4:
        m = nh - 1 if (nh - 1) % 2 == 0 else nh - 2
        w = np.full(m + 1, 2.0)
        w[1::2] = 4.0
        w[0] = 1.0
        w[-1] = 1.0
        w *= h / 3.0
    else:
        m = nh - 1
        w = np.full(m + 1, h)
        w[0] = h / 2.0
        w[-1] = h / 2.0
    taus = 0.0 - np.arange(m + 1) * h
    bottom = r - m * h
    if bottom > 1e-12 * h:
        taus = np.append(taus, -r)
        w[-1] += bottom / 2.0
        w = np.append(w, bottom / 2.0)
    return taus, w, m + 1


@dataclass(frozen=True)
class StateSegment:
    """Samples of the state history on the nodes of [-memory_depth, 0]."""

    grid: PeriodicGrid
    samples: np.ndarray = field(repr=False)

    def __post_init__(self):
        samples = np.atleast_2d(np.asarray(self.samples))
        if samples.shape[0] != self.grid.history_points + 1:
            raise GridError(
                f"segment needs {self.grid.history_points + 1} sample rows, got {samples.shape[0]}"
            )
        if not np.all(np.isfinite(samples)):
            raise GridError("segment samples must be finite")
        object.__setattr__(self, "samples", samples)


def _lagrange4(u: np.ndarray) -> np.ndarray:
    """Cubic Lagrange weights of the nodes -1, 0, 1, 2 at offset u, on a trailing axis."""
    return np.stack([-u * (u - 1) * (u - 2) / 6.0, (u + 1) * (u - 1) * (u - 2) / 2.0,
                     -(u + 1) * u * (u - 2) / 2.0, (u + 1) * u * (u - 1) / 6.0], axis=-1)


def _cubic_weights(s: np.ndarray, length: int):
    """Stencil base index and weights of piecewise-cubic Lagrange interpolation.

    s holds query positions in node units on `length` uniform nodes (node j at
    s = j); the interpolant at s is sum_i w[..., i] * values[k0 + i], w shaped
    like s plus a trailing stencil axis. With fewer than 4 nodes the stencil is
    the full-degree polynomial through all of them. length may also be an
    array shaped like s, one node count per query, each at least 4.
    """
    if np.ndim(length) == 0 and length < 4:
        # low-order fallback for very short histories
        ws = []
        for i in range(length):
            w = np.ones_like(s)
            for j in range(length):
                if j != i:
                    w = w * (s - j) / (i - j)
            ws.append(w)
        return np.zeros(s.shape, dtype=int), np.stack(ws, axis=-1)
    k0 = _stencil_top(s, length) - 3
    return k0, _lagrange4(s - (k0 + 1))


def _stencil_top(s: np.ndarray, length) -> np.ndarray:
    """The last node that _cubic_weights(s, length)'s stencil reads."""
    return np.minimum(np.maximum(np.floor(s).astype(int) + 2, 3), length - 1)


def _gather(values: np.ndarray, idx: np.ndarray, w: np.ndarray) -> np.ndarray:
    """sum_i w[:, i] * values[idx[:, i]], over the stencil slots in order."""
    extra = (None,) * (values.ndim - 1)
    return np.sum(w[(...,) + extra] * values[idx], axis=1)


def interp_uniform(values: np.ndarray, t0: float, h: float, query) -> np.ndarray:
    """Piecewise-cubic Lagrange interpolation on uniform nodes t0 + j*h.

    values has the node axis first; query may be scalar or 1-d. Falls back to
    the full-degree Lagrange polynomial when fewer than 4 nodes are available.
    """
    values = np.asarray(values)
    q = np.atleast_1d(np.asarray(query, dtype=float))
    k0, w = _cubic_weights((q - t0) / h, values.shape[0])
    return _gather(values, k0[:, None] + np.arange(w.shape[-1]), w)


def periodic_derivative(samples: np.ndarray, h: float) -> np.ndarray:
    """5-point (4th-order) centred derivative of a periodic signal sampled on N
    uniform nodes of step h (N rows; the wrap node at the period is left out)."""
    y = np.asarray(samples)
    n = y.shape[0]
    idx = np.arange(n)
    return (
        -y[(idx + 2) % n] + 8 * y[(idx + 1) % n]
        - 8 * y[(idx - 1) % n] + y[(idx - 2) % n]
    ) / (12 * h)


def periodic_interp(samples: np.ndarray, period: float, query) -> np.ndarray:
    """Cubic interpolation of a periodic signal sampled uniformly on [0, period).

    samples holds N rows (the node at `period` is the wrap of node 0).
    """
    samples = np.asarray(samples)
    n = samples.shape[0]
    q = np.atleast_1d(np.asarray(query, dtype=float))
    s = (q / (period / n)) % n
    j = np.floor(s).astype(int)
    return _gather(samples, (j[:, None] + np.arange(-1, 3)) % n, _lagrange4(s - j))
