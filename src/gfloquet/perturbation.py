"""Linearization about limit cycles and stability verdicts."""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .grid import PeriodicGrid, periodic_derivative, periodic_interp
from .monodromy import FloquetDecomposition
from .system import (DelayTap, InvalidSystemError, LinearMemorySystem, apply_memory,
                     array_form, evaluate)

_UNIT_TOL = 1e-3  # a decisive |mu| within this of 1 is MARGINAL


@dataclass(frozen=True)
class NonlinearMemorySystem:
    """dy/dt = f(y, t) + L'{g(y, t), t} with L' built from delay taps and/or a
    bi-periodic convolution kernel acting on g. f and g may declare
    `system.array_form`: f(Y, T) maps states (P, n) and times (P,) to (P, n)."""

    dimension: int
    vector_field: Callable  # f(y, t) -> n-vector, T-periodic in t
    memory_field: Optional[Callable] = None  # g(y, t) -> n-vector
    delay_taps: tuple = ()  # DelayTap entries applied to g
    kernel: Optional[Callable] = None  # K(t, tau) applied to g, over pairs (P,), (P,)
    memory_depth: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "delay_taps", tuple(self.delay_taps))
        if self.kernel is not None:  # it takes arrays of (t, tau) pairs, so it is declared so
            object.__setattr__(self, "kernel", array_form(self.kernel))
        if (self.delay_taps or self.kernel is not None) and self.memory_field is None:
            raise InvalidSystemError("memory operator given but no memory field g")


@dataclass(frozen=True)
class LimitCycle:
    """T-periodic steady state sampled on N+1 uniform nodes (last row wraps)."""

    period: float
    samples: np.ndarray = field(repr=False)
    wrap_tol: float = 1e-8

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=float)
        if not (samples.ndim == 2 and len(samples) >= 2 and np.isfinite(samples).all()):
            raise InvalidSystemError("limit cycle samples must be finite and shaped "
                                     f"(nodes >= 2, dimension), got {samples.shape}")
        scale = max(float(np.abs(samples).max()), 1.0)
        wrap = float(np.max(np.abs(samples[-1] - samples[0])))
        if wrap > self.wrap_tol * scale:
            raise InvalidSystemError(
                f"limit cycle endpoint wrap residual {wrap:.3e} exceeds tolerance"
            )
        object.__setattr__(self, "samples", samples)

    @property
    def dimension(self) -> int:
        return self.samples.shape[1]

    def at(self, t):
        return periodic_interp(self.samples[:-1], self.period, t)

    def residual(self, nl: NonlinearMemorySystem, grid: PeriodicGrid) -> float:
        """Max defect of the nonlinear equation on the cycle nodes (5-point
        periodic derivative, the grid's memory quadrature)."""
        y = self.samples[:-1]
        h = self.period / y.shape[0]
        dy = periodic_derivative(y, h)
        # only the memory part of this system is ever applied
        n = self.dimension
        memory = LinearMemorySystem(n, None, nl.delay_taps, nl.kernel)
        g_at = lambda taus: evaluate(nl.memory_field, (self.at(taus), taus), (n,), "g")
        t = np.arange(y.shape[0]) * h
        rhs = apply_memory(memory, grid, t, g_at, evaluate(nl.vector_field, (y, t), (n,), "f"))
        return float(np.max(np.abs(dy - rhs)))


def linearize(
    nl: NonlinearMemorySystem,
    cycle: LimitCycle,
    fd_step: float = 1e-6,
) -> LinearMemorySystem:
    """Central-difference Jacobians of f and g along the cycle; the memory
    operator structure (taps, kernel) is carried over onto the linearization.
    A, each B_i and K declare `array_form`, and each call looks the cycle up
    once over all of its points."""
    scale = float(np.abs(cycle.samples).max())
    if not (0.0 < fd_step <= 1e-2 * max(scale, 1.0)):
        raise ValueError(f"fd_step {fd_step} outside (0, 1e-2*|y|]")
    n = cycle.dimension

    def jacobians(func, name, t):  # (len(t), n, n), or (n, n) at a scalar t
        ts = np.atleast_1d(np.asarray(t, dtype=float))
        ys = cycle.at(ts)
        steps = fd_step * (1.0 + np.abs(ys))
        jacs = np.empty((len(ts), n, n))
        for j in range(n):  # one central difference in y_j at every point
            yp = ys.copy(); yp[:, j] += steps[:, j]
            ym = ys.copy(); ym[:, j] -= steps[:, j]
            with np.errstate(invalid="ignore"):
                jacs[:, :, j] = (evaluate(func, (yp, ts), (n,), name)
                                 - evaluate(func, (ym, ts), (n,), name)) / (2 * steps[:, j, None])
        finite = np.isfinite(jacs).reshape(len(ts), -1).all(axis=1)
        if not finite.all():
            raise InvalidSystemError(f"non-finite Jacobian entries at t={ts[np.argmin(finite)]}")
        return jacs if np.ndim(t) else jacs[0]

    coefficient = array_form(lambda t: jacobians(nl.vector_field, "f", t))
    taps = tuple(
        DelayTap(tap.delay, array_form(
            lambda t, tap=tap: evaluate(tap.coefficient, t, (n, n), "B")
            @ jacobians(nl.memory_field, "g", t - tap.delay)))
        for tap in nl.delay_taps
    )
    kernel = None
    if nl.kernel is not None:

        @array_form
        def kernel(t, taus):
            taus = np.atleast_1d(taus)
            return np.einsum("tij,tjk->tik", evaluate(nl.kernel, (t, taus), (n, n), "K"),
                             jacobians(nl.memory_field, "g", taus))

    return LinearMemorySystem(n, coefficient, delay_taps=taps, kernel=kernel)


@dataclass
class StabilityReport:
    verdict: str  # STABLE | UNSTABLE | MARGINAL
    trivial_multiplier: Optional[complex]
    trivial_error: Optional[float]
    decisive_magnitude: float
    exponent_classes: tuple  # groups of (exponent, multiplier) with shared growth rate


def stability_verdict(
    decomposition: FloquetDecomposition,
    autonomous: bool = False,
) -> StabilityReport:
    """Classify the retained spectrum; for autonomous cycles the multiplier
    nearest 1 is the trivial phase mode and is excluded from the verdict."""
    retained = decomposition.retained
    if retained.size == 0:
        raise ValueError("empty retained spectrum; nothing to classify")
    exps = decomposition.exponents[decomposition.converged]
    trivial_mu = None
    trivial_err = None
    mask = np.ones(retained.size, dtype=bool)
    if autonomous:
        j = int(np.argmin(np.abs(retained - 1.0)))
        trivial_mu = complex(retained[j])
        trivial_err = float(abs(retained[j] - 1.0))
        mask[j] = False
    mags = np.abs(retained[mask])
    decisive = float(mags.max()) if mags.size else 0.0
    if decisive < 1.0 - _UNIT_TOL:
        verdict = "STABLE"
    elif decisive > 1.0 + _UNIT_TOL:
        verdict = "UNSTABLE"
    else:
        verdict = "MARGINAL"
    # group exponents into classes: same real part, imaginary parts equal
    # modulo the base frequency (principal branch makes them equal outright)
    classes = []
    used = np.zeros(retained.size, dtype=bool)
    base = 2 * np.pi / decomposition.grid.period
    for i in range(retained.size):
        if used[i]:
            continue
        members = [(complex(exps[i]), complex(retained[i]))]
        used[i] = True
        for j in range(i + 1, retained.size):
            if used[j]:
                continue
            same_re = abs(exps[i].real - exps[j].real) <= 1e-6 * max(1.0, abs(exps[i].real))
            dk = (exps[i].imag - exps[j].imag) / base
            if same_re and abs(dk - round(dk)) <= 1e-6:
                members.append((complex(exps[j]), complex(retained[j])))
                used[j] = True
        classes.append(tuple(members))
    return StabilityReport(verdict, trivial_mu, trivial_err, decisive, tuple(classes))

