"""Monodromy operators, Floquet spectra, periodic modes, and decomposition checks."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .grid import PeriodicGrid, periodic_derivative, periodic_interp
from .integrate import propagate_history
from .system import LinearMemorySystem, apply_memory

DEFAULT_CONVERGENCE_TOL = 1e-4
DEFAULT_MODES = 8
_DENSE_EIG_LIMIT = 900
_TIE_RTOL = 1e-12  # relative magnitude gap below which multipliers tie
_REPEAT_RTOL = 1e-8  # relative distance below which multipliers are one repeated
_MAX_DOUBLINGS = 60  # of the kernel tail's blocks, and of the truncation depth


class ConvergenceError(RuntimeError):
    pass


class NonTruncatableError(RuntimeError):
    pass


@dataclass(frozen=True)
class MonodromyOperator:
    """The period-shift map on discretized history segments, kept with the
    propagation it is read from.

    history is the (1+N, n, m) unit-basis propagation over one period; the matrix,
    built on demand, shifts by s = min(N*n, m) rows and ends in its last s rows, X.
    """

    history: np.ndarray = field(repr=False)
    grid: PeriodicGrid

    def __post_init__(self):
        if not np.all(np.isfinite(self.history)):
            raise ValueError("monodromy matrix must be finite")

    @property
    def size(self) -> int:
        return self.history.shape[2]

    @property
    def _computed(self) -> np.ndarray:
        """X, the matrix's last s = min(N*n, m) rows (a view of the history)."""
        rows = min(self.grid.samples_per_period, self.grid.history_points + 1)
        return self.history[-rows:].reshape(-1, self.size)

    @property
    def matrix(self) -> np.ndarray:
        x = self._computed
        mat = np.eye(self.size, k=len(x), dtype=x.dtype)  # row i < m - s is unit row i + s
        mat[self.size - len(x) :] = x
        return mat


@dataclass(frozen=True)
class PeriodicMode:
    multiplier: complex
    exponent: complex
    samples: np.ndarray = field(repr=False)  # (N+1, n) complex, r_j on one period
    periodicity_residual: float = 0.0


@dataclass(frozen=True)
class FloquetDecomposition:
    """The spectrum of the operator built on `grid`, and that operator.

    operator is kept so that verify_floquet_form can continue its unit-basis
    propagation instead of repeating it; verify refuses a decomposition
    without one (None).
    """

    multipliers: np.ndarray  # sorted: |mu| descending, ties by ascending phase
    exponents: np.ndarray  # principal branch, Im in (-pi/Sigma, pi/Sigma]
    converged: np.ndarray  # bool per multiplier (two-grid agreement)
    modes: tuple  # PeriodicMode for the leading retained multipliers
    p_retained: int
    grid: PeriodicGrid
    operator: MonodromyOperator | None = field(default=None, repr=False)

    @property
    def retained(self) -> np.ndarray:
        return self.multipliers[self.converged]


def _folded_phase(mus: np.ndarray) -> np.ndarray:
    """Multiplier phases on the principal branch (-pi, pi]."""
    phase = np.angle(mus)
    return np.where(phase <= -np.pi, np.pi, phase)


def sort_multipliers(mus: np.ndarray):
    """Deterministic total order: magnitude descending, ties by ascending phase.

    Magnitudes within _TIE_RTOL relative count as tied: a magnitude m joins the
    group of the largest remaining magnitude M when M - m <= _TIE_RTOL * max(m, 1),
    and each group is ordered by phase on (-pi, pi]. The order of a conjugate
    pair therefore does not depend on last-bit rounding of its magnitudes.
    """
    mus = np.asarray(mus)
    mags = np.abs(mus)
    phase = _folded_phase(mus)
    group = np.empty(len(mags), dtype=int)
    top, k = np.inf, -1
    for i in np.lexsort((phase, -mags)):
        if top - mags[i] > _TIE_RTOL * max(mags[i], 1.0):
            top, k = mags[i], k + 1
        group[i] = k
    return np.lexsort((phase, group))


def principal_exponents(mus: np.ndarray, period: float) -> np.ndarray:
    phase = _folded_phase(mus)
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero mu gives -inf + nan i
        return (np.log(np.abs(mus)) + 1j * phase) / period


def build_monodromy(
    system: LinearMemorySystem,
    grid: PeriodicGrid,
) -> MonodromyOperator:
    """Column j of the result is the history segment at time Sigma reached from
    the j-th canonical unit segment (forcing is ignored)."""
    hist = propagate_history(system, grid, None, grid.samples_per_period, include_forcing=False)
    return MonodromyOperator(hist, grid)


def _eig_leading(operator: MonodromyOperator, k: int) -> np.ndarray:
    """Leading-magnitude eigenvalues of the operator's matrix: all of them from
    the dense solve, cast exactly to complex, for small operators or k >= m - 2,
    else ARPACK's k. ARPACK multiplies by the shift by s rows plus the computed
    rows X read off the history, so no dense matrix is made. When ARPACK does
    not converge, the full dense spectrum is returned."""
    m = operator.size
    if m <= _DENSE_EIG_LIMIT or k >= m - 2:
        return np.linalg.eigvals(operator.matrix).astype(complex, copy=False)
    from scipy.sparse import linalg as sla  # scipy is loaded only for operators this large

    x_rows = operator._computed
    op = sla.LinearOperator((m, m), dtype=x_rows.dtype,
                            matvec=lambda x: np.concatenate([x[len(x_rows):], x_rows @ x]))
    try:
        # a fixed start vector: ARPACK's own is drawn from a process-global state
        return sla.eigs(
            op, k=min(k, m - 2), which="LM", return_eigenvectors=False,
            v0=np.random.default_rng(0).standard_normal(m),
        )
    except sla.ArpackNoConvergence:
        # a partial set would leave leading multipliers without a partner
        return np.linalg.eigvals(operator.matrix).astype(complex, copy=False)


def _eigenvectors(operator: MonodromyOperator, mus: np.ndarray):
    """Eigenvectors for the eigenvalues mus != 0, one at a time. The matrix shifts by
    s rows: v = Phi w, Phi[i, i mod s] = mu**(i // s) scaled from the end block that
    keeps the powers <= 1, w the null vector of the s x s X Phi - mu Phi[m-s:] by inverse
    iteration (shifted by a rounding unit of the 1-norm), orthogonal to an equal mu's."""
    x_rows, m = operator._computed, operator.size
    s = len(x_rows)
    p, col = np.arange(m) // s, np.arange(m) % s
    found = []
    for mu in mus:
        pw = mu ** (p - (p[-1] if abs(mu) > 1.0 else 0))
        a = np.pad(x_rows * pw, ((0, 0), (0, s * p[-1] + s - m))).reshape(s, -1, s).sum(axis=1)
        a[np.arange(s), col[m - s :]] -= mu * pw[m - s :]
        a[np.diag_indices(s)] += np.finfo(float).eps * (np.abs(a).sum(axis=0).max() or 1.0)
        near = np.reshape([u for nu, u in found if abs(nu - mu) <= _REPEAT_RTOL * abs(mu)], (-1, s))
        w = np.exp(1j * len(near) * np.arange(s))  # ones but for a repeat
        for _ in range(2):
            w = np.linalg.solve(a, w)
            w -= near.T @ (near.conj() @ w)
            w /= np.linalg.norm(w)
        found.append((mu, w))
        yield pw * w[col]


def floquet_spectrum(
    system: LinearMemorySystem,
    grid: PeriodicGrid,
    modes: int = DEFAULT_MODES,
    convergence_tol: float = DEFAULT_CONVERGENCE_TOL,
) -> FloquetDecomposition:
    """Eigen-decompose the monodromy operator at the requested grid and flag as
    converged the multipliers that persist under grid refinement. Spurious
    discretization eigenvalues drift under refinement and stay unflagged."""
    operator = build_monodromy(system, grid)
    # the refined operator is built, solved and dropped before the coarse
    # dense matrix exists, so only the coarse propagation is alive beside it
    mus_f = _eig_leading(build_monodromy(system, grid.refined()), k=max(4 * modes, 32))
    mus = _eig_leading(operator, operator.size)  # every eigenvalue: the dense solve
    mus = mus[sort_multipliers(mus)]
    scale = np.maximum.outer(np.abs(mus), np.abs(mus_f))
    dist = np.abs(mus[:, None] - mus_f[None, :]) / np.maximum(scale, 1e-300)
    converged = np.any(dist <= convergence_tol, axis=1)
    p_retained = int(np.count_nonzero(converged))
    if p_retained == 0:
        raise ConvergenceError(
            "no multiplier agreed between the two grids; refine the grid "
            f"(N={grid.samples_per_period}) or relax convergence_tol"
        )
    exponents = principal_exponents(mus, grid.period)
    kept = [j for j in np.nonzero(converged)[0][:modes] if abs(mus[j]) >= 1e-12]
    mode_list = [extract_mode(operator, mus[j], v)
                 for j, v in zip(kept, _eigenvectors(operator, mus[kept]))]
    return FloquetDecomposition(
        multipliers=mus,
        exponents=exponents,
        converged=converged,
        modes=tuple(mode_list),
        p_retained=p_retained,
        grid=grid,
        operator=operator,
    )


def extract_mode(operator: MonodromyOperator, mu: complex,
                 eigenvector: np.ndarray) -> PeriodicMode:
    """Combine the operator's unit-basis propagation by the eigenvector's
    history segment (the scheme is linear in it) and peel off the exponential
    growth, leaving the periodic part r(sigma)."""
    grid = operator.grid
    lam = complex(principal_exponents(np.array([mu]), grid.period)[0])
    z = operator.history @ eigenvector
    t = np.arange(grid.samples_per_period + 1) * grid.step
    r = z * np.exp(-lam * t)[:, None]
    node_mag = np.linalg.norm(r, axis=1)
    residual = float(np.linalg.norm(r[-1] - r[0]) / max(node_mag.max(), 1e-300))
    # deterministic normalization: unit max node magnitude, leading component real
    k_star = int(np.argmax(node_mag > node_mag.max() * (1 - 1e-12)))
    c = r[k_star, int(np.argmax(np.abs(r[k_star])))]
    r = r * (abs(c) / c) / node_mag[k_star]
    return PeriodicMode(complex(mu), lam, r, residual)


@dataclass
class VerificationReport:
    shift_residual: float
    mode_periodicity_residuals: tuple
    operator_residuals: tuple  # per mode: dr/ds + lam r - exp(-lam s) L{exp(lam s) r}
    max_residual: float


def _mode_operator_residual(system, grid, mode: PeriodicMode) -> float:
    """Residual of the reduced equation for the periodic part, with the
    derivative by 4th-order centered differences on the periodic samples."""
    big_n = grid.samples_per_period
    h = grid.step
    lam = mode.exponent
    r = mode.samples[:big_n]  # drop the wrap node
    dr = periodic_derivative(r, h)

    def w_at(taus):
        return periodic_interp(r, grid.period, taus) * np.exp(lam * taus)[:, None]

    sigmas = np.arange(big_n) * h
    a = system.eval_coefficient(sigmas).astype(complex)
    lw = (a @ (r * np.exp(lam * sigmas)[:, None])[:, :, None])[:, :, 0]
    lw = apply_memory(system, grid, sigmas, w_at, lw)
    res = float(np.max(np.abs(dr + lam * r - np.exp(-lam * sigmas)[:, None] * lw)))
    return res / max(float(np.abs(mode.samples).max()), 1e-300)


def verify_floquet_form(
    system: LinearMemorySystem,
    decomposition: FloquetDecomposition,
) -> VerificationReport:
    """Check the three decomposition identities: the period-shift relation
    X(s+Sigma) = X(s) C over one period, periodicity of the stored modes, and
    the reduced equation satisfied by each periodic part, on the
    decomposition's grid.

    The shift relation needs the unit basis propagated over two periods; the
    first is the decomposition's operator, so only the second is propagated
    here. system must be the one the decomposition was computed for; a
    decomposition without an operator raises ValueError.
    """
    operator = decomposition.operator
    if operator is None:
        raise ValueError("the decomposition keeps no monodromy operator to continue")
    grid = decomposition.grid
    nh = grid.history_points
    big_n = grid.samples_per_period
    hist = propagate_history(system, grid, None, big_n, resume=operator.history)
    u = operator.matrix
    u_norm = max(float(np.linalg.norm(u)), 1e-300)
    # the overlapping segments s_k (rows k .. k+nh) make every s_k @ u a block of one
    # product; its unit rows give u exactly, so only rows 1..N are predicted
    diff = hist[big_n + 1 :].reshape(-1, len(u)) - hist[1 : big_n + 1].reshape(-1, len(u)) @ u
    row_sq = np.concatenate([np.zeros(nh + 1), np.sum(diff.reshape(big_n, -1) ** 2, axis=1)])
    window_sq = np.convolve(row_sq, np.ones(nh + 1), mode="valid")
    shift_res = float(np.sqrt(window_sq.max())) / u_norm
    del hist, u, diff  # the mode residuals need none
    mode_res = tuple(mode.periodicity_residual for mode in decomposition.modes)
    op_res = tuple(_mode_operator_residual(system, grid, mode) for mode in decomposition.modes)
    all_res = (shift_res,) + mode_res + op_res
    return VerificationReport(shift_res, mode_res, op_res, max(all_res))


def truncate_infinite_kernel(
    system: LinearMemorySystem,
    reference_amplitude: float,
    eps: float,
    grid: PeriodicGrid,
) -> float:
    """Smallest grid-aligned memory depth r such that the tail of the system's
    kernel beyond r (Frobenius norm), times the reference amplitude,
    integrates below eps."""
    if system.kernel is None:
        raise ValueError("the system has no kernel to truncate")
    if not 0 < eps < math.inf:
        raise ValueError(f"eps must be positive and finite, got {eps}")
    amp = float(reference_amplitude)
    if not 0 <= amp < math.inf:
        raise ValueError(f"reference_amplitude must be non-negative and finite, got {amp}")
    h = grid.step
    sigmas = grid.period_nodes[:: max(1, grid.samples_per_period // 16)]

    def tail(r: float) -> float:
        # every probe sigma at once; each adds blocks of doubling width further
        # back until its own block is negligible
        upper = sigmas - r
        total = np.zeros(len(sigmas))
        adding = np.ones(len(sigmas), dtype=bool)
        width = max(grid.period, r, 1.0)
        for _ in range(_MAX_DOUBLINGS):
            xs = np.linspace(upper - width, upper, 129, axis=1)
            g = np.linalg.norm(system.eval_kernel(sigmas[:, None], xs), axis=(2, 3)) * amp
            block = np.sum((xs[:, 1:] - xs[:, :-1]) * (g[:, 1:] + g[:, :-1]) / 2.0, axis=1)
            total[adding] += block[adding]
            adding &= ~(block < eps * 1e-3)
            if not adding.any():
                return float(total.max())
            upper -= width
            width *= 2.0
        raise NonTruncatableError("kernel tail integral failed to decay; "
                                  "the memory cannot be truncated")

    if tail(0.0) < eps:
        return 0.0
    r = h
    for _ in range(_MAX_DOUBLINGS):
        if tail(r) < eps:
            break
        r *= 2.0
    else:
        raise NonTruncatableError("no finite memory depth reached the requested tolerance")
    lo, hi = r / 2.0, r
    while hi - lo > h / 4.0:
        mid = 0.5 * (lo + hi)
        if tail(mid) < eps:
            hi = mid
        else:
            lo = mid
    return math.ceil(hi / h - 1e-9) * h
