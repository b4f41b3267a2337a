"""Bloch band structure of a 1D crystal with a nonlocal potential.

The spatial variable plays the role of the evolution variable: the multiplier
spectrum of one lattice cell yields the quasimomenta k(E) = arg(mu)/a of the
propagating modes. Units are chosen so hbar^2/2m = 1; energies and the local
potential share the same unit, lengths are in units of the lattice constant's.

A nonlocal potential couples both directions in x, unlike causal time memory,
so nonlocal kernels are solved by whole-cell collocation: with
psi(x + a) = mu psi(x), the equation on one cell becomes the cell operator
B(mu) = B_{-1}/mu + B_0 + mu B_{+1} (cell_collocation_matrices), whose
quadratic eigenproblem in mu is linearized to the trimmed pencil, which
leaves out the structurally infinite eigenvalues of B_{+1}'s zero columns,
on each grid: the N-node solve reports the multipliers, the 2N-node solve
confirms them. The kernel
integral takes the Floquet path's window rule (grid.quadrature_window),
mirrored, each endpoint x +- r_W read by its cubic stencil. A kernel's band
scan evaluates W once per grid, then solves its energies, which add only
V - E, in forked worker processes, one per CPU the process may run on. Local
potentials, delta combs included, use the 2x2 cell transfer matrix, swept
over every energy at once.
"""
from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .grid import PeriodicGrid, _cubic_weights, quadrature_window
from .integrate import rk4_step
from .monodromy import sort_multipliers
from .system import VALIDATION_TOL, InvalidSystemError, array_form, evaluate

_D2_STENCIL = (-1.0, 16.0, -30.0, 16.0, -1.0)  # 4th-order second derivative / 12h^2
_VALIDATION_NODES = 64  # probe points per cell in validate_potential
_EDGE_FRACTION = 0.03  # extrema this close to the zone boundary (in pi/a) are folding artifacts
# |mu| beyond eps^(-1/2), or below eps^(1/2), is rounding on either grid (two
# backward-stable pencils disagree about it), so such a multiplier is never
# confirmed; the window is closed under mu -> 1/conj(mu)
_UNRESOLVED_MAGNITUDE = np.finfo(float).eps ** -0.5


@dataclass(frozen=True)
class NonlocalPotential1D:
    """Lattice-periodic potential: local part V(x), optional delta comb, and a
    symmetric bi-periodic nonlocal kernel W(x, x') cut off at |x - x'| > r_W.
    W is declared `system.array_form`: W(x, x') maps 1-d arrays of point pairs to values."""

    lattice_constant: float
    local: Optional[Callable] = None  # V(x), a-periodic; may declare system.array_form
    kernel: Optional[Callable] = None  # W(x, xp) over 1-d arrays of point pairs
    kernel_range: float = 0.0
    deltas: tuple = ()  # (position in [0, a), strength) pairs; V += strength*delta(x-x0)

    def __post_init__(self):
        if not self.lattice_constant > 0:
            raise InvalidSystemError("lattice constant must be positive")
        object.__setattr__(self, "deltas", tuple(self.deltas))
        # collocation, a kernel's one solve, needs 0 < r_W < a and takes no delta comb
        if self.kernel is not None and not 0 < self.kernel_range < self.lattice_constant:
            raise InvalidSystemError(f"kernel range {self.kernel_range} must be positive and "
                                     f"below one lattice constant {self.lattice_constant}")
        if self.kernel is not None and self.deltas:
            raise InvalidSystemError("a nonlocal kernel cannot be combined with a delta comb")
        if self.kernel is not None:  # it takes arrays of (x, x') pairs, so it is declared so
            object.__setattr__(self, "kernel", array_form(self.kernel))

    def eval_local(self, x):
        """V at a scalar x, or at a 1-d array of x (see `system.evaluate`)."""
        if self.local is None:
            return np.zeros_like(np.asarray(x, dtype=float))
        return evaluate(self.local, x, (), "V")


@dataclass
class PotentialReport:
    passed: bool
    local_residual: float
    kernel_residual: float
    symmetry_residual: float


def validate_potential(pot: NonlocalPotential1D):
    """Periodicity of V, bi-periodicity and symmetry of W, on node pairs."""
    a = pot.lattice_constant
    xs = np.linspace(0.0, a, _VALIDATION_NODES, endpoint=False)
    lres = float(np.max(np.abs(pot.eval_local(xs + a) - pot.eval_local(xs))))
    kres = sres = 0.0
    if pot.kernel is not None:  # every probe pair lies within r_W: W is read unmasked
        x = xs[:: _VALIDATION_NODES // 16, None]
        x, xp = np.broadcast_arrays(x, x + np.linspace(-pot.kernel_range, pot.kernel_range, 33))
        pairs = np.stack((x, x + a, xp)), np.stack((xp, xp + a, x))  # as probed, shifted, swapped
        k0, shifted, swapped = evaluate(pot.kernel, pairs, (), "W")
        kres, sres = (float(np.max(np.abs(v - k0))) for v in (shifted, swapped))
    return PotentialReport(max(lres, kres, sres) <= VALIDATION_TOL, lres, kres, sres)


def local_cell_monodromy(pot: NonlocalPotential1D, energies, n_steps: int) -> np.ndarray:
    """2x2 transfer matrices across one cell for a local potential: fixed-step
    RK4 between delta sites, exact jump [[1,0],[g,1]] at each site. The 1-d
    array of energies is advanced in one sweep, sampling V once per stage
    time, into an (E, 2, 2) stack."""
    if pot.kernel is not None:
        raise InvalidSystemError("cell transfer matrix requires a local potential")
    energies = np.asarray(energies, dtype=float)
    if energies.ndim != 1:
        raise ValueError(f"energies must be a 1-d array, got shape {energies.shape}")
    a = pot.lattice_constant

    def stage(c):  # [[0, 1], [c, 0]] @ mat row by row: its products are exact
        return lambda mat: np.stack((mat[:, 1], c[:, None] * mat[:, 0]), axis=1)

    def smooth_block(x0, x1):
        span = x1 - x0
        if span <= 0:
            return np.eye(2)
        steps = max(1, int(round(n_steps * span / a)))
        h = span / steps
        v = {frac: pot.eval_local(x0 + np.arange(steps) * h + frac * h) for frac in (0.0, 0.5, 1.0)}
        u = np.broadcast_to(np.eye(2), (energies.size, 2, 2))
        for s in range(steps):
            u = rk4_step(lambda frac: stage(v[frac][s] - energies), u, h)
        return u

    sites = sorted((x0 % a, g) for x0, g in pot.deltas)
    u = np.eye(2)
    x_prev = 0.0
    for x0, g in sites:
        u = smooth_block(x_prev, x0) @ u
        u = np.array([[1.0, 0.0], [g, 1.0]]) @ u
        x_prev = x0
    return smooth_block(x_prev, a) @ u


def cell_collocation_matrices(pot: NonlocalPotential1D, energy: float, n_nodes: int):
    """Assemble B_{-1}, B_0, B_{+1} of the one-cell collocation operator
    B(mu) = B_{-1}/mu + B_0 + mu B_{+1} acting on psi at the cell nodes.

    Rows: -psi'' + (V - E) psi + int W psi = 0 with 4th-order differences and
    the grid's trapezoid memory window (`quadrature_window`) mirrored onto
    [x - r_W, x + r_W], each endpoint x +- r_W read by its cubic stencil. The
    rows are built as one block row [B_{-1} | B_0 | B_{+1}] in which node j + m
    sits in column n + j + m, so references past the cell edges pick up
    mu^{+-1} by layout. W is evaluated in one call over every window point.
    """
    return _collocation(pot, n_nodes)(energy)


def _collocation(pot: NonlocalPotential1D, n: int):
    """energy -> cell_collocation_matrices(pot, energy, n); V and the weighted
    W window, which do not depend on the energy, are evaluated here."""
    if pot.deltas:
        raise InvalidSystemError("collocation path does not support delta combs")
    if n < 2:
        raise InvalidSystemError(f"collocation needs at least 2 nodes per cell, got {n}")
    a = pot.lattice_constant
    h = a / n
    xs = np.arange(n) * h
    j = np.arange(n)[:, None]
    local = pot.eval_local(xs)
    if pot.kernel is not None:
        # a grid takes >= 8 samples, and 8a / 8n is a/n bitwise; the window ends at -r_W
        taus, w, n_uni = quadrature_window(PeriodicGrid(8 * a, 8 * n, pot.kernel_range))
        k0, c = _cubic_weights(np.asarray(pot.kernel_range / h), n + 1)  # x + r_W's stencil
        offs, reach = np.arange(1 - n_uni, n_uni), k0 + np.arange(c.shape[-1])
        taus = np.concatenate((taus[:0:-1], -taus))  # mirrored; all within r_W: W is unmasked
        weighted = np.concatenate((w[:0:-1], 2.0 * w[:1], w[1:])) * evaluate(
            pot.kernel, (np.broadcast_to(xs[:, None], (n, taus.size)), xs[:, None] + taus), (), "W")

    def blocks(energy):
        block = np.zeros((n, 3 * n))
        scale = 1.0 / (12.0 * h * h)
        block[j, n + j + np.arange(-2, 3)] = -np.asarray(_D2_STENCIL) * scale  # -psi''
        block[j, n + j] += (local - energy)[:, None]
        if pot.kernel is not None:
            block[j, n + j + offs] += weighted[:, 1:-1]
            block[j, n + j + reach] += c * weighted[:, -1:]  # x + r_W
            block[j, n + j - reach] += c * weighted[:, :1]  # x - r_W
        return block[:, :n], block[:, n:2 * n], block[:, 2 * n:]
    return blocks


def _finite_multipliers(lhs, rhs):
    """All finite eigenvalues mu of the pencil lhs z = mu rhs, a
    _trimmed_pencil, whose Fortran-ordered sides the solve overwrites."""
    import scipy.linalg  # numpy has no generalized eig; other paths leave scipy unloaded

    mus = scipy.linalg.eig(lhs, rhs, right=False, overwrite_a=True, overwrite_b=True)
    return mus[np.isfinite(mus)]


def bloch_multipliers_collocation(pot: NonlocalPotential1D, energy: float, n_nodes: int):
    """All finite multipliers of the quadratic pencil, through its trimmed
    linearization (_trimmed_pencil)."""
    return _finite_multipliers(*_trimmed_pencil(*cell_collocation_matrices(pot, energy, n_nodes)))


def _trimmed_pencil(bm, b0, bp):
    """Trimmed linearization of mu^2 B_{+1} + mu B_0 + B_{-1}: only the
    nonzero columns C of B_{+1} carry a second unknown chi = mu psi_C, so
    [[B_{-1}, 0], [0, I]] z = mu [[-B_0, -B_{+1}[:, C]], [E_C^T, 0]] z has
    n + |C| rows and none of the companion pencil's n - |C| structurally
    infinite eigenvalues (Byers, Mehrmann & Xu, LAA 429, 2008). Entries below
    eps max|B_0| are zero: QZ deflates exact zeros, not W's rounding noise at
    x +- r_W. Both sides are Fortran-ordered, so the solve can overwrite them
    without a copy. Its resolved multipliers agree with the companion
    oracle's (tests/bloch_oracles.py) to rounding."""
    tol = np.finfo(float).eps * np.abs(b0).max()
    cols = np.flatnonzero(np.any(np.abs(bp) > tol, axis=0))
    n, c = b0.shape[0], cols.size
    lhs = np.zeros((n + c, n + c), order="F")
    rhs = np.zeros((n + c, n + c), order="F")
    lhs[:n, :n] = np.where(np.abs(bm) > tol, bm, 0.0)
    lhs[n:, n:] = np.eye(c)
    rhs[:n, :n] = -b0
    rhs[:n, n:] = -bp[:, cols]
    rhs[n + np.arange(c), cols] = 1.0
    return lhs, rhs


@dataclass
class PropagatingSet:
    energy: float
    propagating: np.ndarray  # complex mu with ||mu|-1| <= unit_tol, symmetrized
    all_multipliers: np.ndarray  # retained (grid-confirmed) multipliers
    p: int


def _symmetrize_unit(mus: np.ndarray, tol: float) -> np.ndarray:
    """Close the near-unit set under conjugation, then reflection mu -> 1/conj(mu),
    by appending each partner not within tol max(1, |partner|) of a member;
    nothing is averaged, so a partner within tol stays as it was computed."""
    out = list(mus)
    for op in (np.conj, lambda m: 1.0 / np.conj(m)):
        for m in list(out):
            t = op(m)
            if min((abs(t - o) for o in out), default=np.inf) > tol * max(1.0, abs(t)):
                out.append(t)
    return np.asarray(out)


def _grid_solves(pot: NonlocalPotential1D, energies: np.ndarray, n: int):
    """solve(i) -> (coarse, fine): the multipliers at energies[i] on the N-
    and the 2N-node grid. A local potential's transfer matrices come from one
    sweep per grid over all energies, a kernel's V and weighted W from one
    _collocation per grid (a failure of either raises here); its multipliers
    from the trimmed pencil on each grid."""
    if pot.kernel is None:
        cells = [local_cell_monodromy(pot, energies, m) for m in (n, 2 * n)]
        return lambda i: tuple(np.linalg.eigvals(c[i]) for c in cells)
    grids = [_collocation(pot, m) for m in (n, 2 * n)]
    return lambda i: tuple(_finite_multipliers(*_trimmed_pencil(*g(energies[i]))) for g in grids)


def propagating_multipliers(
    pot: NonlocalPotential1D,
    energy: float,
    grid: PeriodicGrid,
    unit_tol: float = 1e-3,
) -> PropagatingSet:
    """One-cell multiplier spectrum at fixed energy; near-unit multipliers are
    confirmed against the grid refined twofold before being reported as
    propagating, and ordered by sort_multipliers. For a nonlocal kernel the
    reported and the confirming multipliers solve the trimmed pencil on the
    N- and the 2N-node grid."""
    solve = _grid_solves(pot, np.array([energy], dtype=float), grid.samples_per_period)
    return _confirmed_set(energy, *solve(0), unit_tol)


def _confirmed_set(energy, coarse, fine, unit_tol) -> PropagatingSet:
    """Keep, in coarse order, the coarse multipliers mu within 10 unit_tol
    max(1, |mu|) of a fine one, only within 1/_UNRESOLVED_MAGNITUDE <= |mu|
    <= _UNRESOLVED_MAGNITUDE, so mu and 1/conj(mu) are kept or dropped
    together; the near-unit ones, deduplicated, symmetrized and sorted, are
    the propagating set."""
    coarse = np.asarray(coarse, dtype=complex)
    dist = np.abs(np.asarray(fine)[None, :] - coarse[:, None]).min(axis=1, initial=np.inf)
    mag = np.abs(coarse)
    keep = (dist / np.maximum(1.0, mag) <= 10 * unit_tol) & (
        1.0 / _UNRESOLVED_MAGNITUDE <= mag) & (mag <= _UNRESOLVED_MAGNITUDE)
    confirmed = coarse[keep]
    near_unit = confirmed[np.abs(np.abs(confirmed) - 1.0) <= unit_tol]
    # deduplicate (a band edge's double root comes out as two close multipliers)
    dedup = []
    for mu in near_unit:
        if min((abs(mu - o) for o in dedup), default=np.inf) > 1e-7 * max(1.0, abs(mu)):
            dedup.append(mu)
    prop = _symmetrize_unit(np.asarray(dedup, dtype=complex), unit_tol) if dedup else np.empty(0, complex)
    prop = prop[sort_multipliers(prop)]
    return PropagatingSet(energy, prop, confirmed, int(prop.size))


def multiplier_phases_to_k(mus: np.ndarray, a: float) -> np.ndarray:
    """Quasimomenta k = arg(mu)/a folded into (-pi/a, pi/a]."""
    k = np.angle(mus) / a
    edge = np.pi / a
    k = np.where(np.isclose(k, -edge, rtol=0.0, atol=1e-12), edge, k)
    return k


@dataclass
class BandRecord:
    energy: float
    k_values: tuple
    p: int
    multiplier_magnitudes: tuple
    failed: bool = False
    message: str = ""


@dataclass
class BandDiagram:
    lattice_constant: float
    records: tuple

    @property
    def succeeded(self) -> tuple:
        return tuple(r for r in self.records if not r.failed)


def _available_cpus() -> int:
    """CPUs this process may run on; 1 where the platform cannot tell or
    cannot fork."""
    if not (hasattr(os, "sched_getaffinity") and hasattr(os, "fork")):
        return 1
    return len(os.sched_getaffinity(0))


_OPENBLAS_SETTERS = ("openblas_set_num_threads", "openblas_set_num_threads64_",
                     "scipy_openblas_set_num_threads", "scipy_openblas_set_num_threads64_")
_inherited_solve = None  # a forked pool worker's solve, set as the worker starts


def _one_blas_thread():
    """Run every OpenBLAS this process has loaded on one thread. A forked
    worker keeps the parent's BLAS thread count, and each worker's BLAS
    threads would spin on the CPUs the other workers solve on. OpenBLAS
    threads a matrix product by blocks of rows and columns, so each entry is
    summed in one order whatever the count. Other BLAS builds are left alone."""
    import ctypes

    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split(None, 5)[5].strip() for line in fh if "openblas" in line}
    except OSError:
        return
    for path in paths:
        try:
            lib = ctypes.CDLL(path)  # the loaded library's handle, not a second copy
        except OSError:
            continue
        for setter in filter(None, (getattr(lib, name, None) for name in _OPENBLAS_SETTERS)):
            setter.argtypes, setter.restype = [ctypes.c_int], None
            setter(1)


def _inherit_solve(solve):
    global _inherited_solve
    _inherited_solve = solve
    _one_blas_thread()


def _solve_inherited(i):
    return _inherited_solve(i)


def band_scan(
    pot: NonlocalPotential1D,
    energies,
    grid: PeriodicGrid,
    unit_tol: float = 1e-3,
) -> BandDiagram:
    """Propagating quasimomenta over an ascending energy grid; failures are
    recorded per energy.

    A kernel's energies, when there are several, are solved in a pool of
    forked worker processes, one per CPU the process may run on (at most one
    per energy). Forked workers inherit the potential and its solve, whose
    callables are often lambdas that could not be pickled. Each runs whole
    energies through the same LAPACK calls, on one BLAS thread, so the
    records are bitwise those of a serial scan; one CPU (a process pinned
    with `taskset -c 0`, say) gives the serial scan. Every worker is joined
    before the scan returns."""
    energies = np.asarray(energies, dtype=float)
    if energies.size == 0:
        raise ValueError("empty energy grid")
    if np.any(np.diff(energies) <= 0):
        raise ValueError("energy grid must be strictly ascending")
    a = pot.lattice_constant

    def failed(energy, exc):
        return BandRecord(float(energy), (), 0, (), failed=True, message=str(exc))

    try:
        solve = _grid_solves(pot, energies, grid.samples_per_period)
    except Exception as exc:  # a sweep or assembly is shared, so every energy fails with it
        return BandDiagram(a, tuple(failed(e, exc) for e in energies))

    def records(results):  # results[i]() returns solve(i) or raises what it raised
        out = []
        for energy, result in zip(energies, results):
            try:
                ps = _confirmed_set(energy, *result(), unit_tol)
                ks = multiplier_phases_to_k(ps.propagating, a)
                out.append(BandRecord(
                    float(energy), tuple(sorted(float(k) for k in ks)), ps.p,
                    tuple(np.sort(np.abs(ps.all_multipliers))[::-1][:12]),
                ))
            except Exception as exc:  # per-energy failure is data, not fatal
                out.append(failed(energy, exc))
        return BandDiagram(a, tuple(out))

    indices = range(energies.size)
    workers = min(_available_cpus(), energies.size) if pot.kernel is not None else 1
    if workers == 1:
        return records([lambda i=i: solve(i) for i in indices])
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    import scipy.linalg  # noqa: F401  the workers inherit it rather than each import it
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_inherit_solve, initargs=(solve,))
    try:
        return records([pool.submit(_solve_inherited, i).result for i in indices])
    finally:
        pool.shutdown(cancel_futures=True)  # joins every worker, also on an interrupt


@dataclass
class BandExtremum:
    band_index: int
    k_star: float
    energy_star: float


def detect_interior_extrema(
    diagram: BandDiagram,
    ambiguity_log: Optional[list] = None,
):
    """Interior extrema of E(k) from the half-zone (0, pi/a) scan.

    Bands are traced by k-continuity in E. An extremum shows up in one of two
    ways: a pair of sheets born (minimum) or dying (maximum) together at an
    interior k — at a local band edge only a single sheet appears, at k = 0 or
    pi/a — or a slope sign change inside one trace. Candidates within
    _EDGE_FRACTION of the zone boundary, or within two points of a trace end,
    are discarded as folding artifacts.
    """
    a = diagram.lattice_constant
    edge = np.pi / a
    jump = edge / 2.0
    ktol = _EDGE_FRACTION * edge
    traces = []  # each: list of (E, k)
    active = []  # indices into traces still being extended
    found = []
    prev_energy = None
    for rec in diagram.succeeded:
        ks = [k for k in rec.k_values if 1e-9 < k < edge - 1e-9]
        if rec.p > 2 and ambiguity_log is not None:
            ambiguity_log.append((rec.energy, rec.p))
        used = set()
        new_active = []
        died = []
        for ti in active:
            k_prev = traces[ti][-1][1]
            cand = [(abs(k - k_prev), i) for i, k in enumerate(ks) if i not in used]
            hit = min(cand) if cand else None
            if hit is not None and hit[0] <= jump:
                traces[ti].append((rec.energy, ks[hit[1]]))
                used.add(hit[1])
                new_active.append(ti)
            else:
                died.append(ti)
        born = []
        for i, k in enumerate(ks):
            if i not in used:
                traces.append([(rec.energy, k)])
                new_active.append(len(traces) - 1)
                born.append(len(traces) - 1)
        # two sheets born together at interior k (a minimum of E(k)), read at their
        # first point, or dying together (a maximum), last extended at prev_energy
        mid = rec.energy if prev_energy is None else 0.5 * (rec.energy + prev_energy)
        for group, end, e_star in ((born, 0, mid), (died, -1, prev_energy)):
            for x, y in itertools.combinations(group, 2):
                ka, kb = traces[x][end][1], traces[y][end][1]
                k_star = 0.5 * (ka + kb)
                if abs(ka - kb) <= jump and ktol < k_star < edge - ktol:
                    found.append(BandExtremum(min(x, y), float(k_star), float(e_star)))
        active = new_active
        prev_energy = rec.energy
    for bi, tr in enumerate(traces):
        if len(tr) < 7:
            continue
        kk = np.array([k for _, k in tr])
        dk = np.diff(kk)
        for i in range(2, len(dk) - 3):
            turn = dk[i] * dk[i + 1] < 0 and abs(dk[i]) > 1e-12 and abs(dk[i + 1]) > 1e-12
            if turn and ktol < kk[i + 1] < edge - ktol:
                found.append(BandExtremum(bi, float(kk[i + 1]), float(tr[i + 1][0])))
    return found
