"""Bloch band structure of a 1D crystal with a nonlocal potential.

The spatial variable plays the role of the evolution variable: the multiplier
spectrum of one lattice cell yields the quasimomenta k(E) = arg(mu)/a of the
propagating modes. Units are chosen so hbar^2/2m = 1; energies and the local
potential share the same unit, lengths are in units of the lattice constant's.

A nonlocal potential couples both directions in x, unlike causal time memory,
so nonlocal kernels are solved by whole-cell collocation: with
psi(x + a) = mu psi(x), the equation on one cell becomes the cell operator
B(mu) = B_{-1}/mu + B_0 + mu B_{+1} (cell_collocation_matrices), whose
quadratic eigenproblem in mu is linearized to a companion pencil. Local
potentials, delta combs included, use the 2x2 cell transfer matrix.
"""
from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.linalg

from .grid import PeriodicGrid
from .monodromy import sort_multipliers
from .system import InvalidSystemError

_D2_STENCIL = (-1.0, 16.0, -30.0, 16.0, -1.0)  # 4th-order second derivative / 12h^2


@dataclass(frozen=True)
class NonlocalPotential1D:
    """Lattice-periodic potential: local part V(x), optional delta comb, and a
    symmetric bi-periodic nonlocal kernel W(x, x') cut off at |x - x'| > r_W."""

    lattice_constant: float
    local: Optional[Callable] = None  # V(x), a-periodic
    kernel: Optional[Callable] = None  # W(x, xp_array) -> array over xp
    kernel_range: float = 0.0
    deltas: tuple = ()  # (position in [0, a), strength) pairs; V += strength*delta(x-x0)

    def __post_init__(self):
        if not self.lattice_constant > 0:
            raise InvalidSystemError("lattice constant must be positive")
        if self.kernel is not None and not (0 < self.kernel_range):
            raise InvalidSystemError("nonlocal kernel requires a positive range")
        object.__setattr__(self, "deltas", tuple(self.deltas))

    def eval_local(self, x):
        if self.local is None:
            return np.zeros_like(np.asarray(x, dtype=float))
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        vals = np.asarray([float(self.local(xi)) for xi in xs])
        return vals if np.ndim(x) else vals[0]

    def eval_kernel(self, x: float, xp) -> np.ndarray:
        xp = np.atleast_1d(np.asarray(xp, dtype=float))
        if self.kernel is None:
            return np.zeros(len(xp))
        vals = np.asarray(self.kernel(x, xp), dtype=float).reshape(len(xp))
        return np.where(np.abs(xp - x) <= self.kernel_range, vals, 0.0)


@dataclass
class PotentialReport:
    passed: bool
    local_residual: float
    kernel_residual: float
    symmetry_residual: float


def validate_potential(pot: NonlocalPotential1D, n_nodes: int = 64, tol: float = 1e-10):
    """Periodicity of V, bi-periodicity and symmetry of W, on node pairs."""
    a = pot.lattice_constant
    xs = np.linspace(0.0, a, n_nodes, endpoint=False)
    lres = float(np.max(np.abs(pot.eval_local(xs + a) - pot.eval_local(xs))))
    kres = 0.0
    sres = 0.0
    if pot.kernel is not None:
        for x in xs[:: max(1, n_nodes // 16)]:
            xp = x + np.linspace(-pot.kernel_range, pot.kernel_range, 33)
            k0 = pot.eval_kernel(x, xp)
            k1 = pot.eval_kernel(x + a, xp + a)
            kres = max(kres, float(np.max(np.abs(k1 - k0))))
            krev = np.array([pot.eval_kernel(xq, np.array([x]))[0] for xq in xp])
            sres = max(sres, float(np.max(np.abs(k0 - krev))))
    return PotentialReport(max(lres, kres, sres) <= tol, lres, kres, sres)


def local_cell_monodromy(pot: NonlocalPotential1D, energy: float, n_steps: int) -> np.ndarray:
    """2x2 transfer matrix across one cell for a local potential: fixed-step
    RK4 between delta sites, exact jump [[1,0],[g,1]] at each site."""
    if pot.kernel is not None:
        raise InvalidSystemError("cell transfer matrix requires a local potential")
    a = pot.lattice_constant

    def smooth_block(x0, x1, m):
        span = x1 - x0
        if span <= 0:
            return np.eye(2)
        steps = max(1, int(round(n_steps * span / a)))
        h = span / steps
        u = np.eye(2)
        for s in range(steps):
            x = x0 + s * h

            def f(xq, mat):
                return np.array([[0.0, 1.0], [pot.eval_local(xq) - energy, 0.0]]) @ mat

            k1 = f(x, u)
            k2 = f(x + 0.5 * h, u + 0.5 * h * k1)
            k3 = f(x + 0.5 * h, u + 0.5 * h * k2)
            k4 = f(x + h, u + h * k3)
            u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        return u

    sites = sorted((x0 % a, g) for x0, g in pot.deltas)
    u = np.eye(2)
    x_prev = 0.0
    for x0, g in sites:
        u = smooth_block(x_prev, x0, n_steps) @ u
        u = np.array([[1.0, 0.0], [g, 1.0]]) @ u
        x_prev = x0
    return smooth_block(x_prev, a, n_steps) @ u


def cell_collocation_matrices(pot: NonlocalPotential1D, energy: float, n_nodes: int):
    """Assemble B_{-1}, B_0, B_{+1} of the one-cell collocation operator
    B(mu) = B_{-1}/mu + B_0 + mu B_{+1} acting on psi at the cell nodes.

    Rows: -psi'' + (V - E) psi + int W psi = 0 with 4th-order differences and
    a trapezoid rule on the nodes within r_W (admissible kernels decay to the
    cutoff, so the grid-aligned window is accurate). The rows are built as one
    block row [B_{-1} | B_0 | B_{+1}] in which node j + m sits in column
    n + j + m, so references past the cell edges pick up mu^{+-1} by layout.
    """
    if pot.deltas:
        raise InvalidSystemError("collocation path does not support delta combs")
    if n_nodes < 2:
        raise InvalidSystemError(
            f"collocation needs at least 2 nodes per cell, got {n_nodes}")
    a = pot.lattice_constant
    if pot.kernel is not None and pot.kernel_range >= a:
        raise InvalidSystemError(
            f"kernel range {pot.kernel_range} must be below one lattice constant {a}"
        )
    n = n_nodes
    h = a / n
    xs = np.arange(n) * h
    j = np.arange(n)[:, None]
    block = np.zeros((n, 3 * n))
    scale = 1.0 / (12.0 * h * h)
    block[j, n + j + np.arange(-2, 3)] = -np.asarray(_D2_STENCIL) * scale  # -psi''
    block[j, n + j] += (pot.eval_local(xs) - energy)[:, None]
    if pot.kernel is not None:
        m_max = int(np.floor(pot.kernel_range / h + 1e-12))  # <= n as r_W < a
        offs = np.arange(-m_max, m_max + 1)
        w = np.full(len(offs), h)
        w[0] = w[-1] = h / 2.0
        kv = np.array([pot.eval_kernel(x, x + offs * h) for x in xs])
        block[j, n + j + offs] += w * kv
    return block[:, :n], block[:, n:2 * n], block[:, 2 * n:]


def bloch_multipliers_collocation(pot: NonlocalPotential1D, energy: float, n_nodes: int):
    """All finite multipliers of the quadratic pencil via companion
    linearization: [[B0, Bm], [I, 0]] z = mu [[-Bp, 0], [0, I]] z."""
    bm, b0, bp = cell_collocation_matrices(pot, energy, n_nodes)
    n = b0.shape[0]
    lhs = np.block([[b0, bm], [np.eye(n), np.zeros((n, n))]])
    rhs = np.block([[-bp, np.zeros((n, n))], [np.zeros((n, n)), np.eye(n)]])
    mus = scipy.linalg.eig(lhs, rhs, right=False)
    return mus[np.isfinite(mus)]


def fixed_k_energies(
    pot: NonlocalPotential1D, k: float, n_nodes: int, n_bands: int = 8
) -> np.ndarray:
    """Band energies E_n(k) from the Hermitian fixed-quasimomentum operator
    (energy enters the collocation problem linearly, so one eigh call per k)."""
    bm, b0, bp = cell_collocation_matrices(pot, 0.0, n_nodes)
    mu = np.exp(1j * k * pot.lattice_constant)
    hk = b0 + bm / mu + bp * mu
    herm = float(np.max(np.abs(hk - hk.conj().T)))
    if herm > 1e-8 * max(1.0, float(np.max(np.abs(hk)))):
        raise InvalidSystemError(f"fixed-k operator not Hermitian (residual {herm:.2e})")
    evals = np.linalg.eigvalsh(0.5 * (hk + hk.conj().T))
    return evals[:n_bands]


@dataclass
class PropagatingSet:
    energy: float
    propagating: np.ndarray  # complex mu with ||mu|-1| <= unit_tol, symmetrized
    all_multipliers: np.ndarray  # retained (grid-confirmed) multipliers
    p: int


def _symmetrize_unit(mus: np.ndarray, tol: float) -> np.ndarray:
    """Close the near-unit set under conjugation and reflection mu -> 1/conj(mu);
    partners that discretization split are averaged back onto the pairing."""
    out = list(mus)
    for op in (np.conj, lambda m: 1.0 / np.conj(m)):
        for m in list(out):
            t = op(m)
            if min((abs(t - o) for o in out), default=np.inf) > tol * max(1.0, abs(t)):
                out.append(t)
    return np.asarray(out)


def propagating_multipliers(
    pot: NonlocalPotential1D,
    energy: float,
    grid: PeriodicGrid,
    unit_tol: float = 1e-3,
) -> PropagatingSet:
    """One-cell multiplier spectrum at fixed energy; near-unit multipliers are
    confirmed against the grid refined twofold before being reported as
    propagating, and ordered by sort_multipliers."""
    n = grid.samples_per_period
    if pot.kernel is None:
        coarse = np.linalg.eigvals(local_cell_monodromy(pot, energy, n))
        fine = np.linalg.eigvals(local_cell_monodromy(pot, energy, 2 * n))
    else:
        coarse = bloch_multipliers_collocation(pot, energy, n)
        fine = bloch_multipliers_collocation(pot, energy, 2 * n)
    confirmed = []
    for mu in coarse:
        d = np.min(np.abs(fine - mu)) / max(1.0, abs(mu))
        if d <= 10 * unit_tol:
            confirmed.append(mu)
    confirmed = np.asarray(confirmed, dtype=complex)
    near_unit = confirmed[np.abs(np.abs(confirmed) - 1.0) <= unit_tol]
    # deduplicate (companion pencil can emit coincident roots)
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
    k = np.where(np.isclose(k, -edge, atol=1e-12), edge, k)
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


def band_scan(
    pot: NonlocalPotential1D,
    energies,
    grid: PeriodicGrid,
    unit_tol: float = 1e-3,
    jobs: int = 1,
) -> BandDiagram:
    """Propagating quasimomenta over an ascending energy grid; failures are
    recorded per energy, and assembly order is by energy index regardless of
    worker scheduling."""
    energies = np.asarray(energies, dtype=float)
    if energies.size == 0:
        raise ValueError("empty energy grid")
    if np.any(np.diff(energies) <= 0):
        raise ValueError("energy grid must be strictly ascending")
    a = pot.lattice_constant

    def one(energy):
        try:
            ps = propagating_multipliers(pot, energy, grid, unit_tol=unit_tol)
            ks = multiplier_phases_to_k(ps.propagating, a)
            return BandRecord(
                float(energy), tuple(sorted(float(k) for k in ks)), ps.p,
                tuple(np.sort(np.abs(ps.all_multipliers))[::-1][:12]),
            )
        except Exception as exc:  # per-energy failure is data, not fatal
            return BandRecord(float(energy), (), 0, (), failed=True, message=str(exc))

    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(one, energies))
    else:
        records = [one(e) for e in energies]
    return BandDiagram(a, tuple(records))


@dataclass
class BandExtremum:
    band_index: int
    k_star: float
    energy_star: float


def detect_interior_extrema(
    diagram: BandDiagram,
    ambiguity_log: Optional[list] = None,
    edge_fraction: float = 0.03,
):
    """Interior extrema of E(k) from the half-zone (0, pi/a) scan.

    Bands are traced by k-continuity in E. An extremum shows up in one of two
    ways: a pair of sheets born (minimum) or dying (maximum) together at an
    interior k — at a local band edge only a single sheet appears, at k = 0 or
    pi/a — or a slope sign change inside one trace. Candidates within
    edge_fraction of the zone boundary, or within two points of a trace end,
    are discarded as folding artifacts.
    """
    a = diagram.lattice_constant
    edge = np.pi / a
    jump = edge / 2.0
    ktol = edge_fraction * edge
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
        # two sheets appearing together at interior k: minimum of E(k)
        for x in range(len(born)):
            for y in range(x + 1, len(born)):
                ka, kb = traces[born[x]][0][1], traces[born[y]][0][1]
                k_star = 0.5 * (ka + kb)
                if abs(ka - kb) <= jump and ktol < k_star < edge - ktol:
                    e_star = rec.energy if prev_energy is None else 0.5 * (rec.energy + prev_energy)
                    found.append(BandExtremum(min(born[x], born[y]), float(k_star), float(e_star)))
        # two sheets vanishing together at interior k: maximum of E(k)
        for x in range(len(died)):
            for y in range(x + 1, len(died)):
                ka, kb = traces[died[x]][-1][1], traces[died[y]][-1][1]
                k_star = 0.5 * (ka + kb)
                if abs(ka - kb) <= jump and ktol < k_star < edge - ktol:
                    e_star = traces[died[x]][-1][0]
                    found.append(BandExtremum(min(died[x], died[y]), float(k_star), float(e_star)))
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
