"""Exact reference results for the Bloch tests."""
import dataclasses

import numpy as np

from gfloquet import cell_collocation_matrices


def kronig_penney_reference(strength: float, a: float, energy: float) -> dict:
    """Analytic dispersion test for the delta-comb crystal:
    D(E) = cos(q a) + P sin(q a)/(q a), q = sqrt(E); propagating iff |D| <= 1."""
    if energy <= 0:
        raise ValueError("reference formula requires E > 0")
    q = np.sqrt(energy)
    d = np.cos(q * a) + strength * np.sin(q * a) / (q * a)
    allowed = bool(abs(d) <= 1.0)
    return {"allowed": allowed, "discriminant": float(d),
            "k": float(np.arccos(np.clip(d, -1.0, 1.0)) / a) if allowed else None}


def fixed_k_energies(pot, k: float, n_nodes: int, n_bands: int = 8) -> np.ndarray:
    """Band energies E_n(k) from the Hermitian fixed-quasimomentum operator
    (energy enters the collocation problem linearly, so one eigh call per k)."""
    bm, b0, bp = cell_collocation_matrices(pot, 0.0, n_nodes)
    mu = np.exp(1j * k * pot.lattice_constant)
    hk = b0 + bm / mu + bp * mu
    herm = float(np.max(np.abs(hk - hk.conj().T)))
    assert herm <= 1e-8 * max(1.0, float(np.max(np.abs(hk)))), (
        f"fixed-k operator not Hermitian (residual {herm:.2e})")
    evals = np.linalg.eigvalsh(0.5 * (hk + hk.conj().T))
    return evals[:n_bands]


def per_node_collocation(pot, energy: float, n_nodes: int) -> tuple:
    """B_{-1}, B_0, B_{+1} with the kernel term added one node at a time:
    W is called on the pairs of each node x and its offsets x' alone, masked
    to the kernel range, and each entry goes to the block of its cell (oracle
    for the one kernel call of cell_collocation_matrices)."""
    local = dataclasses.replace(pot, kernel=None, kernel_range=0.0)
    blocks = [b.copy() for b in cell_collocation_matrices(local, energy, n_nodes)]
    h = pot.lattice_constant / n_nodes
    m_max = int(np.floor(pot.kernel_range / h + 1e-12))
    offs = np.arange(-m_max, m_max + 1)
    w = np.full(len(offs), h)
    w[0] = w[-1] = h / 2.0
    for j, x in enumerate(np.arange(n_nodes) * h):
        xp = x + offs * h
        vals = np.asarray(pot.kernel(np.full(len(xp), x), xp), dtype=float).reshape(len(xp))
        vals = np.where(np.abs(xp - x) <= pot.kernel_range, vals, 0.0)
        for m, val in zip(offs, w * vals):
            cell, col = divmod(int(j + m), n_nodes)
            blocks[cell + 1][j, col] += val
    return tuple(blocks)
