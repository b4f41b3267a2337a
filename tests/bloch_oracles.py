"""Exact reference results for the Bloch tests."""
import dataclasses

import numpy as np
import scipy.linalg

from gfloquet import PeriodicGrid, cell_collocation_matrices
from gfloquet.grid import _cubic_weights, quadrature_window


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


def companion_multipliers(pot, energy: float, n_nodes: int) -> np.ndarray:
    """All finite multipliers of the cell operator by companion linearization,
    [[B0, Bm], [I, 0]] z = mu [[-Bp, 0], [0, I]] z: 2n rows, with n - |C| of
    its eigenvalues structurally infinite for B_{+1}'s zero columns (oracle
    for the trimmed pencil, which leaves those out)."""
    bm, b0, bp = cell_collocation_matrices(pot, energy, n_nodes)
    eye, zero = np.eye(n_nodes), np.zeros((n_nodes, n_nodes))
    mus = scipy.linalg.eig(np.block([[b0, bm], [eye, zero]]),
                           np.block([[-bp, zero], [zero, eye]]), right=False)
    return mus[np.isfinite(mus)]


def kernel_entries(pot, n_nodes: int, j: int) -> list:
    """(node index j + m, weighted W) pairs of node j's kernel term, W called
    on that node's window points alone: the trapezoid window of depth r_W at
    step a/n (quadrature_window) mirrored onto [x - r_W, x + r_W], the
    aligned nodes first, then the endpoints x + r_W and x - r_W, each spread
    over its cubic stencil on the offsets 0..+-n."""
    a, r = pot.lattice_constant, pot.kernel_range
    h = a / n_nodes
    # scaled by 8, the grid's step is bitwise a/n at any node count
    taus, w, n_uni = quadrature_window(PeriodicGrid(8 * a, 8 * n_nodes, r))
    taus = np.concatenate((taus[:0:-1], -taus))
    w = np.concatenate((w[:0:-1], 2.0 * w[:1], w[1:]))
    x = j * h
    vals = w * np.asarray(pot.kernel(np.full(len(taus), x), x + taus),
                          dtype=float).reshape(len(taus))
    k0, c = _cubic_weights(np.asarray(r / h), n_nodes + 1)
    reach = k0 + np.arange(c.shape[-1])
    return (list(zip(j + np.arange(1 - n_uni, n_uni), vals[1:-1]))
            + list(zip(j + reach, c * vals[-1])) + list(zip(j - reach, c * vals[0])))


def per_node_collocation(pot, energy: float, n_nodes: int) -> tuple:
    """B_{-1}, B_0, B_{+1} with the kernel term added one node at a time
    (kernel_entries), each entry to the block of its cell (oracle for the one
    kernel call of cell_collocation_matrices)."""
    local = dataclasses.replace(pot, kernel=None, kernel_range=0.0)
    blocks = [b.copy() for b in cell_collocation_matrices(local, energy, n_nodes)]
    for j in range(n_nodes):
        for idx, val in kernel_entries(pot, n_nodes, j):
            cell, col = divmod(int(idx), n_nodes)
            blocks[cell + 1][j, col] += val
    return tuple(blocks)
