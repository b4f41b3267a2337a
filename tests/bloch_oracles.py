"""Exact reference results for the Bloch tests."""
import numpy as np


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
