"""Dense reference results for the Floquet tests."""
import numpy as np

from gfloquet.integrate import propagate_history


def dense_shift_residual(system, decomposition) -> float:
    """verify_floquet_form's shift residual through the dense m x m monodromy
    matrix C: the second period's rows 1..N predicted as the first period's
    rows times C, the error's largest Frobenius norm over the overlapping
    history segments (rows k .. k+nh), relative to ||C||_F. Oracle for the
    library's reading of C as its shift by s rows and its last s rows X."""
    operator, grid = decomposition.operator, decomposition.grid
    nh, big_n = grid.history_points, grid.samples_per_period
    hist = propagate_history(system, grid, None, big_n, resume=operator.history)
    u = operator.matrix
    # the first period's unit rows give C exactly, so only rows 1..N are predicted
    diff = hist[big_n + 1 :].reshape(-1, len(u)) - hist[1 : big_n + 1].reshape(-1, len(u)) @ u
    row_sq = np.concatenate([np.zeros(nh + 1), np.sum(diff.reshape(big_n, -1) ** 2, axis=1)])
    window_sq = np.convolve(row_sq, np.ones(nh + 1), mode="valid")
    return float(np.sqrt(window_sq.max())) / max(float(np.linalg.norm(u)), 1e-300)
