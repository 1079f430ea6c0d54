"""Nonnegative least squares through scipy, with typed errors.

`scipy.optimize.nnls` implements the Lawson-Hanson active-set method
(Lawson & Hanson, "Solving Least Squares Problems", 1974).  `nnls` wraps it
so that a shape mismatch or scipy's iteration limit surfaces as SolverError;
`kkt_residual` measures how well a point satisfies the optimality conditions.
`nnls` imports `scipy.optimize` on its first call, so importing zonofit, and
every command that never fits by NNLS, loads no scipy module.
"""

import numpy as np

from .errors import SolverError


def nnls(A, b):
    """Minimize ||A x - b|| subject to x >= 0; returns (x, residual_norm)."""
    A = np.asarray(A, dtype=float)
    b = np.asarray(b, dtype=float)
    if A.ndim != 2 or b.shape != (A.shape[0],):
        raise SolverError(f"shape mismatch: A is {A.shape}, b is {b.shape}")
    import scipy.optimize

    try:
        x, res = scipy.optimize.nnls(A, b)
    except RuntimeError as e:
        raise SolverError(f"nonnegative least squares failed: {e}") from e
    return x, float(res)


def kkt_residual(A, b, x):
    """Largest violation of the stationarity conditions at x for min ||Ax-b||, x>=0."""
    g = A.T @ (A @ x - b)
    on = x > 0.0
    return float(max(np.abs(g[on]).max() if on.any() else 0.0,
                     max(0.0, -(g[~on].min()) if (~on).any() else 0.0)))
