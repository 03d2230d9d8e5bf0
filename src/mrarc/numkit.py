"""Small dense linear-algebra layer shared by the solvers.

Vectors are 1-D float64 arrays and matrices are 2-D C-contiguous float64
arrays; ``as_vector``/``as_matrix`` coerce inputs and reject non-finite
entries so nothing downstream has to re-check.
"""

import numpy as np
import scipy.linalg

from .errors import DimensionMismatch, NotSPD


def as_vector(x, name="vector"):
    """Coerce to a finite 1-D float64 array."""
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} contains NaN or Inf")
    return v


def as_matrix(x, name="matrix"):
    """Coerce to a finite 2-D C-contiguous float64 array."""
    m = np.ascontiguousarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError(f"{name} contains NaN or Inf")
    return m


def solve_spd(M, b):
    """Solve M x = b for symmetric positive definite M via Cholesky.

    Raises NotSPD when M is not symmetric within 1e-10 (relative) or has a
    non-positive pivot, and DimensionMismatch on incompatible shapes.
    """
    M = as_matrix(M, "M")
    b = as_vector(b, "b")
    n = M.shape[0]
    if M.shape[1] != n:
        raise DimensionMismatch(f"M must be square, got {M.shape}")
    if b.shape[0] != n:
        raise DimensionMismatch(f"b has length {b.shape[0]}, expected {n}")
    scale = np.max(np.abs(M)) if n else 0.0
    if n and np.max(np.abs(M - M.T)) > 1e-10 * (1.0 + scale):
        raise NotSPD("matrix is not symmetric")
    try:
        L = np.linalg.cholesky(M)
    except np.linalg.LinAlgError as exc:
        raise NotSPD("matrix is not positive definite") from exc
    return scipy.linalg.cho_solve((L, True), b, check_finite=False)
