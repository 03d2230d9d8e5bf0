"""Hot numeric kernels of the ADMM and half-quadratic solvers, in numpy.

Four kernels: blockwise shrinkage of a vector (``block_shrink``), rowwise
shrinkage of a matrix (``row_shrink``), the half-quadratic weighted-ridge
passes (``hq_inner``) and the squared-loss ridge step (``squared_zstep``).
The solvers look them up through ``active()`` at call time, so a caller can
wrap the namespace it returns, for instance to trace the calls.

The shrinkage kernels compute the update as ``z - gamma * (z / norm)``, so a
singleton block reproduces the scalar soft threshold bit for bit.  The ridge
solves (``hq_inner``, ``squared_zstep``) call LAPACK ``potrf``/``potrs``
directly, without the checks and copies of the numpy and scipy wrappers, and
raise ``numpy.linalg.LinAlgError`` when a system is not positive definite.
"""

from types import SimpleNamespace

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs


def _block_shrink(z, order, bounds, gamma):
    zo = z[order]
    norms = np.sqrt(np.add.reduceat(zo * zo, bounds[:-1]))
    # a zero block keeps norm 1 here; it shrinks to zero either way
    nz = np.repeat(np.where(norms > 0.0, norms, 1.0), bounds[1:] - bounds[:-1])
    shrunk = np.where(nz > gamma, zo - gamma * (zo / nz), 0.0)
    out = np.zeros_like(z)
    out[order] = shrunk
    return out


def _row_shrink(Z, gamma):
    norms = np.sqrt(np.sum(Z * Z, axis=1))
    nz = np.where(norms > 0.0, norms, 1.0)
    unit = Z / nz[:, None]
    return np.where((norms > gamma)[:, None], Z - gamma * unit, 0.0)


def _potrf(A):
    # lower Cholesky factor from A's lower triangle; a Fortran-ordered A is
    # factored in place, any other is copied first
    L, info = dpotrf(A, lower=1, clean=0, overwrite_a=1)
    if info:
        raise np.linalg.LinAlgError(f"matrix is not positive definite (dpotrf info {info})")
    return L


def _potrs(L, b):
    x, info = dpotrs(L, b, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"dpotrs failed with info {info}")
    return x


def _hq_inner(X, Xt, XXt, y, v, mu, sigma, z0, tol, max_passes, woodbury):
    # Alternates the weight update w_i = exp(-e_i^2/(2 sigma^2)) / sigma^2 with
    # the weighted ridge solve (X^T W X + mu I) z = X^T W y + mu v.
    m = X.shape[0]
    neg_inv_two_s2 = -1.0 / (2.0 * sigma * sigma)
    inv_s2 = 1.0 / (sigma * sigma)
    muv = mu * v
    z = z0
    passes = 0
    for _ in range(max_passes):
        e = y - X @ z
        e *= e
        e *= neg_inv_two_s2
        w = np.exp(e, out=e)
        w *= inv_s2
        b = Xt @ (w * y)
        b += muv
        if woodbury:
            sw = np.sqrt(w)
            S = np.multiply.outer(sw, sw)
            S *= XXt
            S.ravel()[:: m + 1] += mu
            # S is symmetric, so S.T is S in Fortran order: factored in place
            u = _potrs(_potrf(S.T), sw * (X @ b))
            u *= sw
            z_new = b - Xt @ u
            z_new /= mu
        else:
            M = Xt @ (X * w[:, None])
            M.ravel()[:: M.shape[0] + 1] += mu
            z_new = _potrs(_potrf(M), b)
        passes += 1
        dz = np.abs(z_new - z).max()
        z = z_new
        if dz <= tol * (1.0 + np.abs(z_new).max()):
            break
    return z, passes


def _squared_zstep(L, X, Xt, b, mu, woodbury):
    # Solves (2 X^T X + mu I) z = b given the lower Cholesky factor L of either
    # the n x n system itself or of its m x m dual form (mu/2) I + X X^T.
    if woodbury:
        return (b - Xt @ _potrs(L, X @ b)) / mu
    return _potrs(L, b)


_numpy = SimpleNamespace(
    name="numpy",
    block_shrink=_block_shrink,
    row_shrink=_row_shrink,
    hq_inner=_hq_inner,
    squared_zstep=_squared_zstep,
)


def active():
    """Return the namespace of kernels the solvers call."""
    return _numpy


def backend_name():
    return _numpy.name


def warm_up():
    """Run every kernel once on tiny inputs, so first-call costs come early."""
    impl = _numpy
    z = np.array([1.5, -0.2, 0.0])
    order = np.arange(3, dtype=np.int64)
    bounds = np.array([0, 2, 3], dtype=np.int64)
    impl.block_shrink(z.copy(), order, bounds, 0.1)
    impl.row_shrink(np.array([[1.0, 2.0], [0.1, 0.0]]), 0.5)
    X = np.array([[1.0, 0.2, 0.1], [0.0, 1.0, 0.3]])
    Xt = np.ascontiguousarray(X.T)
    XXt = X @ Xt
    y = np.array([1.0, -0.5])
    v = np.zeros(3)
    impl.hq_inner(X, Xt, XXt, y, v, 0.1, 1.0, np.zeros(3), 1e-6, 3, True)
    impl.hq_inner(X, Xt, np.zeros((0, 0)), y, v, 0.1, 1.0, np.zeros(3), 1e-6, 3, False)
    Ld = np.linalg.cholesky(2.0 * (Xt @ X) + 0.1 * np.eye(3))
    Lw = np.linalg.cholesky(0.05 * np.eye(2) + XXt)
    impl.squared_zstep(Ld, X, Xt, v, 0.1, False)
    impl.squared_zstep(Lw, X, Xt, v, 0.1, True)
