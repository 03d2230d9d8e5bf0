"""Hot numeric kernels, each with a numba-jitted and a pure-numpy implementation.

The active backend is picked at import time: numba when importable, unless the
environment variable ``MRARC_NO_NUMBA`` is set to ``1``/``true``/``yes``, in
which case the pure-numpy fallback is used.  ``use_backend`` swaps the active
implementation set at runtime; the benchmark harness uses it to time one
against the other on identical inputs.

All shrinkage kernels compute the update as ``z - gamma * (z / norm)`` so that
singleton blocks reproduce the scalar soft threshold bit for bit.  The numpy
ridge solves (``hq_inner``, ``squared_zstep``) call LAPACK ``potrf``/``potrs``
directly, without the checks and copies of the numpy and scipy wrappers, and
raise ``numpy.linalg.LinAlgError`` when a system is not positive definite.
"""

import os
from contextlib import contextmanager
from types import SimpleNamespace

import numpy as np
from scipy.linalg.lapack import dpotrf, dpotrs

try:
    from numba import njit

    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a declared dependency
    njit = None
    HAVE_NUMBA = False


def _env_disables_numba():
    return os.environ.get("MRARC_NO_NUMBA", "").strip().lower() in {"1", "true", "yes"}


# ---------------------------------------------------------------------------
# pure-numpy implementations
# ---------------------------------------------------------------------------


def _soft_threshold_np(z, gamma):
    out = z - gamma * np.sign(z)
    out[np.abs(z) <= gamma] = 0.0
    return out


def _block_shrink_np(z, order, bounds, gamma):
    zo = z[order]
    norms = np.sqrt(np.add.reduceat(zo * zo, bounds[:-1]))
    # a zero block keeps norm 1 here; it shrinks to zero either way
    nz = np.repeat(np.where(norms > 0.0, norms, 1.0), bounds[1:] - bounds[:-1])
    shrunk = np.where(nz > gamma, zo - gamma * (zo / nz), 0.0)
    out = np.zeros_like(z)
    out[order] = shrunk
    return out


def _row_shrink_np(Z, gamma):
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


def _hq_inner_np(X, Xt, XXt, y, v, mu, sigma, z0, tol, max_passes, woodbury):
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


def _squared_zstep_np(L, X, Xt, b, mu, woodbury):
    # Solves (2 X^T X + mu I) z = b given the lower Cholesky factor L of either
    # the n x n system itself or of its m x m dual form (mu/2) I + X X^T.
    if woodbury:
        return (b - Xt @ _potrs(L, X @ b)) / mu
    return _potrs(L, b)


# ---------------------------------------------------------------------------
# numba twins
# ---------------------------------------------------------------------------


def _soft_threshold_loop(z, gamma):
    out = np.zeros_like(z)
    for i in range(z.shape[0]):
        if abs(z[i]) > gamma:
            out[i] = z[i] - gamma * np.sign(z[i])
    return out


def _block_shrink_loop(z, order, bounds, gamma):
    out = np.zeros_like(z)
    for l in range(bounds.shape[0] - 1):
        s = 0.0
        for j in range(bounds[l], bounds[l + 1]):
            s += z[order[j]] * z[order[j]]
        nrm = np.sqrt(s)
        if nrm > gamma:
            for j in range(bounds[l], bounds[l + 1]):
                zi = z[order[j]]
                out[order[j]] = zi - gamma * (zi / nrm)
    return out


def _row_shrink_loop(Z, gamma):
    out = np.zeros_like(Z)
    for i in range(Z.shape[0]):
        s = 0.0
        for j in range(Z.shape[1]):
            s += Z[i, j] * Z[i, j]
        nrm = np.sqrt(s)
        if nrm > gamma:
            for j in range(Z.shape[1]):
                out[i, j] = Z[i, j] - gamma * (Z[i, j] / nrm)
    return out


def _chol_solve_loop(L, b):
    n = L.shape[0]
    x = b.copy()
    for i in range(n):
        s = x[i]
        for j in range(i):
            s -= L[i, j] * x[j]
        x[i] = s / L[i, i]
    for i in range(n - 1, -1, -1):
        s = x[i]
        for j in range(i + 1, n):
            s -= L[j, i] * x[j]
        x[i] = s / L[i, i]
    return x


def _hq_inner_loop(X, Xt, XXt, y, v, mu, sigma, z0, tol, max_passes, woodbury):
    m = X.shape[0]
    n = X.shape[1]
    inv_two_s2 = 1.0 / (2.0 * sigma * sigma)
    inv_s2 = 1.0 / (sigma * sigma)
    z = z0
    passes = 0
    for _ in range(max_passes):
        e = y - X @ z
        w = np.exp(-(e * e) * inv_two_s2) * inv_s2
        b = Xt @ (w * y) + mu * v
        if woodbury:
            sw = np.sqrt(w)
            S = np.empty((m, m))
            for i in range(m):
                for j in range(m):
                    S[i, j] = sw[i] * sw[j] * XXt[i, j]
                S[i, i] += mu
            L = np.linalg.cholesky(S)
            u = _chol_solve_loop(L, sw * (X @ b))
            z_new = (b - Xt @ (sw * u)) / mu
        else:
            M = Xt @ (X * w.reshape(m, 1))
            for i in range(n):
                M[i, i] += mu
            L = np.linalg.cholesky(M)
            z_new = _chol_solve_loop(L, b)
        passes += 1
        dz = 0.0
        zmax = 0.0
        for i in range(n):
            d = abs(z_new[i] - z[i])
            if d > dz:
                dz = d
            if abs(z_new[i]) > zmax:
                zmax = abs(z_new[i])
        z = z_new
        if dz <= tol * (1.0 + zmax):
            break
    return z, passes


def _squared_zstep_loop(L, X, Xt, b, mu, woodbury):
    if woodbury:
        u = _chol_solve_loop(L, X @ b)
        return (b - Xt @ u) / mu
    return _chol_solve_loop(L, b)


# ---------------------------------------------------------------------------
# backend registry
# ---------------------------------------------------------------------------

_KERNEL_NAMES = ("soft_threshold", "block_shrink", "row_shrink", "hq_inner", "squared_zstep")

numpy_impl = SimpleNamespace(
    name="numpy",
    soft_threshold=_soft_threshold_np,
    block_shrink=_block_shrink_np,
    row_shrink=_row_shrink_np,
    hq_inner=_hq_inner_np,
    squared_zstep=_squared_zstep_np,
)

if HAVE_NUMBA:
    # rebind the globals so the nested _chol_solve_loop calls resolve to the
    # compiled dispatcher when the outer kernels are jitted
    _soft_threshold_loop = njit(cache=True)(_soft_threshold_loop)
    _block_shrink_loop = njit(cache=True)(_block_shrink_loop)
    _row_shrink_loop = njit(cache=True)(_row_shrink_loop)
    _chol_solve_loop = njit(cache=True)(_chol_solve_loop)
    _hq_inner_loop = njit(cache=True)(_hq_inner_loop)
    _squared_zstep_loop = njit(cache=True)(_squared_zstep_loop)
    numba_impl = SimpleNamespace(
        name="numba",
        soft_threshold=_soft_threshold_loop,
        block_shrink=_block_shrink_loop,
        row_shrink=_row_shrink_loop,
        hq_inner=_hq_inner_loop,
        squared_zstep=_squared_zstep_loop,
    )
else:  # pragma: no cover
    numba_impl = None

_active = numpy_impl if (numba_impl is None or _env_disables_numba()) else numba_impl


def active():
    """Return the implementation namespace currently in use."""
    return _active


def backend_name():
    return _active.name


def available_backends():
    names = ["numpy"]
    if numba_impl is not None:
        names.append("numba")
    return names


def get_backend(name):
    if name == "numpy":
        return numpy_impl
    if name == "numba":
        if numba_impl is None:
            raise RuntimeError("numba backend requested but numba is not importable")
        return numba_impl
    raise ValueError(f"unknown backend {name!r}")


@contextmanager
def use_backend(name):
    """Temporarily switch the active kernel implementations."""
    global _active
    previous = _active
    _active = get_backend(name)
    try:
        yield _active
    finally:
        _active = previous


def warm_up():
    """Trigger jit compilation of every kernel on tiny inputs."""
    impl = _active
    z = np.array([1.5, -0.2, 0.0])
    order = np.arange(3, dtype=np.int64)
    bounds = np.array([0, 2, 3], dtype=np.int64)
    impl.soft_threshold(z.copy(), 0.1)
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
