"""Hot numeric kernels of the ADMM and half-quadratic solvers, in numpy.

Four kernels: blockwise shrinkage of a vector (``block_shrink``), rowwise
shrinkage of a matrix (``row_shrink``), the half-quadratic weighted-ridge
passes (``hq_inner``) and the squared-loss ridge step (``squared_zstep``).
The solvers look them up through ``active()`` at call time, so a caller can
wrap the namespace it returns, for instance to trace the calls.

The shrinkage kernels compute the update as ``z - gamma * (z / norm)`` and
zero every group whose computed norm does not exceed gamma.  ``block_shrink``
takes three fast paths.  Singleton blocks (``bounds`` one longer than ``z``)
shrink as ``z - clip(z, -gamma, gamma)``, the scalar soft threshold, bit for
bit the general path's result with ``+0.0`` for a zeroed entry; a single
block (``bounds`` of length 2, the collaborative set) takes its norm as one
dot product; and ``order=None`` stands for the identity order, which needs
no gather or scatter and gives the general path's result bit for bit.

The HQ passes of ``hq_inner`` solve their ridge system with one LAPACK
``posv`` call each, and ``squared_zstep`` applies a kept factor with
``potrs``; both call LAPACK directly, without the checks and copies of the
numpy and scipy wrappers, and raise ``numpy.linalg.LinAlgError`` when a
system is not positive definite.  ``hq_inner`` takes an optional trailing
``e0``, the residual y - X z0 the caller already has, which its first pass
then uses instead of computing it again.

On wide systems (``woodbury``, m < n) a pass solves the m x m dual form.
With D = W^{1/2} the diagonal of square-rooted weights
sqrt(w_i) = exp(-e_i^2/(4 sigma^2)) / sigma, it factors
S = D X X^T D + mu I, solves S a = D (y - X v) and sets z = v + X^T D a,
which solves (X^T W X + mu I) z = X^T W y + mu v exactly.  That is two
m x n products a pass, and its relative backward error stays near 1e-16 at
every bandwidth, outliers whose weights underflow to 0 included.  The
textbook elimination z = (X^T W y + mu v - X^T u) / mu needs a third
product and cancels terms of size 1/sigma^2: its backward error grows from
about 1e-14 at sigma 0.5 to 2e-7 at sigma 1e-4, above a default
``epsilon`` of 1e-7.  Tall systems solve the n x n primal system.

``squared_zstep`` is that step at the squared loss's constant weights
w_i = 2 (D = sqrt(2) I), with the kept factor of X X^T + (mu/2) I: it
solves (X X^T + (mu/2) I) a = y - X v and sets z = v + X^T a.  Its backward
error stays near 3e-16 down to mu 1e-3, where an elimination that divides
by mu reaches 9e-13.  Tall systems apply the factor of 2 X^T X + mu I to
2 X^T y + mu v.

``hq_inner`` stops after ``max_passes`` passes, or earlier after the first
pass that moves z by at most tol (1 + ||z||_inf).  The modal solvers call it
with one pass per ADMM iteration: one reweighted ridge solve, weighted at
the point the iteration steps from.  Since the weights satisfy
rho'(e) = w(e) e (Nikolova and Ng, SIAM J. Sci. Comput. 2005), a z that one
pass leaves in place is a stationary point of the z-step, so the ADMM loop
has the fixed points it would have with the z-step solved through (see
``mrarc.solver``).  Further passes and the step test serve callers that do
solve it through.
"""

import math
from types import SimpleNamespace

import numpy as np
from scipy.linalg.lapack import dposv, dpotrs


def _block_shrink(z, order, bounds, gamma):
    if bounds.size == z.size + 1:
        # singletons, in any order: z - clip(z, -gamma, gamma) is the scalar
        # soft threshold, +0.0 where |z| <= gamma
        out = np.maximum(z, -gamma)
        np.minimum(out, gamma, out=out)
        return np.subtract(z, out, out=out)
    if bounds.size == 2:
        # one block, in any order: a scalar norm needs no gather
        norm = math.sqrt(z.dot(z))
        return z - gamma * (z / norm) if norm > gamma else np.zeros_like(z)
    zo = z if order is None else z[order]
    norms = np.sqrt(np.add.reduceat(zo * zo, bounds[:-1]))
    # a block that goes to zero divides by gamma instead of its norm, which
    # may be 0 (or have underflowed to it)
    nz = np.repeat(np.where(norms > gamma, norms, gamma), bounds[1:] - bounds[:-1])
    shrunk = np.where(nz > gamma, zo - gamma * (zo / nz), 0.0)
    if order is None:
        return shrunk
    out = np.empty_like(z)
    out[order] = shrunk
    return out


def _row_shrink(Z, gamma):
    norms = np.sqrt(np.sum(Z * Z, axis=1))
    nz = np.where(norms > 0.0, norms, 1.0)
    unit = Z / nz[:, None]
    return np.where((norms > gamma)[:, None], Z - gamma * unit, 0.0)


def _posv(A, b):
    # solves A x = b from A's lower triangle; a Fortran-ordered A is factored
    # in place, any other is copied first, and b is overwritten
    _, x, info = dposv(A, b, lower=1, overwrite_a=1, overwrite_b=1)
    if info:
        raise np.linalg.LinAlgError(f"matrix is not positive definite (dposv info {info})")
    return x


def _potrs(L, b):
    x, info = dpotrs(L, b, lower=1)
    if info:
        raise np.linalg.LinAlgError(f"dpotrs failed with info {info}")
    return x


def _hq_weights(r, neg_inv_two_s2, inv_s2):
    # w_i = exp(-r_i^2 / (2 sigma^2)) / sigma^2, in one fresh array; given
    # -1/(4 sigma^2) and 1/sigma instead, sqrt(w_i)
    w = r * r
    w *= neg_inv_two_s2
    np.exp(w, out=w)
    w *= inv_s2
    return w


def _hq_inner(X, Xt, XXt, y, v, mu, sigma, z0, tol, max_passes, woodbury, e0=None):
    # Alternates the weight update w_i = exp(-e_i^2/(2 sigma^2)) / sigma^2 with
    # the weighted ridge solve (X^T W X + mu I) z = X^T W y + mu v.  The first
    # pass takes its residual e = y - X z0 from e0 when given (it is not
    # modified).  In the dual form w holds the square roots sqrt(w_i), the
    # diagonal of D, and the pass solves (D X X^T D + mu I) a = D (y - X v)
    # and sets z = v + X^T D a; y - X v is the same for every pass.
    m = X.shape[0]
    if woodbury:
        neg_inv_s2, scale = -1.0 / (4.0 * sigma * sigma), 1.0 / sigma
        r = y - X @ v
    else:
        neg_inv_s2, scale = -1.0 / (2.0 * sigma * sigma), 1.0 / (sigma * sigma)
        muv = mu * v
    z = z0
    passes = 0
    w = _hq_weights(y - X @ z if e0 is None else e0, neg_inv_s2, scale)
    for passes in range(1, max_passes + 1):
        if woodbury:
            S = np.multiply.outer(w, w)
            S *= XXt
            S.ravel()[:: m + 1] += mu
            # S is symmetric, so S.T is S in Fortran order: factored in place
            a = _posv(S.T, w * r)
            a *= w
            z_new = Xt @ a
            z_new += v
        else:
            b = Xt @ (w * y)
            b += muv
            M = Xt @ (X * w[:, None])
            M.ravel()[:: M.shape[0] + 1] += mu
            z_new = _posv(M, b)
        z, z_old = z_new, z
        if passes == max_passes or np.abs(z - z_old).max() <= tol * (1.0 + np.abs(z).max()):
            break
        w = _hq_weights(y - X @ z, neg_inv_s2, scale)
    return z, passes


def _squared_zstep(L, X, Xt, b, v, mu, woodbury):
    # Solves (2 X^T X + mu I) z = 2 X^T y + mu v given the lower Cholesky
    # factor L of the n x n system itself, with b = 2 X^T y, or of its m x m
    # dual form X X^T + (mu/2) I, with b = y: then z = v + X^T a, where
    # (X X^T + (mu/2) I) a = y - X v.
    if woodbury:
        z = Xt @ _potrs(L, b - X @ v)
        z += v
        return z
    return _potrs(L, b + mu * v)


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
    impl.squared_zstep(Ld, X, Xt, 2.0 * (Xt @ y), v, 0.1, False)
    impl.squared_zstep(Lw, X, Xt, y, v, 0.1, True)
