"""ADMM solvers for atomic-norm-regularized regression.

``solve_mrar`` minimizes mrlf(y - Xc) + lambda * N_A(c) by splitting c = z:
the c-update is the atomic prox, the z-update runs a short half-quadratic
loop (reweighted ridge with weights exp(-e^2/(2 sigma^2)) / sigma^2), and the
scaled multiplier closes the loop.  ``solve_ar_squared`` is the same skeleton
with the squared loss, whose z-update is a single prefactored linear solve.
One loop, ``_admm``, serves all four iterative solvers: it runs over an n x V
coefficient matrix, one column per modality, and the unimodal solvers are
the case V = 1.  Iteration stops when both ||c - z||_inf and the c step drop
below epsilon.

Systems with more atoms than observations are solved through the m x m dual
form of the ridge system (precomputed X X^T), which keeps the per-iteration
cost at O(m^2 n) instead of O(n^2 m).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import kernels
from .atomic import JOINT_ROWS, _norm, vector_prox_arrays
from .errors import DimensionMismatch, EmptyInput, NotSPD, ShapeMismatch
from .modal import ModalLoss, _mrlf_raw, default_sigma_floor
from .numkit import as_matrix, as_vector, check_positive


@dataclass(frozen=True)
class SquaredLoss:
    """Marker for the squared data-fidelity term ||y - Xc||^2."""


@dataclass(frozen=True)
class SolverConfig:
    """ADMM settings; defaults follow the reference configuration."""

    lam: float = 1e-3
    mu: float = 0.1
    epsilon: float = 1e-7
    max_iter: int = 100_000
    hq_inner_tol: float = 1e-6
    hq_inner_max: int = 10
    loss: object = field(default_factory=SquaredLoss)

    def __post_init__(self):
        for name in ("lam", "mu", "epsilon", "hq_inner_tol"):
            check_positive(getattr(self, name), name)
        if int(self.max_iter) < 1:
            raise ValueError("max_iter must be at least 1")
        if int(self.hq_inner_max) < 1:
            raise ValueError("hq_inner_max must be at least 1")
        if not isinstance(self.loss, (ModalLoss, SquaredLoss)):
            raise TypeError(f"loss must be ModalLoss or SquaredLoss, got {self.loss!r}")


@dataclass(frozen=True)
class SolveHistory:
    """Per-iteration ||c - z||_inf, ||c step||_inf, objective, and sigma."""

    gap: np.ndarray
    step: np.ndarray
    objective: np.ndarray
    sigma: np.ndarray


@dataclass(frozen=True)
class SolveResult:
    coefficients: np.ndarray
    converged: bool
    iterations: int
    history: SolveHistory
    sigma: object = None  # final bandwidth: float, per-modality array, or None


def _check_problem(X, y):
    X = as_matrix(X, "X")
    y = as_vector(y, "y")
    if y.shape[0] != X.shape[0]:
        raise DimensionMismatch(
            f"y has length {y.shape[0]} but X has {X.shape[0]} rows"
        )
    if X.shape[1] == 0:
        raise DimensionMismatch("X has no columns")
    return X, y


def _admm(pairs, aset, cfg, impl, zstep, data_loss, sigma, floors=None):
    """The c = z ADMM loop shared by the four iterative solvers.

    The coefficients form an n x V matrix, one column per modality (X_j, y_j)
    of ``pairs``; the unimodal solvers are the case V = 1.  Each iteration
    refreshes the bandwidths ``sigma`` (one per column) from the residuals
    y_j - X_j z_j when ``floors`` is given, takes the atomic prox of z - u,
    runs the loss's ``zstep(j, c_j, u_j, dual_j, z_j, sigma_j)`` on every
    column, and updates the unscaled dual; u = dual / mu.  ``data_loss(r,
    sigma_j)`` is the loss of residual r, for the history's objective.
    """
    n, nmod = pairs[0][0].shape[1], len(pairs)
    mu, lam, eps = cfg.mu, cfg.lam, cfg.epsilon
    max_iter = int(cfg.max_iter)
    gamma = lam / mu
    if aset.kind == JOINT_ROWS:
        def shrink(W):
            return impl.row_shrink(W, gamma)
    else:
        order, bounds = vector_prox_arrays(aset, n)

        def shrink(W):
            return impl.block_shrink(W[:, 0], order, bounds, gamma)[:, None]

    C = np.zeros((n, nmod))
    Z = np.zeros((n, nmod))
    dual = np.zeros((n, nmod))
    hist = np.empty((4, max_iter))
    converged = False
    iterations = max_iter
    for i in range(max_iter):
        if floors is not None:
            for j, (X, y) in enumerate(pairs):
                r = y - X @ Z[:, j]
                sigma[j] = max(floors[j], math.sqrt(float(r @ r) / (2.0 * r.size)))
        u = dual / mu
        C_prev = C
        C = shrink(Z - u)
        for j in range(nmod):
            Z[:, j] = zstep(j, C[:, j], u[:, j], dual[:, j], Z[:, j], sigma[j])
        D = C - Z
        dual += mu * D
        gap = float(np.abs(D).max())
        step = float(np.abs(C - C_prev).max())
        obj = lam * _norm(aset, C)
        for j, (X, y) in enumerate(pairs):
            obj += data_loss(y - X @ C[:, j], sigma[j])
        hist[:, i] = gap, step, obj, max(sigma)
        if gap < eps and step < eps:
            converged = True
            iterations = i + 1
            break
    history = SolveHistory(*(h[:iterations].copy() for h in hist))
    return SolveResult(C, converged, iterations, history, np.array(sigma))


def _one_column(out, sigma):
    # the unimodal view of a V = 1 result
    return replace(out, coefficients=out.coefficients[:, 0], sigma=sigma)


def _modal_admm(pairs, aset, cfg):
    impl = kernels.active()
    loss, mu = cfg.loss, cfg.mu
    tol, passes = cfg.hq_inner_tol, int(cfg.hq_inner_max)
    n = pairs[0][0].shape[1]
    Xts = [np.ascontiguousarray(X.T) for X, _ in pairs]
    wb = [X.shape[0] < n for X, _ in pairs]
    XXts = [X @ Xt if w else np.zeros((0, 0)) for (X, _), Xt, w in zip(pairs, Xts, wb)]
    floors = None
    if loss.adaptive_bandwidth:
        if any(y.size == 0 for _, y in pairs):
            raise EmptyInput("adaptive bandwidth needs at least one residual")
        floors = [
            loss.min_sigma if loss.min_sigma is not None else default_sigma_floor(y)
            for _, y in pairs
        ]

    def zstep(j, c, u, d, z, s):
        X, y = pairs[j]
        z, _ = impl.hq_inner(
            X, Xts[j], XXts[j], y, c + u, mu, s, np.ascontiguousarray(z),
            tol, passes, wb[j],
        )
        return z

    sigma = [loss.kernel.sigma] * len(pairs)
    return _admm(pairs, aset, cfg, impl, zstep, _mrlf_raw, sigma, floors)


def _squared_prefactor(X, Xt, mu, woodbury):
    # Fortran-ordered lower Cholesky factor of (mu/2) I + X X^T (dual form) or
    # of 2 X^T X + mu I, so that the LAPACK solves need no copy
    S = X @ Xt if woodbury else 2.0 * (Xt @ X)
    S[np.diag_indices(S.shape[0])] += 0.5 * mu if woodbury else mu
    try:
        return scipy.linalg.cholesky(S, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - mu > 0 keeps it SPD
        raise NotSPD("ridge system is not positive definite") from exc


def _squared_admm(pairs, aset, cfg):
    impl = kernels.active()
    mu = cfg.mu
    n = pairs[0][0].shape[1]
    Xts = [np.ascontiguousarray(X.T) for X, _ in pairs]
    wb = [X.shape[0] < n for X, _ in pairs]
    Ls = [_squared_prefactor(X, Xt, mu, w) for (X, _), Xt, w in zip(pairs, Xts, wb)]
    b_consts = [2.0 * (Xt @ y) for Xt, (_, y) in zip(Xts, pairs)]

    def zstep(j, c, u, d, z, s):
        X = pairs[j][0]
        return impl.squared_zstep(Ls[j], X, Xts[j], b_consts[j] + mu * c + d, mu, wb[j])

    def data_loss(r, s):
        return float(r @ r)

    return _admm(pairs, aset, cfg, impl, zstep, data_loss, [np.nan] * len(pairs))


def solve_mrar(X, y, aset, cfg):
    """Run the modal-regression ADMM; cfg.loss must be a ModalLoss."""
    X, y = _check_problem(X, y)
    if not isinstance(cfg.loss, ModalLoss):
        raise TypeError("solve_mrar requires cfg.loss to be a ModalLoss")
    if aset.kind == JOINT_ROWS:
        raise ShapeMismatch("joint-rows problems go through solve_mrar_multimodal")
    out = _modal_admm([(X, y)], aset, cfg)
    return _one_column(out, float(out.sigma[0]))


def solve_ar_squared(X, y, aset, cfg):
    """Squared-loss ADMM for min ||y - Xc||^2 + lam * N_A(c)."""
    X, y = _check_problem(X, y)
    if not isinstance(cfg.loss, SquaredLoss):
        raise TypeError("solve_ar_squared requires cfg.loss to be a SquaredLoss")
    if aset.kind == JOINT_ROWS:
        raise ShapeMismatch("joint-rows problems go through solve_ar_squared_multimodal")
    return _one_column(_squared_admm([(X, y)], aset, cfg), None)


def _ridge_factor(A, lam):
    """Cholesky factor of A^T A + lam I, as ``scipy.linalg.cho_factor`` gives it."""
    check_positive(lam, "lam")
    G = A.T @ A
    G[np.diag_indices(G.shape[0])] += lam
    try:
        return scipy.linalg.cho_factor(G, lower=True, overwrite_a=True, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise NotSPD("ridge system is not positive definite") from exc


def solve_crc(A, y, lam):
    """Collaborative ridge representation (A^T A + lam I)^{-1} A^T y."""
    A, y = _check_problem(A, y)
    return scipy.linalg.cho_solve(_ridge_factor(A, lam), A.T @ y, check_finite=False)


def _check_multimodal(Xs, ys, aset):
    if aset.kind != JOINT_ROWS:
        raise ShapeMismatch("multimodal solvers require the joint-rows atomic set")
    if len(Xs) == 0 or len(Xs) != len(ys):
        raise DimensionMismatch(
            f"got {len(Xs)} dictionaries and {len(ys)} targets"
        )
    pairs = [_check_problem(X, y) for X, y in zip(Xs, ys)]
    n = pairs[0][0].shape[1]
    for X, _ in pairs[1:]:
        if X.shape[1] != n:
            raise DimensionMismatch("modalities disagree on the number of atoms")
    return pairs, n


def solve_mrar_multimodal(Xs, ys, aset, cfg):
    """Joint-rows modal regression over modalities (X_j, y_j) sharing atoms.

    Each column of the coefficient matrix gets its own half-quadratic ridge
    update and adaptive bandwidth; the row-sparsity prox ties them together.
    Returns a SolveResult whose sigma is the vector of final bandwidths.
    """
    if not isinstance(cfg.loss, ModalLoss):
        raise TypeError("solve_mrar_multimodal requires cfg.loss to be a ModalLoss")
    pairs, _ = _check_multimodal(Xs, ys, aset)
    return _modal_admm(pairs, aset, cfg)


def solve_ar_squared_multimodal(Xs, ys, aset, cfg):
    """Squared-loss counterpart of the joint-rows solver."""
    if not isinstance(cfg.loss, SquaredLoss):
        raise TypeError(
            "solve_ar_squared_multimodal requires cfg.loss to be a SquaredLoss"
        )
    pairs, _ = _check_multimodal(Xs, ys, aset)
    return replace(_squared_admm(pairs, aset, cfg), sigma=None)
