"""ADMM solvers for atomic-norm-regularized regression.

``solve_mrar`` minimizes mrlf(y - Xc) + lambda * N_A(c) by splitting c = z:
the c-update is the atomic prox, the z-update is one half-quadratic (HQ)
reweighting, and the scaled multiplier closes the loop.  The z-update takes
the weights w_i = exp(-e_i^2/(2 sigma^2)) / sigma^2 of the residual e at the
point the iteration steps from (the residual the bandwidth refresh has
already computed) and solves one weighted ridge system,
(X^T W X + mu I) z = X^T W y + mu v: one pass of ``kernels.hq_inner``.
The HQ weights satisfy rho'(e) = w(e) e for the modal loss rho (Nikolova
and Ng, "Analysis of Half-Quadratic Minimization Methods for Signal and
Image Recovery", SIAM J. Sci. Comput. 2005), so at a point where the
iterates stop moving the weighted ridge equation is the z-step's own
stationarity condition: one pass per iteration has the fixed points of
the exact z-step.  Solving the z-step through, with an HQ loop inside
every iteration, bought nothing at convergence; it cost several ridge
solves per iteration and drove the adaptive bandwidth to its floor.
``solve_ar_squared`` is the same skeleton with the squared loss, whose
z-update is the ridge system at constant weights 2, (2 X^T X + mu I) z =
2 X^T y + mu v, solved with a factor kept for the whole solve.
One loop, ``_admm``, serves all four iterative solvers: it runs over an n x V
coefficient matrix, one column per modality, and the unimodal solvers are
the case V = 1.  It sets up the z-step that ``cfg.loss`` asks for, and both
z-steps move z toward the same point v = c + dual / mu.  Iteration stops
when both ||c - z||_inf and the c step drop below epsilon.

Each iteration computes only what the next iterate or the stop test needs:
the history keeps the gap, the step and the bandwidth, which the loop has at
hand, and no objective; it grows with the iterations that run, so
``max_iter`` caps the work without costing memory.  The residual y - X z
behind an adaptive bandwidth is handed on to the half-quadratic pass, and
whether the shrink's block layout is in identity order is settled once per
solve.

Every solve runs with restarted Nesterov momentum on z and the dual
(Goldstein, O'Donoghue, Setzer and Baraniuk, "Fast Alternating Direction
Optimization Methods", SIAM J. Imaging Sci. 2014, Algorithm 8).  Each
iteration steps from an extrapolated point, and the momentum restarts from
the previous iterate whenever the combined residual
||dual - dual_hat||^2 / mu + mu ||z - z_hat||^2 fails to fall by the factor
``_RESTART_ETA``, unless that would repeat the step just taken.  On the
benchmark galleries this cuts the modal block solves from about 220 iterations to
about 70, the squared-loss block solves from about 350 to about 70, and the
squared-loss joint-rows solves from about 610 to about 170.

Systems with more atoms than observations are solved through the m x m dual
form of the ridge system (precomputed X X^T), which keeps the per-iteration
cost at O(m^2 n) instead of O(n^2 m).  Both losses take the dual step
z = v + X^T D a: the modal pass with D the square roots of the HQ weights,
the squared step with D = sqrt(2) I through its kept factor of
X X^T + (mu/2) I.  Neither divides by mu, so both stay backward stable at
any bandwidth and any mu.  An elimination that divides by mu loses
accuracy as 1/sigma^2 (and as 1/mu): it kept adaptive solves whose
bandwidth sinks to its floor of about 1e-4 from converging (see
``mrarc.kernels``).
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np
import scipy.linalg

from . import kernels
from .atomic import JOINT_ROWS, vector_prox_arrays
from .errors import DimensionMismatch, EmptyInput, NotSPD, ShapeMismatch
from .modal import ModalLoss, default_sigma_floor
from .numkit import as_matrix, as_vector, check_integer, check_positive

# Restart threshold of the accelerated ADMM loop: the momentum restarts when
# the combined residual fails to fall to this share of its last value.
_RESTART_ETA = 0.99


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
    loss: object = field(default_factory=SquaredLoss)

    def __post_init__(self):
        for name in ("lam", "mu", "epsilon"):
            check_positive(getattr(self, name), name)
        check_integer(self.max_iter, "max_iter")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")
        if not isinstance(self.loss, (ModalLoss, SquaredLoss)):
            raise TypeError(f"loss must be ModalLoss or SquaredLoss, got {self.loss!r}")


@dataclass(frozen=True)
class SolveHistory:
    """Per-iteration ||c - z||_inf, ||c step||_inf and largest bandwidth.

    These are the figures the loop computes anyway for its stop test and its
    bandwidth refresh; sigma is NaN for the squared loss.
    """

    gap: np.ndarray
    step: np.ndarray
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


def _admm(pairs, aset, cfg):
    """The c = z ADMM loop shared by the four iterative solvers.

    The coefficients form an n x V matrix, one column per modality (X_j, y_j)
    of ``pairs``; the unimodal solvers are the case V = 1.  Each iteration
    steps from a point (Z_hat, dual_hat): for an adaptive modal loss it
    refreshes the bandwidth of every column from the residual
    e_j = y_j - X_j z_hat_j, takes the atomic prox C of Z_hat - dual_hat / mu,
    forms V = C + dual_hat / mu, runs the z-step
    ``zstep(j, v_j, z_hat_j, sigma_j, e_j)`` on every column and updates the
    unscaled dual.  The loss enters through the z-step alone, and both
    z-steps solve a ridge system whose penalty pulls z toward v_j: the modal
    one is one HQ pass weighted at z_hat_j (e_j is None without a refresh),
    the squared one applies a factor kept for the whole solve.

    The point carries restarted Nesterov momentum (Goldstein et al., SIAM
    J. Imaging Sci. 2014, Algorithm 8).  While the combined residual
    ||dual - dual_hat||^2 / mu + mu ||Z - Z_hat||^2 falls by the factor
    eta = ``_RESTART_ETA``, the point extrapolates both Z and the dual along
    their last step; otherwise the momentum restarts from the previous
    iterate.  When the step just taken already started from the previous
    iterate, Algorithm 8 would repeat it exactly, and the repeat's zero c
    step would pass the stop test at a point that has not converged; the
    restart then starts from the current iterate instead.

    With an exact z-step the new dual is the loss gradient at Z, so the
    returned C meets -grad f(C) in lam dN(C) up to
    L ||Z - C||_inf + mu ||Z - Z_hat||_inf, L bounding the inf-norm of the
    loss Hessian.  The second term is the momentum's own share: plain ADMM
    would have the previous Z in place of Z_hat.  The modal z-step is one HQ
    pass weighted at Z_hat, so its dual is the gradient at Z of the
    quadratic surrogate at Z_hat; it differs from the loss gradient by a
    term that also vanishes with ||Z - Z_hat||.  A squared-loss result has
    sigma None.
    """
    impl = kernels.active()
    n, nmod = pairs[0][0].shape[1], len(pairs)
    loss, mu, lam, eps = cfg.loss, cfg.mu, cfg.lam, cfg.epsilon
    max_iter = int(cfg.max_iter)
    gamma, eta = lam / mu, _RESTART_ETA
    Xts = [np.ascontiguousarray(X.T) for X, _ in pairs]
    wide = [X.shape[0] < n for X, _ in pairs]
    modal = isinstance(loss, ModalLoss)
    floors = None
    if modal:
        XXts = [X @ Xt if w else np.zeros((0, 0)) for (X, _), Xt, w in zip(pairs, Xts, wide)]
        if loss.sigma is None:
            if any(y.size == 0 for _, y in pairs):
                raise EmptyInput("adaptive bandwidth needs at least one residual")
            floors = [
                loss.min_sigma if loss.min_sigma is not None else default_sigma_floor(y)
                for _, y in pairs
            ]

        def zstep(j, v, z, s, e):
            X, y = pairs[j]
            # one HQ pass, weighted at the point stepped from (tol is unused)
            return impl.hq_inner(X, Xts[j], XXts[j], y, v, mu, s, z, 0.0, 1, wide[j], e)[0]
    else:
        Ls = [_squared_prefactor(X, Xt, mu, w) for (X, _), Xt, w in zip(pairs, Xts, wide)]
        # the target in the factor's space: y (m x m dual), 2 X^T y (n x n primal)
        bs = [y if w else 2.0 * (Xt @ y) for (_, y), Xt, w in zip(pairs, Xts, wide)]

        def zstep(j, v, z, s, e):
            return impl.squared_zstep(Ls[j], pairs[j][0], Xts[j], bs[j], v, mu, wide[j])
    sigma = [loss.sigma if modal else math.nan] * nmod
    if aset.kind == JOINT_ROWS:
        def shrink(w):
            return impl.row_shrink(w.reshape(n, nmod), gamma).ravel()
    else:
        order, bounds = vector_prox_arrays(aset, n)

        def shrink(w):
            return impl.block_shrink(w, order, bounds, gamma)

    # every n x V matrix is held flat, row-major, so that the elementwise
    # updates run over plain vectors; column j is the slice j::V.  The
    # iterate (Z, dual), the one before it and the point stepped from are
    # 2 x nV buffers, and a new iterate never overwrites the point it is
    # computed from.
    cols = [slice(j, None, nmod) for j in range(nmod)]
    S, S_prev, S_hat = np.zeros((3, 2, n * nmod))
    alpha, c_last = 1.0, math.inf
    plain = True  # the point is the iterate before the one being computed
    C = np.zeros(n * nmod)
    resid = [None] * nmod
    hist = []  # (gap, step, largest sigma) of every iteration
    converged = False
    iterations = max_iter
    for i in range(max_iter):
        z_hat, dual_hat = S_hat[0], S_hat[1]
        if floors is not None:
            for j, (X, y) in enumerate(pairs):
                r = resid[j] = y - X @ z_hat[cols[j]]
                sigma[j] = max(floors[j], math.sqrt(float(r @ r) / (2.0 * r.size)))
        u = dual_hat / mu
        C_prev = C
        C = shrink(z_hat - u)
        V = C + u
        S, S_prev = S_prev, S  # the new iterate overwrites the one before last
        z, dual = S[0], S[1]
        for j, cj in enumerate(cols):
            z[cj] = zstep(j, V[cj], z_hat[cj], sigma[j], resid[j])
        D = C - z
        gap = float(np.abs(D).max())
        step = float(np.abs(C - C_prev).max())
        hist.append((gap, step, max(sigma)))
        np.multiply(D, mu, out=dual)
        dual += dual_hat
        if gap < eps and step < eps:
            converged = True
            iterations = i + 1
            break
        dz = z - z_hat
        c_now = mu * (dz.dot(dz) + D.dot(D))  # dual - dual_hat is mu D
        if c_now < eta * c_last:
            alpha_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * alpha * alpha))
            beta = (alpha - 1.0) / alpha_next
            alpha, c_last, plain = alpha_next, c_now, beta == 0.0
            np.subtract(S, S_prev, out=S_hat)
            S_hat *= beta
            S_hat += S
        else:  # restart from the previous iterate, unless that repeats a step
            alpha, c_last = 1.0, c_last / eta
            if plain:
                np.copyto(S_hat, S)
            else:
                S_hat, S_prev = S_prev, S_hat
    history = SolveHistory(*(np.array(h) for h in zip(*hist)))
    sigma = np.array(sigma) if modal else None
    return SolveResult(C.reshape(n, nmod), converged, iterations, history, sigma)


def _one_column(out):
    # the unimodal view of a V = 1 result, with a scalar bandwidth
    sigma = None if out.sigma is None else float(out.sigma[0])
    return replace(out, coefficients=out.coefficients[:, 0], sigma=sigma)


def _squared_prefactor(X, Xt, mu, woodbury):
    # Fortran-ordered lower Cholesky factor of (mu/2) I + X X^T (dual form) or
    # of 2 X^T X + mu I, so that the LAPACK solves need no copy
    S = X @ Xt if woodbury else 2.0 * (Xt @ X)
    S[np.diag_indices(S.shape[0])] += 0.5 * mu if woodbury else mu
    try:
        return scipy.linalg.cholesky(S, lower=True, check_finite=False)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - mu > 0 keeps it SPD
        raise NotSPD("ridge system is not positive definite") from exc


def solve_mrar(X, y, aset, cfg):
    """Run the modal-regression ADMM; cfg.loss must be a ModalLoss."""
    X, y = _check_problem(X, y)
    if not isinstance(cfg.loss, ModalLoss):
        raise TypeError("solve_mrar requires cfg.loss to be a ModalLoss")
    if aset.kind == JOINT_ROWS:
        raise ShapeMismatch("joint-rows problems go through solve_mrar_multimodal")
    return _one_column(_admm([(X, y)], aset, cfg))


def solve_ar_squared(X, y, aset, cfg):
    """Squared-loss ADMM for min ||y - Xc||^2 + lam * N_A(c)."""
    X, y = _check_problem(X, y)
    if not isinstance(cfg.loss, SquaredLoss):
        raise TypeError("solve_ar_squared requires cfg.loss to be a SquaredLoss")
    if aset.kind == JOINT_ROWS:
        raise ShapeMismatch("joint-rows problems go through solve_ar_squared_multimodal")
    return _one_column(_admm([(X, y)], aset, cfg))


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
    return _admm(pairs, aset, cfg)


def solve_ar_squared_multimodal(Xs, ys, aset, cfg):
    """Squared-loss counterpart of the joint-rows solver."""
    if not isinstance(cfg.loss, SquaredLoss):
        raise TypeError(
            "solve_ar_squared_multimodal requires cfg.loss to be a SquaredLoss"
        )
    pairs, _ = _check_multimodal(Xs, ys, aset)
    return _admm(pairs, aset, cfg)
