"""Independent reference implementations the tests compare against.

Everything here is deliberately naive: golden-section line searches, dense
grids, textbook proximal-gradient iterations.  Nothing touches the package's
solver internals, so agreement between the two is evidence rather than
tautology.
"""

import numpy as np

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def golden_section(f, lo, hi, iters=200):
    """Minimize a unimodal scalar function on [lo, hi]."""
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(iters):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _GOLDEN * (b - a)
            fd = f(d)
        if b - a <= 1e-14 * (1.0 + abs(a) + abs(b)):
            break
    return 0.5 * (a + b)


def golden_section_pair(fdiff, lo, hi, iters=300):
    """Golden-section minimization driven by a pairwise comparison.

    ``fdiff(c, d)`` must return f(d) - f(c) computed analytically; comparing
    through the difference sidesteps the sqrt(machine-eps) resolution floor
    that plagues comparisons of two nearly equal function values near a flat
    minimum.
    """
    a, b = float(lo), float(hi)
    c = b - _GOLDEN * (b - a)
    d = a + _GOLDEN * (b - a)
    for _ in range(iters):
        if fdiff(c, d) > 0.0:  # f(d) > f(c): the minimum lies in [a, d]
            b, d = d, c
            c = b - _GOLDEN * (b - a)
        else:
            a, c = c, d
            d = a + _GOLDEN * (b - a)
        if b - a <= 1e-15 * (1.0 + abs(a) + abs(b)):
            break
    return 0.5 * (a + b)


def prox_l1_scalar(z, gamma):
    """argmin_c 0.5 (c - z)^2 + gamma |c|, found by golden-section search."""

    def fdiff(c, d):
        return 0.5 * (d - c) * (c + d - 2.0 * z) + gamma * (abs(d) - abs(c))

    r = abs(z) + 1.0
    return golden_section_pair(fdiff, -r, r)


def prox_l2_vector(z, gamma):
    """argmin_v 0.5 ||v - z||^2 + gamma ||v||_2 via a radial golden search.

    The minimizer is a nonnegative multiple of z, so the search runs over
    the radius t = ||v||.
    """
    nrm = float(np.linalg.norm(z))
    if nrm == 0.0:
        return np.zeros_like(z)

    def fdiff(c, d):
        return 0.5 * (d - c) * (c + d - 2.0 * nrm) + gamma * (d - c)

    t = max(golden_section_pair(fdiff, 0.0, nrm + 1.0), 0.0)
    return (t / nrm) * np.asarray(z, dtype=np.float64)


def _ista_loop(X, Xt, y, lam, L, tol, max_iter):
    c = np.zeros(X.shape[1])
    thr = lam / L
    for _ in range(max_iter):
        grad = 2.0 * (Xt @ (X @ c - y))
        u = c - grad / L
        c_new = np.where(u > thr, u - thr, np.where(u < -thr, u + thr, 0.0))
        step = np.abs(c_new - c).max(initial=0.0)
        cmax = np.abs(c_new).max(initial=0.0)
        c = c_new
        if step <= tol * (1.0 + cmax):
            break
    return c


def ista_lasso(X, y, lam, tol=1e-10, max_iter=500_000):
    """Minimize ||y - Xc||^2 + lam ||c||_1 by proximal gradient descent."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.ascontiguousarray(y, dtype=np.float64)
    L = 2.0 * np.linalg.norm(X, 2) ** 2
    return _ista_loop(
        X, np.ascontiguousarray(X.T), y, float(lam), L, float(tol), int(max_iter)
    )


def lasso_objective(X, y, c, lam):
    r = y - X @ c
    return float(r @ r) + lam * float(np.sum(np.abs(c)))


def lasso_duality_gap(X, y, c, lam):
    """Upper bound on lasso_objective(c) - min_c' lasso_objective(c').

    The dual of min ||y - Xc||^2 + lam ||c||_1 is max theta^T y - ||theta||^2/4
    over ||X^T theta||_inf <= lam.  The point theta = 2 (y - Xc), scaled into
    that box, is dual feasible, so the primal-dual difference at it bounds the
    suboptimality of c from above.
    """
    theta = 2.0 * (y - X @ c)
    top = float(np.max(np.abs(X.T @ theta)))
    if top > lam:
        theta *= lam / top
    return lasso_objective(X, y, c, lam) - (float(theta @ y) - float(theta @ theta) / 4.0)


def modal_scalar_min(target, lam, sigma, span=None):
    """Global minimizer of (1 - exp(-(target-c)^2/(2 sigma^2))) + lam |c|.

    Dense grid over [-span, span] followed by golden-section refinement
    around the best cell; the grid makes it immune to the local minima of
    the nonconvex modal term.
    """
    span = abs(target) + 1.0 if span is None else span

    def f(c):
        d = target - c
        return 1.0 - np.exp(-(d * d) / (2.0 * sigma * sigma)) + lam * abs(c)

    grid = np.linspace(-span, span, 40001)
    vals = 1.0 - np.exp(-((target - grid) ** 2) / (2.0 * sigma * sigma))
    vals += lam * np.abs(grid)
    k = int(np.argmin(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, grid.size - 1)]
    best = golden_section(f, lo, hi)
    # the kink at zero can hide the optimum from a smooth line search
    return 0.0 if f(0.0) <= f(best) else best


def lstsq_on_support(X, y, support):
    """Least-squares coefficients restricted to the given column set."""
    c = np.zeros(X.shape[1])
    sub = X[:, support]
    c[support], *_ = np.linalg.lstsq(sub, y, rcond=None)
    return c


def lasso_kkt_violation(X, y, c, lam, zero_tol=1e-8):
    """Worst coordinate-wise violation of the lasso optimality conditions.

    At a minimizer of ||y - Xc||^2 + lam ||c||_1 the gradient g = 2 X^T (Xc - y)
    satisfies g_i = -lam sign(c_i) on the support and |g_i| <= lam elsewhere.
    """
    g = 2.0 * (X.T @ (X @ c - y))
    worst = 0.0
    for i in range(c.size):
        if abs(c[i]) > zero_tol:
            worst = max(worst, abs(g[i] + lam * np.sign(c[i])))
        else:
            worst = max(worst, max(0.0, abs(g[i]) - lam))
    return worst


def group_lasso_kkt_violation(X, y, c, lam, blocks, zero_tol=1e-8):
    """Block-wise optimality violation for ||y - Xc||^2 + lam sum ||c_b||_2."""
    g = 2.0 * (X.T @ (X @ c - y))
    worst = 0.0
    for idx in blocks:
        cb = c[list(idx)]
        gb = g[list(idx)]
        nrm = float(np.linalg.norm(cb))
        if nrm > zero_tol:
            worst = max(worst, float(np.linalg.norm(gb + lam * cb / nrm)))
        else:
            worst = max(worst, max(0.0, float(np.linalg.norm(gb)) - lam))
    return worst


def class_residuals(atoms, class_of, y, c, sigma=None):
    """Residual of y against each class's share of the code c, class by class.

    The l2 norm of y - A_k c_k, or with ``sigma`` the modal loss
    sum_i 1 - exp(-r_i^2 / (2 sigma^2)) of that residual r.
    """
    labels = np.asarray(class_of)
    out = []
    for k in range(int(labels.max()) + 1):
        cols = np.flatnonzero(labels == k)
        r = y - atoms[:, cols] @ c[cols]
        if sigma is None:
            out.append(np.linalg.norm(r))
        else:
            out.append(np.sum(1.0 - np.exp(-(r * r) / (2.0 * sigma * sigma))))
    return np.array(out)


def modal_gradient(X, y, c, sigma):
    """Gradient in c of sum_i 1 - exp(-e_i^2 / (2 sigma^2)), e = y - Xc."""
    e = y - X @ c
    return -(X.T @ (e * np.exp(-(e * e) / (2.0 * sigma * sigma)))) / (sigma * sigma)


def group_subgradient_gap(C, G, lam, groups):
    """inf-norm residual of -G in lam times the subdifferential of sum_g ||C_g||.

    C and G are n x V matrices and each group is a list of rows, whose
    entries over all columns form one l2 group: every row alone is the l1
    norm (V = 1) or the joint-rows norm, class blocks the group norm, and all
    rows at once the l2 norm.  On a group with C_g != 0 the subdifferential
    is the point C_g / ||C_g||.  On a zero group it is the unit ball, and the
    residual is that of the projection of -G_g onto lam times it, which is
    no smaller than the distance.
    """
    worst = 0.0
    for g in groups:
        cg = C[list(g)]
        gg = G[list(g)]
        nrm = np.sqrt(np.sum(cg * cg))
        if nrm > 0.0:
            worst = max(worst, float(np.max(np.abs(gg + lam * cg / nrm))))
        else:
            gnrm = np.sqrt(np.sum(gg * gg))
            if gnrm > lam:
                worst = max(worst, float((1.0 - lam / gnrm) * np.max(np.abs(gg))))
    return worst
