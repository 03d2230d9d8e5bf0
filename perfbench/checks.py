"""Correctness checks computed from the inputs, not from stored outputs.

Every query gets the checks that cost about as much as the query or less:
shape and finiteness, per-class residuals recomputed from the returned
coefficients, the label against those residuals, the CRC normal equations,
LRC fits against ``np.linalg.lstsq``, and for the squared-loss ADMM methods
a descent and a first-order optimality check.  The modal methods need the
final bandwidth sigma, which ``classify`` does not return; on a sampled
"deep" query the checker gets it by calling the public ``solve_mrar`` or
``solve_mrar_multimodal`` with the same settings, then runs the same
residual, descent and optimality checks with the modal loss.

First-order tolerance.  ADMM's c-update is the prox of z_k - dual_k / mu, and
an exact z-update makes dual_k the loss gradient at z_k.  The returned c
therefore satisfies -grad f(c) in lam * dN(c) up to (mu + L) ||z_k - c||_inf,
where L bounds the inf-norm of the loss Hessian (2 X^T X for the squared
loss, X^T X / sigma^2 for the modal one).  The solver stops when ||c - z||
and the c step are both below epsilon, so a converged solve must meet
2 (mu + L) epsilon.  Solves that stop at max_iter get the descent check only.
"""

import math

import numpy as np

from mrarc import AtomicSet, ModalLoss, Partition, SolverConfig
from mrarc import solve_mrar, solve_mrar_multimodal
from workloads import unit_columns

RESIDUAL_RTOL = 1e-8
CRC_RTOL = 1e-10
LRC_FIT_RTOL = 1e-8
SAME_COEF_RTOL = 1e-12
EPS = np.finfo(np.float64).eps


def _stem(method):
    return method[2:] if method.startswith("MR") else method


class Checker:
    """Checks classification results against one workload's gallery."""

    def __init__(self, gallery, labels, n_classes):
        self.X = [unit_columns(S) for S in gallery]
        self.labels = np.asarray(labels)
        self.K = int(n_classes)
        self.cols = [np.flatnonzero(self.labels == k) for k in range(self.K)]
        self.hess_inf = [float(np.max(np.sum(np.abs(X.T @ X), axis=1))) for X in self.X]
        self.worst_kkt_ratio = 0.0  # largest first-order residual / tolerance seen

    # -- entry point -----------------------------------------------------

    def check(self, query, result, deep):
        """Return a list of problems with ``result``; empty when it passes."""
        plan = query.plan
        multimodal = len(self.X) > 1
        n = self.labels.size
        res = np.asarray(result.residuals, dtype=np.float64)
        coef = np.asarray(result.coefficients, dtype=np.float64)
        want = (n, len(self.X)) if multimodal else (n,)
        if res.shape != (self.K,) or not np.all(np.isfinite(res)):
            return [f"residuals have shape {res.shape} or are not finite"]
        if coef.shape != want or not np.all(np.isfinite(coef)):
            return [f"coefficients have shape {coef.shape}, want {want}, or are not finite"]
        if not (0 <= int(result.label) < self.K):
            return [f"label {result.label} outside 0..{self.K - 1}"]
        C = coef.reshape(n, -1)
        ys = [np.asarray(y, dtype=np.float64) for y in query.ys]
        stem = _stem(plan.method)
        if stem == "LRC":
            return self._lrc(ys[0], res, coef, result.label)
        problems = []
        sigmas = None
        if plan.method.startswith("MR"):
            if not deep:
                return self._label(res, res, result.label)
            sigmas, twin = self._modal_sigmas(plan, ys)
            if not np.allclose(twin, C, rtol=SAME_COEF_RTOL, atol=1e-14):
                problems.append("solve_mrar with the same settings returned other coefficients")
        own = self._class_residuals(ys, C, sigmas)
        problems += self._compare(own, res, "per-class residual")
        problems += self._label(own, res, result.label)
        if stem == "CRC" and sigmas is None:
            problems += self._crc(ys[0], coef, plan.lam)
        else:
            problems += self._admm(plan, ys, C, sigmas, result.converged)
        return problems

    # -- pieces ------------------------------------------------------------

    def _modal_sigmas(self, plan, ys):
        cfg = SolverConfig(
            lam=plan.lam, mu=plan.mu, epsilon=plan.epsilon,
            max_iter=plan.max_iter, loss=ModalLoss.adaptive(plan.min_sigma),
        )
        if len(self.X) > 1:
            out = solve_mrar_multimodal(self.X, ys, AtomicSet.joint_rows(), cfg)
            return [float(s) for s in out.sigma], out.coefficients
        out = solve_mrar(self.X[0], ys[0], self._atomic_set(plan.method), cfg)
        return [float(out.sigma)], out.coefficients.reshape(-1, 1)

    def _atomic_set(self, method):
        stem = _stem(method)
        if stem == "SRC":
            return AtomicSet.sparse()
        if stem == "CRC":
            return AtomicSet.collaborative()
        return AtomicSet.block(Partition([tuple(c) for c in self.cols]))

    def _groups(self, method):
        """Index groups of the atomic norm over the coefficient rows."""
        stem = _stem(method)
        if stem in ("SRC", "JSRC"):
            return None  # every row on its own
        if stem == "CRC":
            return [np.arange(self.labels.size)]
        return self.cols

    def _class_residuals(self, ys, C, sigmas):
        out = np.zeros(self.K)
        for k, cols in enumerate(self.cols):
            for v, (X, y) in enumerate(zip(self.X, ys)):
                r = y - X[:, cols] @ C[cols, v]
                if sigmas is None:
                    out[k] += math.sqrt(float(r @ r))
                else:
                    s = sigmas[v]
                    out[k] += float(np.sum(1.0 - np.exp(-(r * r) / (2.0 * s * s))))
        return out

    def _compare(self, own, theirs, what):
        tol = RESIDUAL_RTOL * (1.0 + np.abs(own))
        bad = np.flatnonzero(np.abs(own - theirs) > tol)
        if bad.size:
            k = int(bad[0])
            return [f"{what} {k}: program {theirs[k]!r}, recomputed {own[k]!r}"]
        return []

    def _label(self, own, theirs, label):
        # ties within the residual tolerance may go either way
        best = float(np.min(own))
        if own[label] > best + RESIDUAL_RTOL * (1.0 + abs(best)):
            return [f"label {label} is not a smallest residual (want {int(np.argmin(own))})"]
        if int(np.argmin(theirs)) != label:
            return [f"label {label} differs from argmin of the program's residuals"]
        return []

    def _crc(self, y, c, lam):
        X = self.X[0]
        G = X.T @ X
        G[np.diag_indices_from(G)] += lam
        b = X.T @ y
        err = float(np.max(np.abs(G @ c - b)))
        tol = CRC_RTOL * (float(np.max(np.abs(G))) * float(np.max(np.abs(c))) + float(np.max(np.abs(b))))
        if err > tol:
            return [f"CRC normal equations off by {err:.3e} (tolerance {tol:.3e})"]
        return []

    def _lrc(self, y, res, coef, label):
        X = self.X[0]
        problems = []
        own = np.empty(self.K)
        fits = []
        for k, cols in enumerate(self.cols):
            ck, _, _, sv = np.linalg.lstsq(X[:, cols], y, rcond=None)
            own[k] = float(np.linalg.norm(y - X[:, cols] @ ck))
            fits.append((cols, ck, sv))
        problems += self._compare(own, res, "LRC class residual")
        problems += self._label(own, res, label)
        cols, ck, sv = fits[label]
        outside = np.delete(coef, cols)
        if np.any(outside != 0.0):
            problems.append("LRC coefficients nonzero outside the winning class")
        # the program solves the normal equations, whose error grows with cond^2
        cond = float(sv[0] / sv[-1])
        tol = LRC_FIT_RTOL + 100.0 * cond * cond * EPS
        err = float(np.max(np.abs(coef[cols] - ck))) / (1.0 + float(np.max(np.abs(ck))))
        if err > tol:
            problems.append(f"LRC fit of class {label} off lstsq by {err:.3e} (tolerance {tol:.3e})")
        return problems

    def _admm(self, plan, ys, C, sigmas, converged):
        """Descent from the zero start and, if converged, first-order optimality."""
        lam = plan.lam
        groups = self._groups(plan.method)
        G = np.empty_like(C)
        loss_c = loss_0 = 0.0
        hess = 0.0
        for v, (X, y) in enumerate(zip(self.X, ys)):
            e = y - X @ C[:, v]
            if sigmas is None:
                G[:, v] = -2.0 * (X.T @ e)
                loss_c += float(e @ e)
                loss_0 += float(y @ y)
                hess = max(hess, 2.0 * self.hess_inf[v])
            else:
                s2 = sigmas[v] * sigmas[v]
                w = np.exp(-(e * e) / (2.0 * s2))
                G[:, v] = -(X.T @ (w * e)) / s2
                loss_c += float(np.sum(1.0 - w))
                loss_0 += float(np.sum(1.0 - np.exp(-(y * y) / (2.0 * s2))))
                hess = max(hess, self.hess_inf[v] / s2)
        obj_c = loss_c + lam * _atomic_norm(C, groups)
        problems = []
        if obj_c > loss_0 * (1.0 + 1e-12):
            problems.append(f"objective {obj_c:.6g} above its value {loss_0:.6g} at the zero start")
        if converged:
            tol = 2.0 * (plan.mu + hess) * plan.epsilon
            gap = _subgradient_gap(C, G, lam, groups)
            self.worst_kkt_ratio = max(self.worst_kkt_ratio, gap / tol)
            if gap > tol:
                problems.append(f"first-order residual {gap:.3e} above {tol:.3e}")
        return problems


def _atomic_norm(C, groups):
    if groups is None:
        return float(np.sum(np.sqrt(np.sum(C * C, axis=1))))
    return float(sum(np.linalg.norm(C[g]) for g in groups))


def _subgradient_gap(C, G, lam, groups):
    """inf-norm distance of -G from lam times the atomic norm's subdifferential.

    A group whose coefficients are nonzero must have G = -lam c / ||c|| on it;
    an all-zero group only needs ||G|| <= lam, which is measured per
    coordinate (divided by the square root of the group size).
    """
    if groups is None:
        norms = np.sqrt(np.sum(C * C, axis=1))
        live = norms > 0.0
        gap = 0.0
        if np.any(live):
            gap = float(np.max(np.abs(G[live] + lam * C[live] / norms[live, None])))
        if np.any(~live):
            gnorm = np.sqrt(np.sum(G[~live] ** 2, axis=1))
            gap = max(gap, float(np.max(gnorm - lam)) / math.sqrt(C.shape[1]))
        return max(gap, 0.0)
    gap = 0.0
    for g in groups:
        cg, gg = C[g], G[g]
        nrm = float(np.linalg.norm(cg))
        if nrm > 0.0:
            gap = max(gap, float(np.max(np.abs(gg + lam * cg / nrm))))
        else:
            gap = max(gap, (float(np.linalg.norm(gg)) - lam) / math.sqrt(cg.size))
    return gap
