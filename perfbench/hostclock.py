"""Host speed, read from a fixed reference kernel.

The reference machine shares its cores with other tenants, and its speed
drifts: a fixed piece of numpy work takes anywhere from 1x to 1.7x its
uncontended time, switching every few seconds.  Between short segments of
queries the benchmark times a reference kernel on inputs fixed here.  It
has two halves, because the slowdown hits dense arithmetic and
per-call interpreter overhead differently: the small dense linear algebra
that the solvers run (a 64 x 160 matrix, Gram matrix, Cholesky factor and
solve, elementwise exp and shrink), and a run of tiny 64 x 8 least-squares
fits made of many cheap numpy calls, as in the per-class loops.  Every
timing the benchmark reports is then rescaled by
``REFERENCE_S / (kernel time around it)``: it reads as the time the same
work would take with the kernel at its uncontended speed.
"""

from time import perf_counter

import numpy as np
import scipy.linalg

REFERENCE_S = 1.4e-3  # the kernel's time on the uncontended reference machine
SAMPLES = 3


class HostClock:
    def __init__(self):
        rng = np.random.default_rng(20171115)
        self._X = rng.standard_normal((64, 160)) / 8.0
        self._y = rng.standard_normal(64)
        self._Xk = rng.standard_normal((64, 8))

    def _kernel(self):
        X, y = self._X, self._y
        z = np.zeros(X.shape[1])
        for _ in range(6):
            e = y - X @ z
            w = np.exp(-0.5 * (e * e))
            B = np.sqrt(w)[:, None] * X
            S = B @ B.T
            S[np.diag_indices_from(S)] += 1.0
            L = np.linalg.cholesky(S)
            u = scipy.linalg.cho_solve((L, True), w * e, check_finite=False)
            z = z + X.T @ u
            z = np.where(np.abs(z) > 0.01, z - 0.01 * np.sign(z), 0.0)
        Xk = self._Xk
        for _ in range(20):
            G = Xk.T @ Xk
            G[np.diag_indices_from(G)] += 1e-3
            if not np.all(np.isfinite(G)):
                raise FloatingPointError("reference kernel overflowed")
            L = np.linalg.cholesky(G)
            c = scipy.linalg.cho_solve((L, True), Xk.T @ y, check_finite=False)
            r = y - Xk @ c
            z[0] += float(np.sqrt(r @ r))
        return z

    def sample(self):
        """Median time of a few reference-kernel runs, in seconds."""
        times = []
        for _ in range(SAMPLES):
            t0 = perf_counter()
            self._kernel()
            times.append(perf_counter() - t0)
        return sorted(times)[SAMPLES // 2]

    @staticmethod
    def factor(before, after):
        """Scale for a timing taken between two samples."""
        return REFERENCE_S / (0.5 * (before + after))
