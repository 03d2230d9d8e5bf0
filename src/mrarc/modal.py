"""Modal-regression loss, Parzen density and mode seeking.

The loss on a residual vector e is sum_i (1 - K(e_i)) with K a unit-peak
Gaussian exp(-e^2 / (2 sigma^2)); it is zero exactly at e = 0 and approaches
one per coordinate for large residuals, which is what makes the regression
insensitive to gross errors.  Density estimation keeps the area-normalized
kernels so that Parzen estimates integrate to one.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyInput, UnsupportedKernel
from .numkit import as_vector, check_positive

GAUSSIAN = "gaussian"
EPANECHNIKOV = "epanechnikov"


@dataclass(frozen=True)
class Kernel:
    """Smoothing kernel; sigma is the Gaussian bandwidth (ignored otherwise)."""

    kind: str
    sigma: float = 1.0

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, EPANECHNIKOV):
            raise UnsupportedKernel(f"unknown kernel kind {self.kind!r}")
        check_positive(self.sigma, "sigma")
        object.__setattr__(self, "sigma", float(self.sigma))

    @classmethod
    def gaussian(cls, sigma=1.0):
        return cls(GAUSSIAN, sigma)

    @classmethod
    def epanechnikov(cls):
        return cls(EPANECHNIKOV)


@dataclass(frozen=True)
class ModalLoss:
    """Gaussian modal-regression loss with fixed or residual-adaptive bandwidth.

    A given ``sigma`` is the fixed bandwidth.  Without one the solver
    refreshes sigma once per outer iteration from the current residual,
    flooring it at ``min_sigma`` (when None, the solver derives a floor from
    the scale of y); a floor has no meaning beside a fixed sigma.
    """

    sigma: float | None = None
    min_sigma: float | None = None

    def __post_init__(self):
        if self.sigma is not None:
            check_positive(self.sigma, "sigma")
            object.__setattr__(self, "sigma", float(self.sigma))
        if self.min_sigma is not None:
            check_positive(self.min_sigma, "min_sigma")
            if self.sigma is not None:
                raise ValueError("a fixed sigma takes no min_sigma")

    @classmethod
    def fixed(cls, sigma):
        return cls(sigma)

    @classmethod
    def adaptive(cls, min_sigma=None):
        return cls(None, min_sigma)


def _density_eval(kernel, u):
    # Area-normalized forms used by the Parzen estimator.
    if kernel.kind == GAUSSIAN:
        s = kernel.sigma
        return np.exp(-(u * u) / (2.0 * s * s)) / (math.sqrt(2.0 * math.pi) * s)
    return 0.75 * np.maximum(1.0 - u * u, 0.0)


def _mrlf_raw(e, sigma, axis=None):
    # unvalidated Gaussian loss value (per column with axis=0), shared with the
    # solver's hot loop and the class scoring
    return (1.0 - np.exp(-(e * e) / (2.0 * sigma * sigma))).sum(axis=axis)


def mrlf(e, sigma):
    """Modal-regression loss sum_i (1 - exp(-e_i^2 / (2 sigma^2))) of residual e."""
    e = as_vector(e, "residual")
    check_positive(sigma, "sigma")
    return float(_mrlf_raw(e, sigma))


def default_sigma_floor(y):
    """Scale-aware lower bound for the adaptive bandwidth: 1e-4 (1 + ||y||/sqrt(m))."""
    y = as_vector(y, "y")
    if y.size == 0:
        raise EmptyInput("empty target vector")
    return 1e-4 * (1.0 + float(np.linalg.norm(y)) / math.sqrt(y.size))


def parzen_density(kernel, samples, t):
    """Parzen estimate (1/m) sum_i K(t - e_i) with the area-normalized kernel.

    ``t`` may be a scalar or an array of evaluation points.
    """
    samples = as_vector(samples, "samples")
    if samples.size == 0:
        raise EmptyInput("density estimation needs at least one sample")
    t_arr = np.asarray(t, dtype=np.float64)
    diffs = np.atleast_1d(t_arr)[:, None] - samples[None, :]
    dens = np.mean(_density_eval(kernel, diffs), axis=1)
    return float(dens[0]) if t_arr.ndim == 0 else dens


def estimate_mode(kernel, samples, grid_points=512, grid_range=None):
    """Mode of the Parzen density: coarse grid argmax plus ternary refinement.

    The grid spans [min(samples), max(samples)] unless ``grid_range`` widens
    it; a range narrower than the sample span is rejected.
    """
    samples = as_vector(samples, "samples")
    if samples.size == 0:
        raise EmptyInput("mode estimation needs at least one sample")
    lo, hi = float(np.min(samples)), float(np.max(samples))
    if grid_range is not None:
        glo, ghi = float(grid_range[0]), float(grid_range[1])
        if glo > lo or ghi < hi:
            raise ValueError("grid range must cover the sample range")
        lo, hi = glo, ghi
    if lo == hi:
        return lo
    if grid_points < 3:
        raise ValueError("need at least 3 grid points")
    grid = np.linspace(lo, hi, int(grid_points))
    dens = parzen_density(kernel, samples, grid)
    best = int(np.argmax(dens))
    a = grid[max(best - 1, 0)]
    b = grid[min(best + 1, grid.size - 1)]
    # ternary search for the maximum inside the winning cell
    span = b - a
    for _ in range(200):
        if b - a <= 1e-12 * max(1.0, span):
            break
        m1 = a + (b - a) / 3.0
        m2 = b - (b - a) / 3.0
        if parzen_density(kernel, samples, m1) < parzen_density(kernel, samples, m2):
            a = m1
        else:
            b = m2
    return 0.5 * (a + b)
