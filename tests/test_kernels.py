"""The kernels against dense solves of the systems they stand for."""

import numpy as np
import pytest

from mrarc import kernels

KERNELS = kernels.active()
SHAPES = [(12, 30), (30, 12)]  # wide (dual form) and tall (primal form)


def _problem(m, n, seed):
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((m, n))
    Xt = np.ascontiguousarray(X.T)
    woodbury = m < n
    XXt = X @ Xt if woodbury else np.zeros((0, 0))
    return rng, X, Xt, XXt, woodbury


@pytest.mark.parametrize("m, n", SHAPES)
def test_hq_inner_pass_solves_the_weighted_ridge_system(m, n):
    rng, X, Xt, XXt, woodbury = _problem(m, n, seed=m * 100 + n)
    y = rng.standard_normal(m)
    v = rng.standard_normal(n)
    z0 = rng.standard_normal(n)
    mu, sigma = 0.1, 0.7
    z, passes = KERNELS.hq_inner(X, Xt, XXt, y, v, mu, sigma, z0, 1e-14, 1, woodbury)
    assert passes == 1
    e = y - X @ z0
    w = np.exp(-(e * e) / (2.0 * sigma * sigma)) / (sigma * sigma)
    want = np.linalg.solve(X.T @ (w[:, None] * X) + mu * np.eye(n), X.T @ (w * y) + mu * v)
    assert np.linalg.norm(z - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("m, n", SHAPES)
def test_squared_zstep_solves_the_ridge_system(m, n):
    rng, X, Xt, _, woodbury = _problem(m, n, seed=m * 100 + n + 1)
    mu = 0.1
    if woodbury:
        L = np.linalg.cholesky(X @ Xt + 0.5 * mu * np.eye(m))
    else:
        L = np.linalg.cholesky(2.0 * (Xt @ X) + mu * np.eye(n))
    b = rng.standard_normal(n)
    z = KERNELS.squared_zstep(L, X, Xt, b, mu, woodbury)
    want = np.linalg.solve(2.0 * (X.T @ X) + mu * np.eye(n), b)
    assert np.linalg.norm(z - want) <= 1e-10 * np.linalg.norm(want)


@pytest.mark.parametrize("m, n", SHAPES)
def test_hq_inner_raises_on_a_system_that_is_not_positive_definite(m, n):
    # a large negative ridge makes the factored system indefinite; LAPACK
    # reports it through info, which must not be ignored
    rng, X, Xt, XXt, woodbury = _problem(m, n, seed=m * 100 + n + 2)
    y = rng.standard_normal(m)
    with pytest.raises(np.linalg.LinAlgError):
        KERNELS.hq_inner(X, Xt, XXt, y, np.zeros(n), -1e3, 0.7, np.zeros(n), 1e-14, 1, woodbury)
