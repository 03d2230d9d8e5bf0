"""The kernels against dense solves of the systems they stand for."""

import numpy as np
import pytest

from mrarc import kernels

from _oracles import hq_loop, ridge_backward_error

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
def test_hq_inner_with_its_first_residual_given_is_bit_identical(m, n):
    rng, X, Xt, XXt, woodbury = _problem(m, n, seed=m * 100 + n + 3)
    y = rng.standard_normal(m)
    y[:3] += 5.0  # a few outliers, so the weights vary
    v = rng.standard_normal(n)
    z0 = rng.standard_normal(n)
    e0 = y - X @ z0
    kept = e0.copy()
    for passes in (1, 4):
        args = (X, Xt, XXt, y, v, 0.1, 0.7, z0, 1e-14, passes, woodbury)
        z_own, p_own = KERNELS.hq_inner(*args)
        z_given, p_given = KERNELS.hq_inner(*args, e0)
        assert p_own == p_given == passes
        assert z_own.tobytes() == z_given.tobytes()
        assert e0.tobytes() == kept.tobytes()


def _outlier_problem(m, n, seed):
    # inliers near X z_true with small dense noise, three outliers, and a
    # warm start near z_true
    rng, X, Xt, XXt, woodbury = _problem(m, n, seed)
    X /= np.sqrt(m)
    Xt = np.ascontiguousarray(X.T)
    XXt = X @ Xt if woodbury else XXt
    z_true = 0.3 * rng.standard_normal(n)
    y = X @ z_true + 0.02 * rng.standard_normal(m) / np.sqrt(m)
    y[:3] += rng.uniform(-1.0, 1.0, 3)
    v = z_true + 0.1 * rng.standard_normal(n)
    return X, Xt, XXt, woodbury, y, v, v.copy()


@pytest.mark.parametrize("mu", [0.1, 1.0])
@pytest.mark.parametrize("sigma", [0.01, 0.05, 0.7])
@pytest.mark.parametrize("m, n", SHAPES)
def test_hq_inner_matches_the_reference_loop(m, n, sigma, mu):
    tol = 1e-6
    for seed in range(3):
        X, Xt, XXt, woodbury, y, v, z0 = _outlier_problem(m, n, seed=m * 100 + n + 10 * seed)
        z, passes = KERNELS.hq_inner(X, Xt, XXt, y, v, mu, sigma, z0, tol, 50, woodbury)
        want, want_passes = hq_loop(X, y, v, mu, sigma, z0, tol, 50)
        assert passes == want_passes
        assert np.abs(z - want).max() <= tol * (1.0 + np.abs(z).max())


@pytest.mark.parametrize("sigma", [0.5, 5e-2, 1e-2, 1e-3, 1e-4])
def test_dual_form_hq_pass_is_backward_stable_at_every_bandwidth(sigma):
    # a wide pass whose residual has inliers at the scale of sigma and six
    # outliers whose weights underflow to exactly 0.  The weights reach
    # 1/sigma^2, so a dual form that divides by mu after cancelling terms
    # of that size fails here (about 2e-7 at sigma 1e-4); the backward
    # error must stay at rounding level at every bandwidth
    m, n, mu = 64, 160, 0.1
    for seed in range(10):
        rng, X, Xt, XXt, woodbury = _problem(m, n, seed=seed)
        X /= np.sqrt(m)
        Xt = np.ascontiguousarray(X.T)
        XXt = X @ Xt
        y = rng.standard_normal(m)
        v = rng.standard_normal(n)
        e = sigma * rng.standard_normal(m)
        e[:6] = 0.5 + sigma * np.array([50.0, 50.0, 100.0, 100.0, 150.0, 75.0])
        e[1:6:2] *= -1.0
        w = np.exp(-(e * e) / (2.0 * sigma * sigma)) / (sigma * sigma)
        assert not np.any(w[:6]) and np.all(w[6:] > 0.0)
        z, passes = KERNELS.hq_inner(X, Xt, XXt, y, v, mu, sigma, v, 0.0, 1, woodbury, e)
        assert passes == 1
        assert ridge_backward_error(X, w, mu, X.T @ (w * y) + mu * v, z) <= 1e-14


def _shrink_inputs(rng, n, gamma):
    # random entries plus exact zeros and entries with |z| = gamma
    z = rng.standard_normal(n)
    z[:3] = 0.0
    z[3], z[4] = gamma, -gamma
    return rng.permutation(z)


def test_singleton_block_shrink_matches_the_gather_scatter_path():
    # pairing each entry with a zero leaves its block norm sqrt(z^2 + 0) =
    # |z|, so the general path over pairs in a shuffled order must give the
    # elementwise result bit for bit
    rng = np.random.default_rng(21)
    n = 40
    singletons = np.arange(n + 1, dtype=np.int64)
    for trial in range(20):
        gamma = float(rng.uniform(0.05, 1.0))
        z = _shrink_inputs(rng, n, gamma)
        order = rng.permutation(2 * n)  # entry i at order[2i], its zero at order[2i + 1]
        padded = np.zeros(2 * n)
        padded[order[0::2]] = z
        pairs = np.arange(0, 2 * n + 1, 2, dtype=np.int64)
        want = KERNELS.block_shrink(padded, order, pairs, gamma)
        assert not np.any(want[order[1::2]])
        for got in (KERNELS.block_shrink(z, None, singletons, gamma),
                    KERNELS.block_shrink(z, rng.permutation(n), singletons, gamma)):
            assert got.tobytes() == want[order[0::2]].tobytes()


def test_identity_order_block_shrink_matches_the_gather_scatter_path():
    rng = np.random.default_rng(22)
    bounds = np.array([0, 3, 4, 9, 11, 12, 20], dtype=np.int64)
    n = int(bounds[-1])
    for trial in range(20):
        gamma = 0.625
        z = _shrink_inputs(rng, n, gamma)
        z[4:9] = 0.0  # a zero block
        z[9:11] = 0.375, -0.5  # a block whose norm is exactly gamma
        perm = rng.permutation(n)
        shuffled = np.empty(n)
        shuffled[perm] = z  # shuffled[perm] is z, so block order = perm
        want = KERNELS.block_shrink(shuffled, perm, bounds, gamma)[perm]
        assert not np.any(want[4:11])
        got = KERNELS.block_shrink(z, None, bounds, gamma)
        assert got.tobytes() == want.tobytes()


def _squared_step(X, Xt, y, v, mu, woodbury):
    # the squared step with the factor and target the solver keeps: the
    # m x m dual form with y, or the n x n system with 2 X^T y
    m, n = X.shape
    if woodbury:
        L = np.linalg.cholesky(X @ Xt + 0.5 * mu * np.eye(m))
        return KERNELS.squared_zstep(L, X, Xt, y, v, mu, woodbury)
    L = np.linalg.cholesky(2.0 * (Xt @ X) + mu * np.eye(n))
    return KERNELS.squared_zstep(L, X, Xt, 2.0 * (Xt @ y), v, mu, woodbury)


@pytest.mark.parametrize("m, n", SHAPES)
def test_squared_zstep_solves_the_ridge_system(m, n):
    rng, X, Xt, _, woodbury = _problem(m, n, seed=m * 100 + n + 1)
    mu = 0.1
    y = rng.standard_normal(m)
    v = rng.standard_normal(n)
    z = _squared_step(X, Xt, y, v, mu, woodbury)
    b = 2.0 * (X.T @ y) + mu * v
    want = np.linalg.solve(2.0 * (X.T @ X) + mu * np.eye(n), b)
    assert np.linalg.norm(z - want) <= 1e-10 * np.linalg.norm(want)
    assert ridge_backward_error(X, np.full(m, 2.0), mu, b, z) <= 1e-14


@pytest.mark.parametrize("mu", [1.0, 0.1, 1e-3])
def test_dual_form_squared_zstep_is_backward_stable_at_every_penalty(mu):
    # wide unit-norm galleries, as the classifiers build them: a dual step
    # that divides by mu after cancelling terms of size ||X||^2 / mu loses
    # digits as 1/mu (about 7e-15 at mu 0.1 and 6e-13 at 1e-3)
    m, n = 64, 160
    for seed in range(10):
        rng, X, _, _, woodbury = _problem(m, n, seed=seed + 50)
        X /= np.linalg.norm(X, axis=0)
        Xt = np.ascontiguousarray(X.T)
        y = rng.standard_normal(m)
        v = rng.standard_normal(n)
        z = _squared_step(X, Xt, y, v, mu, woodbury)
        b = 2.0 * (X.T @ y) + mu * v
        assert ridge_backward_error(X, np.full(m, 2.0), mu, b, z) <= 1e-15


@pytest.mark.parametrize("m, n", SHAPES)
def test_hq_inner_raises_on_a_system_that_is_not_positive_definite(m, n):
    # a large negative ridge makes the factored system indefinite; LAPACK
    # reports it through info, which must not be ignored
    rng, X, Xt, XXt, woodbury = _problem(m, n, seed=m * 100 + n + 2)
    y = rng.standard_normal(m)
    with pytest.raises(np.linalg.LinAlgError):
        KERNELS.hq_inner(X, Xt, XXt, y, np.zeros(n), -1e3, 0.7, np.zeros(n), 1e-14, 1, woodbury)
