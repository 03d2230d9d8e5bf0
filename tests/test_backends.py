import os
import subprocess
import sys

import numpy as np
import pytest

from mrarc import kernels
from mrarc.atomic import AtomicSet
from mrarc.modal import ModalLoss
from mrarc.solver import SolverConfig, solve_ar_squared, solve_mrar

HAVE_NUMBA = "numba" in kernels.available_backends()

needs_numba = pytest.mark.skipif(not HAVE_NUMBA, reason="numba not importable")


def test_backend_registry():
    assert "numpy" in kernels.available_backends()
    assert kernels.get_backend("numpy").name == "numpy"
    with pytest.raises(ValueError):
        kernels.get_backend("fortran")


def test_use_backend_swaps_and_restores():
    before = kernels.backend_name()
    with kernels.use_backend("numpy"):
        assert kernels.backend_name() == "numpy"
        assert kernels.active().name == "numpy"
    assert kernels.backend_name() == before


def test_env_flag_forces_numpy_backend():
    code = "import mrarc.kernels as k; print(k.backend_name())"
    out = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "MRARC_NO_NUMBA": "1"},
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "numpy"


@needs_numba
def test_shrink_kernels_agree_across_backends():
    # soft thresholding is bitwise identical; the norm-scaled shrinks may
    # differ by an ulp where the jit contracts multiply-add into fma, but
    # zero/nonzero decisions (norm vs gamma) always coincide
    rng = np.random.default_rng(0)
    np_impl = kernels.get_backend("numpy")
    nb_impl = kernels.get_backend("numba")
    for trial in range(30):
        z = rng.standard_normal(12) * 3.0
        gamma = float(rng.uniform(0.05, 2.0))
        np.testing.assert_array_equal(
            np_impl.soft_threshold(z, gamma), nb_impl.soft_threshold(z, gamma)
        )
        order = rng.permutation(12).astype(np.int64)
        bounds = np.array([0, 3, 7, 12], dtype=np.int64)
        a = np_impl.block_shrink(z, order, bounds, gamma)
        b = nb_impl.block_shrink(z, order, bounds, gamma)
        np.testing.assert_array_equal(a == 0.0, b == 0.0)
        np.testing.assert_allclose(a, b, rtol=1e-14, atol=0)
        Z = rng.standard_normal((6, 3))
        a = np_impl.row_shrink(Z, gamma)
        b = nb_impl.row_shrink(Z, gamma)
        np.testing.assert_array_equal(a == 0.0, b == 0.0)
        np.testing.assert_allclose(a, b, rtol=1e-14, atol=0)


@needs_numba
def test_hq_inner_agrees_across_backends():
    rng = np.random.default_rng(1)
    np_impl = kernels.get_backend("numpy")
    nb_impl = kernels.get_backend("numba")
    for m, n in ((15, 8), (8, 15)):
        X = rng.standard_normal((m, n))
        Xt = np.ascontiguousarray(X.T)
        woodbury = m < n
        XXt = X @ Xt if woodbury else np.zeros((0, 0))
        y = rng.standard_normal(m)
        v = rng.standard_normal(n)
        za, pa = np_impl.hq_inner(X, Xt, XXt, y, v, 0.1, 0.8, np.zeros(n), 1e-10, 10, woodbury)
        zb, pb = nb_impl.hq_inner(X, Xt, XXt, y, v, 0.1, 0.8, np.zeros(n), 1e-10, 10, woodbury)
        assert pa == pb
        np.testing.assert_allclose(za, zb, rtol=0, atol=1e-10)


@needs_numba
def test_squared_zstep_agrees_across_backends():
    rng = np.random.default_rng(2)
    np_impl = kernels.get_backend("numpy")
    nb_impl = kernels.get_backend("numba")
    for m, n in ((15, 8), (8, 15)):
        X = rng.standard_normal((m, n))
        Xt = np.ascontiguousarray(X.T)
        woodbury = m < n
        if woodbury:
            L = np.linalg.cholesky(X @ Xt + 0.05 * np.eye(m))
        else:
            L = np.linalg.cholesky(2.0 * (Xt @ X) + 0.1 * np.eye(n))
        b = rng.standard_normal(n)
        np.testing.assert_allclose(
            np_impl.squared_zstep(L, X, Xt, b, 0.1, woodbury),
            nb_impl.squared_zstep(L, X, Xt, b, 0.1, woodbury),
            rtol=0,
            atol=1e-10,
        )


@needs_numba
def test_end_to_end_solves_agree_across_backends():
    rng = np.random.default_rng(3)
    X = rng.standard_normal((20, 35))
    X /= np.linalg.norm(X, axis=0)
    y = rng.standard_normal(20)
    mcfg = SolverConfig(lam=1e-2, epsilon=1e-6, max_iter=5000, loss=ModalLoss.adaptive())
    scfg = SolverConfig(lam=1e-2, epsilon=1e-8, max_iter=50_000)
    with kernels.use_backend("numba"):
        am = solve_mrar(X, y, AtomicSet.sparse(), mcfg)
        asq = solve_ar_squared(X, y, AtomicSet.sparse(), scfg)
    with kernels.use_backend("numpy"):
        bm = solve_mrar(X, y, AtomicSet.sparse(), mcfg)
        bsq = solve_ar_squared(X, y, AtomicSet.sparse(), scfg)
    assert am.iterations == bm.iterations
    np.testing.assert_allclose(am.coefficients, bm.coefficients, rtol=0, atol=1e-9)
    np.testing.assert_allclose(asq.coefficients, bsq.coefficients, rtol=0, atol=1e-9)
