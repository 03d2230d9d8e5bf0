import numpy as np
import pytest

from mrarc.errors import DimensionMismatch, NotSPD
from mrarc.numkit import as_matrix, as_vector, solve_spd


def test_as_vector_converts_and_copies_dtype():
    v = as_vector([1, 2, 3], "v")
    assert v.dtype == np.float64
    assert v.flags.c_contiguous
    np.testing.assert_array_equal(v, [1.0, 2.0, 3.0])


def test_as_vector_rejects_matrix():
    with pytest.raises(DimensionMismatch):
        as_vector(np.zeros((2, 2)), "v")


def test_as_matrix_rejects_vector():
    with pytest.raises(DimensionMismatch):
        as_matrix(np.zeros(3), "M")


def test_non_finite_inputs_rejected():
    with pytest.raises(ValueError):
        as_vector([1.0, np.nan], "v")
    with pytest.raises(ValueError):
        as_matrix([[np.inf, 0.0]], "M")


def test_solve_spd_matches_generic_solver():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n = rng.integers(1, 12)
        A = rng.standard_normal((n + 3, n))
        M = A.T @ A + 0.5 * np.eye(n)
        b = rng.standard_normal(n)
        x = solve_spd(M, b)
        np.testing.assert_allclose(x, np.linalg.solve(M, b), rtol=0, atol=1e-10)


def test_solve_spd_rejects_asymmetric():
    M = np.array([[2.0, 1.0], [0.0, 2.0]])
    with pytest.raises(NotSPD):
        solve_spd(M, np.ones(2))


def test_solve_spd_rejects_indefinite():
    M = np.array([[1.0, 0.0], [0.0, -1.0]])
    with pytest.raises(NotSPD):
        solve_spd(M, np.ones(2))


def test_solve_spd_rejects_non_square():
    with pytest.raises(DimensionMismatch):
        solve_spd(np.ones((2, 3)), np.ones(2))
