import numpy as np
import pytest

from mrarc.errors import DimensionMismatch
from mrarc.numkit import as_matrix, as_vector


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
