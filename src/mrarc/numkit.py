"""Input validation shared by the library.

Vectors are 1-D float64 arrays and matrices are 2-D C-contiguous float64
arrays; ``as_vector``/``as_matrix`` coerce inputs and reject non-finite
entries so nothing downstream has to re-check.  ``check_positive`` does the
same for scalar settings such as a penalty or a bandwidth, and
``check_integer`` for counts and limits.
"""

import math
import numbers

import numpy as np

from .errors import DimensionMismatch, NonFiniteInput


def as_vector(x, name="vector"):
    """Coerce to a finite 1-D float64 array."""
    v = np.ascontiguousarray(x, dtype=np.float64)
    if v.ndim != 1:
        raise DimensionMismatch(f"{name} must be 1-D, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise NonFiniteInput(f"{name} contains NaN or Inf")
    return v


def as_matrix(x, name="matrix"):
    """Coerce to a finite 2-D C-contiguous float64 array."""
    m = np.ascontiguousarray(x, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionMismatch(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NonFiniteInput(f"{name} contains NaN or Inf")
    return m


def check_positive(x, name):
    """Reject a scalar setting that is not a finite positive number.

    A boolean is not taken as the number 1: it raises TypeError.
    """
    if isinstance(x, (bool, np.bool_)):
        raise TypeError(f"{name} must be a number, got {x!r}")
    if not (x > 0.0 and math.isfinite(x)):
        raise ValueError(f"{name} must be positive and finite, got {x}")


def check_integer(x, name):
    """Reject a count or limit that is not an integer (numpy's pass, bool does not)."""
    if isinstance(x, bool) or not isinstance(x, numbers.Integral):
        raise TypeError(f"{name} must be an integer, got {x!r}")
