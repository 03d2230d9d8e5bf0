"""Atomic sets, their induced norms, and the associated prox operators.

Four sets are supported: signed unit coordinate vectors (sparse, l1 norm),
the unit l2 ball (collaborative), blockwise unit l2 atoms over a partition
(block norm: sum of per-block l2 norms), and unit-row-norm matrices with a
single nonzero row (joint rows, for multimodal coefficient matrices: sum of
row l2 norms).  Every prox is the corresponding shrinkage with step gamma.
"""

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .errors import NonPositiveGamma, ShapeMismatch
from .numkit import as_matrix, as_vector

SPARSE = "sparse"
COLLABORATIVE = "collaborative"
BLOCK = "block"
JOINT_ROWS = "joint_rows"


@dataclass(frozen=True)
class Partition:
    """Disjoint index blocks covering 0..size-1, each nonempty."""

    blocks: tuple

    def __init__(self, blocks):
        object.__setattr__(
            self, "blocks", tuple(tuple(int(i) for i in b) for b in blocks)
        )
        self._validate()
        order = np.concatenate([np.array(b, dtype=np.int64) for b in self.blocks])
        bounds = np.zeros(len(self.blocks) + 1, dtype=np.int64)
        np.cumsum([len(b) for b in self.blocks], out=bounds[1:])
        object.__setattr__(self, "_order", order)
        object.__setattr__(self, "_bounds", bounds)

    def _validate(self):
        if not self.blocks:
            raise ValueError("partition needs at least one block")
        seen = set()
        for b in self.blocks:
            if not b:
                raise ValueError("empty block in partition")
            for i in b:
                if i < 0:
                    raise ValueError(f"negative index {i} in partition")
                if i in seen:
                    raise ValueError(f"index {i} appears in two blocks")
                seen.add(i)
        if seen != set(range(len(seen))):
            missing = sorted(set(range(max(seen) + 1)) - seen)
            raise ValueError(f"partition does not cover indices {missing}")

    @property
    def size(self):
        return int(self._bounds[-1])

    def arrays(self):
        """(order, bounds) index arrays for the blockwise shrink kernels."""
        return self._order, self._bounds

    @classmethod
    def singletons(cls, n):
        return cls([(i,) for i in range(n)])

    @classmethod
    def trivial(cls, n):
        return cls([tuple(range(n))])

    @classmethod
    def from_labels(cls, labels):
        """Group indices by label value, one block per distinct label."""
        labels = np.asarray(labels)
        return cls(
            [tuple(np.flatnonzero(labels == v)) for v in np.unique(labels)]
        )


@dataclass(frozen=True)
class AtomicSet:
    """One of the supported atom families; block carries its partition."""

    kind: str
    partition: Partition | None = field(default=None)

    def __post_init__(self):
        if self.kind not in (SPARSE, COLLABORATIVE, BLOCK, JOINT_ROWS):
            raise ValueError(f"unknown atomic set kind {self.kind!r}")
        if self.kind == BLOCK and self.partition is None:
            raise ValueError("block atomic set requires a partition")
        if self.kind != BLOCK and self.partition is not None:
            raise ValueError(f"{self.kind} atomic set takes no partition")

    @classmethod
    def sparse(cls):
        return cls(SPARSE)

    @classmethod
    def collaborative(cls):
        return cls(COLLABORATIVE)

    @classmethod
    def block(cls, partition):
        return cls(BLOCK, partition)

    @classmethod
    def joint_rows(cls):
        return cls(JOINT_ROWS)


def _check_vector_arg(aset, c):
    c = as_vector(c, "coefficients")
    if aset.kind == BLOCK and c.shape[0] != aset.partition.size:
        raise ShapeMismatch(
            f"vector length {c.shape[0]} does not match partition size "
            f"{aset.partition.size}"
        )
    return c


def _check_rows_arg(c, what):
    if np.ndim(c) != 2:
        raise ShapeMismatch(f"joint-rows {what} needs a 2-D array")
    return as_matrix(c, "coefficients")


def vector_prox_arrays(aset, n):
    """(order, bounds) arrays realizing a vector atomic set as blocks.

    ``order`` is None when it is the identity, so ``block_shrink`` needs no
    gather or scatter.
    """
    if aset.kind == SPARSE:
        return None, np.arange(n + 1, dtype=np.int64)
    if aset.kind == COLLABORATIVE:
        return None, np.array([0, n], dtype=np.int64)
    if aset.kind == BLOCK:
        if aset.partition.size != n:
            raise ShapeMismatch(
                f"partition size {aset.partition.size} does not match length {n}"
            )
        order, bounds = aset.partition.arrays()
        if np.array_equal(order, np.arange(n)):
            order = None
        return order, bounds
    raise ShapeMismatch(f"{aset.kind} atoms do not apply to vectors")


def atomic_norm(aset, c):
    """Value of the atomic norm of c for the given set."""
    if aset.kind == JOINT_ROWS:
        C = _check_rows_arg(c, "norm")
        return float(np.sqrt((C * C).sum(axis=1)).sum())
    c = _check_vector_arg(aset, c)
    if aset.kind == SPARSE:
        return float(np.abs(c).sum())
    if aset.kind == COLLABORATIVE:
        return float(np.linalg.norm(c))
    order, bounds = aset.partition.arrays()
    co = c[order]
    return float(np.sqrt(np.add.reduceat(co * co, bounds[:-1])).sum())


def prox(aset, z, gamma):
    """Prox of gamma times the atomic norm: argmin_c 0.5||c-z||^2 + gamma*N(c).

    Each group (coordinate, whole vector, partition block, or matrix row) is
    shrunk toward zero by gamma in l2 norm, and groups whose norm does not
    exceed gamma become zero; for sparse atoms the groups are singletons,
    which gives the coordinatewise soft threshold.
    """
    if not np.isscalar(gamma) or not np.isfinite(gamma) or gamma <= 0.0:
        raise NonPositiveGamma(f"gamma must be a positive number, got {gamma!r}")
    gamma = float(gamma)
    impl = kernels.active()
    if aset.kind == JOINT_ROWS:
        return impl.row_shrink(_check_rows_arg(z, "prox"), gamma)
    z = _check_vector_arg(aset, z)
    if z.shape[0] == 0:
        return np.zeros(0)
    order, bounds = vector_prox_arrays(aset, z.shape[0])
    return impl.block_shrink(z, order, bounds, gamma)
