"""Residual-based classification on top of the representation solvers.

A query is coded over the whole dictionary, the code is restricted to one
class at a time, and the class whose restricted reconstruction leaves the
smallest residual wins.  Methods with the MR prefix measure that residual
with the modal-regression loss at the bandwidth the solver ended on, which
the result reports as ``sigma``; the squared-loss baselines use the l2 norm.
Ties break toward the lowest label.

A ``Dictionary`` keeps read-only copies of its arrays and the plans that
depend only on them, each built on its first use and kept: the class layout
(the ``Partition`` of its columns by class), the Cholesky factor of CRC's
ridge system for each lam, and LRC's stacked class projector.  All K class
residuals come from one pass over the layout, and BSRC uses it as its
default block partition.  A CRC query then costs one triangular solve pair
and an LRC query one matrix-vector product.
"""

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np
import scipy.linalg

from .atomic import AtomicSet, Partition
from .errors import (
    DimensionMismatch,
    EmptyQuerySet,
    InconsistentModalities,
    IndexOutOfRange,
)
from .modal import ModalLoss, _mrlf_raw
from .numkit import as_matrix, as_vector, check_positive
from .solver import (
    SolverConfig,
    SquaredLoss,
    _ridge_factor,
    solve_ar_squared,
    solve_ar_squared_multimodal,
    solve_mrar,
    solve_mrar_multimodal,
)

UNIMODAL_METHODS = ("MRSRC", "MRBSRC", "MRCRC", "SRC", "BSRC", "CRC", "LRC")
MULTIMODAL_METHODS = ("MRJSRC", "JSRC")
METHODS = UNIMODAL_METHODS + MULTIMODAL_METHODS


def _read_only(arr, given):
    """``arr`` write-protected, copied first if the caller can still write to it."""
    if arr.base is not None or (arr is given and arr.flags.writeable):
        arr = arr.copy()
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class Dictionary:
    """Unit-norm atom matrix with one class label per column.

    The arrays are read-only and belong to the dictionary, so the plans
    cached from them cannot go stale.  Two dictionaries are equal only when
    they are the same object, and one hashes by its identity.
    """

    atoms: np.ndarray
    class_of: np.ndarray
    n_classes: int

    def __post_init__(self):
        A = _read_only(as_matrix(self.atoms, "atoms"), self.atoms)
        labels = np.asarray(self.class_of)
        if labels.ndim != 1 or labels.shape[0] != A.shape[1]:
            raise DimensionMismatch("need one class label per dictionary column")
        if not np.issubdtype(labels.dtype, np.integer):
            if not np.all(labels == np.floor(labels)):
                raise ValueError("class labels must be integers")
        labels = _read_only(labels.astype(np.int64, copy=False), self.class_of)
        if A.shape[1] == 0:
            raise DimensionMismatch("dictionary has no columns")
        norms = np.linalg.norm(A, axis=0)
        if np.max(np.abs(norms - 1.0)) > 1e-8:
            raise ValueError("dictionary columns must have unit norm (within 1e-8)")
        K = int(self.n_classes)
        if K < 1:
            raise ValueError("need at least one class")
        present = np.unique(labels)
        if present[0] < 0 or present[-1] >= K:
            raise ValueError(f"labels must lie in 0..{K - 1}")
        if present.size != K:
            raise ValueError("every class must own at least one dictionary column")
        object.__setattr__(self, "atoms", A)
        object.__setattr__(self, "class_of", labels)
        object.__setattr__(self, "n_classes", K)

    @classmethod
    def from_samples(cls, samples, labels):
        """Normalize sample columns to unit norm and wrap them up."""
        S = as_matrix(samples, "samples")
        norms = np.linalg.norm(S, axis=0)
        if np.any(norms == 0.0):
            raise ValueError("cannot normalize a zero sample column")
        A = S / norms[None, :]
        A.setflags(write=False)  # a fresh array: the dictionary keeps it uncopied
        labels = np.asarray(labels, dtype=np.int64)
        K = int(labels.max()) + 1 if labels.size else 0
        return cls(A, labels, K)

    @property
    def n_atoms(self):
        return self.atoms.shape[1]

    @cached_property
    def partition(self):
        """The class layout: block k of this Partition holds class k's columns."""
        return Partition.from_labels(self.class_of)

    @cached_property
    def _crc_factors(self):
        return {}

    def crc_factor(self, lam):
        """Cholesky factor of A^T A + lam I, built on first use of each lam and kept."""
        factor = self._crc_factors.get(lam)
        if factor is None:
            factor = self._crc_factors[lam] = _ridge_factor(self.atoms, lam)
            factor[0].setflags(write=False)
        return factor

    @cached_property
    def lrc_projector(self):
        """n x m matrix whose rows at class k's columns are the pseudo-inverse
        of class k's block, so ``lrc_projector @ y`` holds every class's
        least-squares code at once.

        Singular values below lstsq's own cut-off, ``max(m, n_k) * eps`` of
        the largest, count as zero, so a class with dependent columns gets
        its minimum-norm fit.
        """
        A = self.atoms
        order, bounds = self.partition.arrays()
        P = np.empty((A.shape[1], A.shape[0]))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            cols = order[lo:hi]
            rcond = max(A.shape[0], cols.size) * np.finfo(np.float64).eps
            P[cols] = np.linalg.pinv(A[:, cols], rcond=rcond)
        P.setflags(write=False)
        return P

    def columns_of_class(self, k):
        if not (0 <= int(k) < self.n_classes):
            raise IndexOutOfRange(f"class {k} outside 0..{self.n_classes - 1}")
        order, bounds = self.partition.arrays()
        return order[bounds[int(k)]:bounds[int(k) + 1]].copy()


@dataclass(frozen=True)
class ClassifierSpec:
    """Method choice plus regularization; solver settings are optional.

    ``loss`` overrides the method's default data term (modal for MR methods,
    squared otherwise); ``solver`` supplies mu/epsilon/iteration limits, and
    its lam is replaced by the one given here, as is its loss by the one the
    spec resolves to.  Settings a method would ignore are rejected: a
    ``ModalLoss`` on the closed-form CRC and LRC, a ``ModalLoss`` in
    ``solver`` other than the one the spec resolves to, and a
    ``block_partition`` on anything but BSRC and MRBSRC.
    """

    method: str
    lam: float = 1e-3
    loss: object = None
    solver: SolverConfig | None = None
    block_partition: Partition | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(
                f"unknown method {self.method!r}; expected one of {METHODS}"
            )
        check_positive(self.lam, "lam")
        if self.loss is not None and not isinstance(self.loss, (ModalLoss, SquaredLoss)):
            raise TypeError("loss must be ModalLoss, SquaredLoss, or None")
        if isinstance(self.loss, ModalLoss) and self.method in ("CRC", "LRC"):
            raise ValueError(
                f"{self.method} is a closed-form squared-loss method and takes no "
                "ModalLoss; use MRCRC for the modal collaborative representation"
            )
        solver_loss = None if self.solver is None else self.solver.loss
        if isinstance(solver_loss, ModalLoss) and solver_loss != _effective_loss(self):
            raise ValueError(
                f"solver.loss {solver_loss!r} conflicts with the loss {self.method} "
                "runs with; set the loss on the spec"
            )
        if self.block_partition is not None and self.method not in ("BSRC", "MRBSRC"):
            raise ValueError(
                f"block_partition applies only to BSRC and MRBSRC, not {self.method}"
            )


@dataclass(frozen=True)
class ClassificationResult:
    """The label, the per-class residuals and the solve behind them.

    ``sigma`` is the bandwidth the classes were scored with: the solver's
    final bandwidth (a float, or one per modality for MRJSRC) for the MR
    methods, None for the squared-loss and closed-form ones.
    """

    label: int
    residuals: np.ndarray
    coefficients: np.ndarray
    iterations: int = 0
    converged: bool = True
    sigma: float | np.ndarray | None = None


def restrict_to_class(c, dictionary, k):
    """Copy of c with every coefficient outside class k zeroed."""
    c = as_vector(c, "coefficients")
    if c.shape[0] != dictionary.n_atoms:
        raise DimensionMismatch(
            f"coefficient length {c.shape[0]} does not match dictionary "
            f"({dictionary.n_atoms} atoms)"
        )
    cols = dictionary.columns_of_class(k)
    out = np.zeros_like(c)
    out[cols] = c[cols]
    return out


def _effective_loss(spec):
    if spec.loss is not None:
        return spec.loss
    if spec.method.startswith("MR"):
        return ModalLoss.adaptive()
    return SquaredLoss()


def _solver_config(spec, loss):
    base = spec.solver if spec.solver is not None else SolverConfig()
    return replace(base, lam=spec.lam, loss=loss)


def _atomic_set(spec, dictionary):
    stem = spec.method[2:] if spec.method.startswith("MR") else spec.method
    if stem == "SRC":
        return AtomicSet.sparse()
    if stem == "CRC":
        return AtomicSet.collaborative()
    if stem == "BSRC":
        part = dictionary.partition if spec.block_partition is None else spec.block_partition
        if part.size != dictionary.n_atoms:
            raise DimensionMismatch(
                "block partition size does not match the dictionary"
            )
        return AtomicSet.block(part)
    raise ValueError(f"no atomic set for method {spec.method!r}")


def _class_residuals(dictionary, y, coeffs, sigma):
    """Per-class reconstruction residuals; modal loss when sigma is given.

    All K classes come from one pass over the dictionary's class layout.
    """
    order, bounds = dictionary.partition.arrays()
    parts = np.add.reduceat(dictionary.atoms[:, order] * coeffs[order], bounds[:-1], axis=1)
    R = y[:, None] - parts
    if sigma is not None:
        return _mrlf_raw(R, sigma, axis=0)
    return np.sqrt((R * R).sum(axis=0))


def classify(dictionary, y, spec):
    """Label a single query vector with any unimodal method."""
    y = as_vector(y, "query")
    if y.shape[0] != dictionary.atoms.shape[0]:
        raise DimensionMismatch(
            f"query length {y.shape[0]} does not match dictionary rows "
            f"{dictionary.atoms.shape[0]}"
        )
    if spec.method in MULTIMODAL_METHODS:
        raise ValueError(f"{spec.method} requires classify_multimodal")
    if spec.method == "LRC":
        return classify_lrc(dictionary, y)
    if spec.method == "CRC":
        A = dictionary.atoms
        c = scipy.linalg.cho_solve(dictionary.crc_factor(spec.lam), A.T @ y, check_finite=False)
        res = _class_residuals(dictionary, y, c, None)
        return ClassificationResult(int(np.argmin(res)), res, c, 0, True)
    loss = _effective_loss(spec)
    cfg = _solver_config(spec, loss)
    aset = _atomic_set(spec, dictionary)
    if isinstance(loss, ModalLoss):
        out = solve_mrar(dictionary.atoms, y, aset, cfg)
    else:
        out = solve_ar_squared(dictionary.atoms, y, aset, cfg)
    res = _class_residuals(dictionary, y, out.coefficients, out.sigma)
    return ClassificationResult(
        int(np.argmin(res)), res, out.coefficients, out.iterations, out.converged, out.sigma
    )


def classify_lrc(dictionary, y):
    """Per-class least-squares projection; nearest subspace wins.

    One product with the dictionary's ``lrc_projector`` fits every class
    (minimum-norm on dependent columns).  The returned coefficients embed
    the winning class's fit into a full dictionary-length vector, zeros
    elsewhere.
    """
    y = as_vector(y, "query")
    if y.shape[0] != dictionary.atoms.shape[0]:
        raise DimensionMismatch("query length does not match dictionary rows")
    fits = dictionary.lrc_projector @ y
    res = _class_residuals(dictionary, y, fits, None)
    label = int(np.argmin(res))
    return ClassificationResult(label, res, restrict_to_class(fits, dictionary, label), 0, True)


def classify_multimodal(dictionaries, ys, spec):
    """Label a multi-view query with MRJSRC or JSRC.

    All per-modality dictionaries must agree on atom count, labels, and class
    count; the per-class residual sums the per-modality residuals.
    """
    if spec.method not in MULTIMODAL_METHODS:
        raise ValueError(f"{spec.method} is not a multimodal method")
    if len(dictionaries) == 0:
        raise EmptyQuerySet("need at least one modality")
    if len(dictionaries) != len(ys):
        raise InconsistentModalities(
            f"got {len(dictionaries)} dictionaries and {len(ys)} queries"
        )
    first = dictionaries[0]
    for d in dictionaries[1:]:
        if d.n_atoms != first.n_atoms or d.n_classes != first.n_classes:
            raise InconsistentModalities("modalities disagree on dictionary shape")
        if not np.array_equal(d.class_of, first.class_of):
            raise InconsistentModalities("modalities disagree on column labels")
    ys = [as_vector(y, "query") for y in ys]
    for d, y in zip(dictionaries, ys):
        if y.shape[0] != d.atoms.shape[0]:
            raise DimensionMismatch("query length does not match its dictionary")
    loss = _effective_loss(spec)
    cfg = _solver_config(spec, loss)
    aset = AtomicSet.joint_rows()
    Xs = [d.atoms for d in dictionaries]
    if isinstance(loss, ModalLoss):
        out = solve_mrar_multimodal(Xs, ys, aset, cfg)
    else:
        out = solve_ar_squared_multimodal(Xs, ys, aset, cfg)
    res = np.zeros(first.n_classes)
    for j, (d, y) in enumerate(zip(dictionaries, ys)):
        s_j = None if out.sigma is None else float(out.sigma[j])
        res += _class_residuals(d, y, out.coefficients[:, j], s_j)
    return ClassificationResult(
        int(np.argmin(res)), res, out.coefficients, out.iterations, out.converged, out.sigma
    )

