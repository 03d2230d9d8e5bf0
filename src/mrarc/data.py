"""Synthetic datasets, noise injection, and on-disk matrix formats.

Samples are stored one per column.  The CSV format holds one sample per row,
comma separated, with the integer class label as the last field and no
header.  The binary format starts with the magic bytes ``MRARC1`` followed by
little-endian u32 fields (rows, columns, has_labels), the column-major f64
sample block, and, when labeled, one little-endian u32 label per column.

All randomness flows through numpy's seeded PCG64 generator, so outputs are
reproducible given the spec seeds.
"""

import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import GeometryMismatch, InvalidSpec, MagicMismatch, ParseError
from .numkit import as_matrix, check_integer

RAW_MAGIC = b"MRARC1"
CSV = "csv"
RAW = "raw"

FILL_UNIFORM = "uniform"
FILL_PATCH = "patch"


@dataclass(frozen=True)
class SyntheticSpec:
    """Union-of-subspaces dataset: K random subspaces of dimension d in R^m."""

    n_classes: int
    subspace_dim: int
    ambient_dim: int
    per_class_train: int
    per_class_test: int
    coeff_scale: float = 1.0
    seed: int = 0

    def __post_init__(self):
        for name in ("n_classes", "subspace_dim", "ambient_dim", "per_class_train",
                     "per_class_test"):
            check_integer(getattr(self, name), name)
        if isinstance(self.coeff_scale, (bool, np.bool_)):
            raise TypeError(f"coeff_scale must be a number, got {self.coeff_scale!r}")
        if self.n_classes < 1:
            raise InvalidSpec("need at least one class")
        if self.subspace_dim < 1:
            raise InvalidSpec("subspace dimension must be at least 1")
        if self.subspace_dim >= self.ambient_dim:
            raise InvalidSpec(
                f"subspace dimension {self.subspace_dim} must be below the "
                f"ambient dimension {self.ambient_dim}"
            )
        if self.per_class_train < 1 or self.per_class_test < 1:
            raise InvalidSpec("need at least one train and one test sample per class")
        if not (self.coeff_scale > 0.0):
            raise InvalidSpec("coeff_scale must be positive")


@dataclass(frozen=True)
class LabeledMatrix:
    """Sample matrix (one column per sample) with optional labels and geometry."""

    samples: np.ndarray
    labels: np.ndarray | None = None
    image_shape: tuple | None = None

    def __post_init__(self):
        S = as_matrix(self.samples, "samples")
        object.__setattr__(self, "samples", S)
        if self.labels is not None:
            lab = np.asarray(self.labels)
            if lab.ndim != 1 or lab.shape[0] != S.shape[1]:
                raise InvalidSpec("need one label per sample column")
            if lab.size and (np.any(lab != np.floor(lab)) or np.any(lab < 0)):
                raise InvalidSpec("labels must be nonnegative integers")
            object.__setattr__(self, "labels", lab.astype(np.int64))
        if self.image_shape is not None:
            h, w = (int(self.image_shape[0]), int(self.image_shape[1]))
            if h < 1 or w < 1 or h * w != S.shape[0]:
                raise GeometryMismatch(
                    f"image shape {h}x{w} does not match sample length {S.shape[0]}"
                )
            object.__setattr__(self, "image_shape", (h, w))

    @property
    def n_samples(self):
        return self.samples.shape[1]


@dataclass(frozen=True)
class BlockOcclusion:
    """Square occlusion covering the given area fraction, placed uniformly.

    ``fill`` is either uniform random values over ``fill_range`` or a fixed
    patch image resampled (nearest neighbor) to the occluder size.
    """

    fraction: float
    fill: str = FILL_UNIFORM
    patch: np.ndarray | None = None
    fill_range: tuple = (0.0, 255.0)
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.fraction <= 1.0):
            raise InvalidSpec(f"fraction must be in [0, 1], got {self.fraction}")
        if self.fill not in (FILL_UNIFORM, FILL_PATCH):
            raise InvalidSpec(f"unknown fill {self.fill!r}")
        if self.fill == FILL_PATCH:
            if self.patch is None:
                raise InvalidSpec("patch fill requires a patch image")
            object.__setattr__(self, "patch", as_matrix(self.patch, "patch"))
        lo, hi = self.fill_range
        if not (lo <= hi):
            raise InvalidSpec("fill_range must satisfy lo <= hi")


@dataclass(frozen=True)
class PixelCorruption:
    """Replace a fraction of coordinates per sample with uniform noise."""

    fraction: float
    value_range: tuple = (0.0, 255.0)
    seed: int = 0

    def __post_init__(self):
        if not (0.0 <= self.fraction <= 1.0):
            raise InvalidSpec(f"fraction must be in [0, 1], got {self.fraction}")
        lo, hi = self.value_range
        if not (lo <= hi):
            raise InvalidSpec("value_range must satisfy lo <= hi")


def gen_subspace_data(spec):
    """Draw per-class orthonormal bases and Gaussian coefficients.

    Returns (train, test) LabeledMatrix pairs; class k occupies contiguous
    column ranges in both.  Each class's basis is the QR factor of a seeded
    Gaussian matrix, so distinct classes give distinct subspaces with
    probability one.
    """
    rng = np.random.default_rng(spec.seed)
    m, d = spec.ambient_dim, spec.subspace_dim
    ntr, nte = spec.per_class_train, spec.per_class_test
    train_cols, test_cols, ytr, yte = [], [], [], []
    for k in range(spec.n_classes):
        basis, _ = np.linalg.qr(rng.standard_normal((m, d)))
        coeffs = rng.standard_normal((d, ntr + nte)) * spec.coeff_scale
        block = basis @ coeffs
        train_cols.append(block[:, :ntr])
        test_cols.append(block[:, ntr:])
        ytr.extend([k] * ntr)
        yte.extend([k] * nte)
    train = LabeledMatrix(np.concatenate(train_cols, axis=1), np.array(ytr))
    test = LabeledMatrix(
        np.concatenate(test_cols, axis=1) if nte else np.zeros((m, 0)),
        np.array(yte, dtype=np.int64),
    )
    return train, test


def _round_half_up(x):
    return int(math.floor(x + 0.5))


def occlude(x, spec):
    """Overwrite a square region of every sample image with the fill.

    The occluder side is round(sqrt(fraction * h * w)); it must fit inside
    the frame, and its top-left corner is drawn uniformly per sample.
    """
    if x.image_shape is None:
        raise GeometryMismatch("occlusion requires samples with an image shape")
    h, w = x.image_shape
    side = _round_half_up(math.sqrt(spec.fraction * h * w))
    if side > min(h, w):
        raise GeometryMismatch(
            f"occluder side {side} does not fit inside a {h}x{w} frame"
        )
    out = x.samples.copy()
    if side > 0:
        rng = np.random.default_rng(spec.seed)
        if spec.fill == FILL_PATCH:
            patch = _resample_nearest(spec.patch, side)
        lo, hi = spec.fill_range
        for j in range(out.shape[1]):
            r0 = int(rng.integers(0, h - side + 1))
            c0 = int(rng.integers(0, w - side + 1))
            if spec.fill == FILL_UNIFORM:
                patch = rng.uniform(lo, hi, size=(side, side))
            frame = out[:, j].reshape(h, w).copy()
            frame[r0 : r0 + side, c0 : c0 + side] = patch
            out[:, j] = frame.reshape(-1)
    return LabeledMatrix(out, x.labels, x.image_shape)


def _resample_nearest(patch, side):
    ph, pw = patch.shape
    rows = np.minimum((np.arange(side) * ph) // side, ph - 1)
    cols = np.minimum((np.arange(side) * pw) // side, pw - 1)
    return patch[np.ix_(rows, cols)]


def corrupt(x, spec):
    """Replace round(fraction * m) distinct coordinates per sample.

    The count rounds half up; replacement values are uniform over the spec's
    value range, and coordinate choices are drawn without replacement.
    """
    m = x.samples.shape[0]
    count = _round_half_up(spec.fraction * m)
    out = x.samples.copy()
    if count > 0:
        rng = np.random.default_rng(spec.seed)
        lo, hi = spec.value_range
        for j in range(out.shape[1]):
            coords = rng.choice(m, size=count, replace=False)
            out[coords, j] = rng.uniform(lo, hi, size=count)
    return LabeledMatrix(out, x.labels, x.image_shape)


def _infer_format(path, fmt):
    if fmt is not None:
        if fmt not in (CSV, RAW):
            raise ValueError(f"unknown format {fmt!r}")
        return fmt
    return RAW if str(path).endswith(".raw") else CSV


def save_matrix(x, path, fmt=None):
    """Write a LabeledMatrix as CSV (requires labels) or the raw binary format."""
    fmt = _infer_format(path, fmt)
    if fmt == CSV:
        if x.labels is None:
            raise InvalidSpec("CSV files carry labels; this matrix has none")
        with open(path, "w") as fh:
            for j in range(x.samples.shape[1]):
                fields = [format(v, ".17g") for v in x.samples[:, j]]
                fields.append(str(int(x.labels[j])))
                fh.write(",".join(fields) + "\n")
        return
    m, n = x.samples.shape
    has = 1 if x.labels is not None else 0
    with open(path, "wb") as fh:
        fh.write(RAW_MAGIC)
        fh.write(struct.pack("<III", m, n, has))
        fh.write(np.asarray(x.samples, dtype="<f8").tobytes(order="F"))
        if has:
            fh.write(np.asarray(x.labels, dtype="<u4").tobytes())


def load_matrix(path, fmt=None):
    """Read a matrix written by save_matrix; format inferred from extension."""
    fmt = _infer_format(path, fmt)
    if fmt == CSV:
        return _load_csv(path)
    return _load_raw(path)


def _load_csv(path):
    rows = []
    labels = []
    width = None
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            fields = line.split(",")
            if len(fields) < 2:
                raise ParseError("need at least one value and a label", line=lineno)
            if width is None:
                width = len(fields)
            elif len(fields) != width:
                raise ParseError(
                    f"expected {width} fields, found {len(fields)}", line=lineno
                )
            try:
                rows.append([float(f) for f in fields[:-1]])
            except ValueError:
                raise ParseError("non-numeric value field", line=lineno) from None
            try:
                labels.append(int(fields[-1]))
            except ValueError:
                raise ParseError("label field is not an integer", line=lineno) from None
    if not rows:
        raise ParseError("file holds no samples", line=1)
    samples = np.array(rows, dtype=np.float64).T
    return LabeledMatrix(samples, np.array(labels, dtype=np.int64))


def _load_raw(path):
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[: len(RAW_MAGIC)] != RAW_MAGIC:
        raise MagicMismatch(
            f"expected magic {RAW_MAGIC!r} at the start of {path}"
        )
    header_end = len(RAW_MAGIC) + 12
    if len(blob) < header_end:
        raise ParseError("truncated header", offset=len(blob))
    m, n, has = struct.unpack("<III", blob[len(RAW_MAGIC) : header_end])
    body = header_end + 8 * m * n
    expected = body + (4 * n if has else 0)
    if len(blob) != expected:
        raise ParseError(
            f"expected {expected} bytes for a {m}x{n} matrix, found {len(blob)}",
            offset=len(blob),
        )
    samples = np.frombuffer(blob[header_end:body], dtype="<f8").reshape(
        (m, n), order="F"
    )
    labels = None
    if has:
        labels = np.frombuffer(blob[body:], dtype="<u4").astype(np.int64)
    return LabeledMatrix(np.ascontiguousarray(samples), labels)
