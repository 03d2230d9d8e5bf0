"""Robust representation-based classification via modal regression.

The package fits atomic-norm-regularized representation models whose data
term is a correntropy-style modal regression loss, solved by ADMM with
one half-quadratic reweighting per iteration, and classifies queries by
class-wise reconstruction residuals.  Squared-loss counterparts of every
model are included as baselines, together with synthetic data generation,
noise injection, file IO, and a benchmark CLI.

The hot numeric kernels (:mod:`mrarc.kernels`) are one numpy set whose ridge
solves call LAPACK ``posv``/``potrs`` directly.
"""

from . import kernels
from .atomic import (
    BLOCK,
    COLLABORATIVE,
    JOINT_ROWS,
    SPARSE,
    AtomicSet,
    Partition,
    atomic_norm,
    prox,
)
from .classify import (
    METHODS,
    MULTIMODAL_METHODS,
    UNIMODAL_METHODS,
    ClassificationResult,
    ClassifierSpec,
    Dictionary,
    classify,
    classify_lrc,
    classify_multimodal,
    restrict_to_class,
)
from .data import (
    CSV,
    FILL_PATCH,
    FILL_UNIFORM,
    RAW,
    RAW_MAGIC,
    BlockOcclusion,
    LabeledMatrix,
    PixelCorruption,
    SyntheticSpec,
    corrupt,
    gen_subspace_data,
    load_matrix,
    occlude,
    save_matrix,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyInput,
    EmptyQuerySet,
    GeometryMismatch,
    InconsistentModalities,
    IndexOutOfRange,
    InvalidSpec,
    MagicMismatch,
    MrarcError,
    NonFiniteInput,
    NonPositiveGamma,
    NotSPD,
    ParseError,
    ShapeMismatch,
    UnsupportedKernel,
)
from .modal import (
    EPANECHNIKOV,
    GAUSSIAN,
    Kernel,
    ModalLoss,
    default_sigma_floor,
    estimate_mode,
    mrlf,
    parzen_density,
)
from .solver import (
    SolveHistory,
    SolverConfig,
    SolveResult,
    SquaredLoss,
    solve_ar_squared,
    solve_ar_squared_multimodal,
    solve_crc,
    solve_mrar,
    solve_mrar_multimodal,
)

__version__ = "0.1.0"

__all__ = [
    "kernels",
    # atomic
    "SPARSE", "COLLABORATIVE", "BLOCK", "JOINT_ROWS",
    "AtomicSet", "Partition", "atomic_norm", "prox",
    # modal
    "GAUSSIAN", "EPANECHNIKOV", "Kernel", "ModalLoss",
    "mrlf", "default_sigma_floor", "parzen_density", "estimate_mode",
    # solver
    "SquaredLoss", "SolverConfig", "SolveHistory", "SolveResult",
    "solve_mrar", "solve_ar_squared", "solve_crc",
    "solve_mrar_multimodal", "solve_ar_squared_multimodal",
    # classify
    "METHODS", "UNIMODAL_METHODS", "MULTIMODAL_METHODS",
    "Dictionary", "ClassifierSpec", "ClassificationResult",
    "classify", "classify_lrc", "classify_multimodal",
    "restrict_to_class",
    # data
    "CSV", "RAW", "RAW_MAGIC", "FILL_UNIFORM", "FILL_PATCH",
    "SyntheticSpec", "LabeledMatrix", "BlockOcclusion", "PixelCorruption",
    "gen_subspace_data", "occlude", "corrupt", "save_matrix", "load_matrix",
    # errors
    "MrarcError", "DimensionMismatch", "NotSPD", "ShapeMismatch",
    "NonPositiveGamma", "UnsupportedKernel", "EmptyInput", "InvalidSpec",
    "GeometryMismatch", "MagicMismatch", "ConfigError",
    "InconsistentModalities", "EmptyQuerySet", "IndexOutOfRange",
    "ParseError", "NonFiniteInput",
    "__version__",
]
