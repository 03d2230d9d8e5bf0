"""Experiment runner and command-line interface.

Subcommands: ``gen`` writes a synthetic dataset, ``classify`` labels a query
file against a training file, ``bench`` sweeps methods x noise levels x
repeats from a JSON config, and ``modecheck`` reports the estimated mode of a
residual sample file.  Exit codes: 0 on success, 2 for configuration
problems, 1 for runtime failures.  A configuration problem is a bad argument
or config field, or an input file that cannot be read or an output path
that cannot be written (any ``OSError`` on it); each is reported as one
``error:`` line that names the field or the path.

Config fields are read by one typed reader: a JSON boolean is never taken
as a number, and a method object passes only the keys it gives, so every
other setting keeps the library's default.  A key that its object does not
take (a misspelt one, say) is a configuration problem, not a default.

Benchmark rows are sorted by (method, noise level, repeat) and every random
draw is derived from the config seed, so a rerun of the same config writes
byte-identical outputs (set ``record_timing`` to false to zero the wall-time
column, which is otherwise the one nondeterministic field).
"""

import argparse
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, replace

import numpy as np

from .classify import (
    METHODS,
    MULTIMODAL_METHODS,
    ClassifierSpec,
    Dictionary,
    classify,
)
from .data import (
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
from .errors import ConfigError, MrarcError
from .modal import Kernel, ModalLoss, estimate_mode, parzen_density
from .solver import SolverConfig

CSV_HEADER = (
    "method,noise_level,repeat,accuracy,mean_solver_iters,converged_share,wall_time_ms"
)
_STAT_COLUMNS = tuple(CSV_HEADER.split(",")[3:])  # a row's figures after its cell's key


@dataclass(frozen=True)
class ExperimentSpec:
    """Validated benchmark description: data source, noise sweep, methods."""

    synthetic: SyntheticSpec | None
    train_path: str | None
    test_path: str | None
    image_shape: tuple | None
    noise: tuple
    methods: tuple
    repeats: int
    seed: int
    record_timing: bool
    output: str | None


_REQUIRED = object()
# two-entry lists: the type of each entry, and the shape that messages name
_RANGE = (float, "[lo, hi]")
_SHAPE = (int, "[height, width]")
# JSON key -> SyntheticSpec field, for the counts of a synthetic dataset
_SYNTHETIC_COUNTS = {
    "classes": "n_classes",
    "subspace_dim": "subspace_dim",
    "ambient_dim": "ambient_dim",
    "per_class_train": "per_class_train",
    "per_class_test": "per_class_test",
}
# ``mrarc gen`` runs without a config, so it has counts of its own
_GEN_COUNTS = {
    "classes": 5, "subspace_dim": 3, "ambient_dim": 64, "per_class_train": 10, "per_class_test": 5,
}
_SOLVER_KEYS = {"mu": float, "epsilon": float, "max_iter": int}
_BANDWIDTH_KEYS = {"sigma": float, "min_sigma": float}
# noise kind -> its class, that class's field for the JSON key "range", and
# the keys only that kind takes
_NOISE_KINDS = {
    "pixel_corruption": (PixelCorruption, "value_range", {}),
    "block_occlusion": (BlockOcclusion, "fill_range", {"fill": str}),
}
# the keys each config object takes; any other is reported, not ignored
_CONFIG_KEYS = ("data", "noise", "methods", "repeats", "seed", "record_timing", "output")
_DATA_KEYS = ("synthetic", "train", "test", "image_shape")
_SYNTHETIC_KEYS = (*_SYNTHETIC_COUNTS, "coeff_scale")
_NOISE_KEYS = ("kind", "fraction", "range")
_METHOD_KEYS = ("name", "lam", *_SOLVER_KEYS, *_BANDWIDTH_KEYS)


def _field(obj, key, kind, where, default=_REQUIRED):
    """``obj[key]`` as ``kind``, or ``default`` when it is absent or null.

    ``kind`` is a JSON type (int, float, str, bool, dict or list) or a
    two-entry list such as ``_RANGE``, read as a tuple.  A JSON boolean is
    no number, and an integer is a float.  Without a default the key is
    required.  Errors are ConfigErrors prefixed by ``where``.
    """
    value = obj.get(key)
    if value is None:
        if default is _REQUIRED:
            raise ConfigError(f"{where}: missing required field '{key}'")
        return default
    pair = isinstance(kind, tuple)
    if pair:
        kind, shape = kind
        if not (isinstance(value, list) and len(value) == 2):
            raise ConfigError(f"{where}: field '{key}' must be {shape}")
    items = value if pair else [value]
    types = (int, float) if kind is float else kind
    for v in items:
        if not isinstance(v, types) or (isinstance(v, bool) and kind is not bool):
            raise ConfigError(f"{where}: field '{key}' has the wrong type")
    return tuple(map(kind, items)) if pair else kind(value)


def _fields(obj, kinds, where):
    """The keys of ``kinds`` that ``obj`` sets (not null), each read by _field."""
    return {
        key: _field(obj, key, kind, where)
        for key, kind in kinds.items()
        if obj.get(key) is not None
    }


def _object(value, where, keys=None):
    """``value``, which must be a JSON object; given ``keys``, it may set no other."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: must be a JSON object")
    for key in value:
        if keys is not None and key not in keys:
            raise ConfigError(f"{where}: unknown field '{key}'")
    return value


def _build(where, make, *args, **kwargs):
    """``make(*args, **kwargs)``; the library's validation errors become
    ConfigErrors prefixed by ``where``.  Read every field before the call,
    so that no ConfigError is prefixed twice."""
    try:
        return make(*args, **kwargs)
    except (MrarcError, ValueError, TypeError) as exc:
        raise ConfigError(f"{where}: {exc}") from exc


@contextmanager
def _file_errors(path, verb="read"):
    """Any OSError in the block becomes a ConfigError naming the file."""
    try:
        yield
    except OSError as exc:
        name = exc.filename or path
        raise ConfigError(f"cannot {verb} {name}: {exc.strerror or exc}") from None


def _load_json(path):
    try:
        with _file_errors(path), open(path, "rb") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from None


def _parse_synthetic(obj, where, defaults, seed=0):
    _object(obj, where, _SYNTHETIC_KEYS)
    counts = {
        attr: _field(obj, key, int, where, defaults.get(key, _REQUIRED))
        for key, attr in _SYNTHETIC_COUNTS.items()
    }
    scale = _fields(obj, {"coeff_scale": float}, where)
    return _build(where, SyntheticSpec, seed=seed, **counts, **scale)


def _parse_data(cfg):
    data = _object(_field(cfg, "data", dict, "config"), "data", _DATA_KEYS)
    image_shape = _field(data, "image_shape", _SHAPE, "data", None)
    if "synthetic" not in data:
        train, test = (_field(data, key, str, "data") for key in ("train", "test"))
        return None, train, test, image_shape
    spec = _parse_synthetic(_field(data, "synthetic", dict, "data"), "data.synthetic", {})
    if image_shape is not None and image_shape[0] * image_shape[1] != spec.ambient_dim:
        raise ConfigError("data: image_shape does not match ambient_dim")
    return spec, None, None, image_shape


def _parse_noise(cfg):
    levels = _field(cfg, "noise", list, "config", None)
    if levels is None:
        return (PixelCorruption(0.0),)
    out = []
    for i, lv in enumerate(levels):
        where = f"noise[{i}]"
        kind = _field(_object(lv, where), "kind", str, where)
        if kind not in _NOISE_KINDS:
            raise ConfigError(f"{where}: unknown noise kind {kind!r}")
        make, range_field, extra = _NOISE_KINDS[kind]
        _object(lv, where, (*_NOISE_KEYS, *extra))
        opts = {range_field: span for span in _fields(lv, {"range": _RANGE}, where).values()}
        opts.update(_fields(lv, extra, where))
        out.append(_build(where, make, _field(lv, "fraction", float, where), **opts))
    return tuple(out)


def _parse_method(mc, where):
    name = _field(_object(mc, where, _METHOD_KEYS), "name", str, where)
    if name not in METHODS:
        raise ConfigError(f"{where}: unknown method name {name!r}")
    if name in MULTIMODAL_METHODS:
        raise ConfigError(
            f"{where}: method {name!r} needs multimodal data and is not "
            "available through the benchmark runner"
        )
    lam = _fields(mc, {"lam": float}, where)
    settings = _fields(mc, _SOLVER_KEYS, where)
    bandwidth = _fields(mc, _BANDWIDTH_KEYS, where)
    modal = name.startswith("MR")
    for key in bandwidth:
        if not modal:
            raise ConfigError(f"{where}: field '{key}' applies only to MR methods")
    # every setting a method object leaves out keeps the library's default
    return _build(where, lambda: ClassifierSpec(
        name, loss=ModalLoss(**bandwidth) if modal else None,
        solver=SolverConfig(**settings), **lam,
    ))


def _parse_methods(cfg):
    methods = _field(cfg, "methods", list, "config")
    if not methods:
        raise ConfigError("config: field 'methods' must not be empty")
    return tuple(_parse_method(mc, f"methods[{i}]") for i, mc in enumerate(methods))


def parse_experiment(cfg):
    """Build a validated ExperimentSpec from a decoded JSON object."""
    _object(cfg, "config", _CONFIG_KEYS)
    synthetic, train, test, image_shape = _parse_data(cfg)
    noise = _parse_noise(cfg)
    methods = _parse_methods(cfg)
    repeats = _field(cfg, "repeats", int, "config", 1)
    if repeats < 1:
        raise ConfigError("config: field 'repeats' must be at least 1")
    seed = _field(cfg, "seed", int, "config", 0)
    if seed < 0:
        raise ConfigError("config: field 'seed' must be nonnegative")
    record_timing = _field(cfg, "record_timing", bool, "config", True)
    output = _field(cfg, "output", str, "config", None)
    return ExperimentSpec(
        synthetic, train, test, image_shape, noise, methods,
        repeats, seed, record_timing, output,
    )


def load_experiment(path):
    """Read and validate a JSON experiment config from disk."""
    spec = parse_experiment(_load_json(path))
    for p in (spec.train_path, spec.test_path):
        if p is not None:
            with _file_errors(p):
                open(p, "rb").close()
    return spec


def _noise_seed(base, repeat, level_index):
    # fixed mixing rule so every (repeat, level) cell gets its own stream
    return base + repeat + 7919 * (level_index + 1)


def _apply_noise(test, template, seed):
    spec = replace(template, seed=seed)
    if isinstance(spec, PixelCorruption):
        return corrupt(test, spec)
    return occlude(test, spec)


def run_experiment(spec, out_dir=None):
    """Run the sweep; returns (rows, summary) and writes outputs when asked.

    Repeat r regenerates synthetic data with seed ``spec.seed + r``; noise
    for level l uses seed ``spec.seed + r + 7919 (l+1)``.  Rows are sorted by
    (method, noise level, repeat).  Besides the accuracy, a row holds the mean
    solver iterations and the share of queries whose solve converged (a
    closed-form method always does).  Cells that raise are recorded with NaN
    accuracy and the sweep continues.
    """
    out_dir = out_dir if out_dir is not None else spec.output
    if out_dir is not None:  # before the sweep, so that a bad path fails fast
        with _file_errors(out_dir, "write"):
            os.makedirs(out_dir, exist_ok=True)
    rows = []
    errors = []
    if spec.synthetic is None:
        with _file_errors(spec.train_path):
            train, test = load_matrix(spec.train_path), load_matrix(spec.test_path)
        if train.labels is None or test.labels is None:
            raise ConfigError("config: benchmark data files must carry labels")
    for rep in range(spec.repeats):
        if spec.synthetic is not None:
            train, test = gen_subspace_data(
                replace(spec.synthetic, seed=spec.seed + rep)
            )
        if spec.image_shape is not None:
            train = LabeledMatrix(train.samples, train.labels, spec.image_shape)
            test = LabeledMatrix(test.samples, test.labels, spec.image_shape)
        dictionary = Dictionary.from_samples(train.samples, train.labels)
        for li, template in enumerate(spec.noise):
            noisy = _apply_noise(test, template, _noise_seed(spec.seed, rep, li))
            nq = max(noisy.n_samples, 1)
            for mspec in spec.methods:
                level = float(template.fraction)
                row = {"method": mspec.method, "noise_level": level, "repeat": rep}
                try:
                    t0 = time.perf_counter()
                    results = [
                        classify(dictionary, noisy.samples[:, q], mspec)
                        for q in range(noisy.n_samples)
                    ]
                    wall_ms = (time.perf_counter() - t0) * 1e3
                    correct = sum(r.label == int(lab) for r, lab in zip(results, noisy.labels))
                    stats = (
                        correct / nq,
                        sum(r.iterations for r in results) / nq,
                        sum(bool(r.converged) for r in results) / nq,
                        wall_ms if spec.record_timing else 0.0,
                    )
                except MrarcError as exc:
                    errors.append({**row, "error": str(exc)})
                    stats = (math.nan, math.nan, math.nan, 0.0)
                rows.append({**row, **dict(zip(_STAT_COLUMNS, stats))})
    rows.sort(key=lambda r: (r["method"], r["noise_level"], r["repeat"]))
    summary = _summarize(rows, errors)
    if out_dir is not None:
        _write_outputs(rows, summary, out_dir)
    return rows, summary


def _summarize(rows, errors):
    cells = {}
    for r in rows:
        cells.setdefault((r["method"], r["noise_level"]), []).append(r["accuracy"])
    summary_cells = []
    for (method, level), accs in sorted(cells.items()):
        finite = [a for a in accs if not math.isnan(a)] or [math.nan]
        stats = {"mean": sum(finite) / len(finite), "min": min(finite), "max": max(finite)}
        summary_cells.append({"method": method, "noise_level": level, "accuracy": stats})
    return {"cells": summary_cells, "errors": errors}


_CSV_ROW = (
    "{method},{noise_level:g},{repeat},{accuracy:.6f},{mean_solver_iters:.2f},"
    "{converged_share:.6f},{wall_time_ms:.3f}"
)


def format_rows_csv(rows):
    return "\n".join([CSV_HEADER, *(_CSV_ROW.format(**r) for r in rows)]) + "\n"


def _write_outputs(rows, summary, out_dir):
    with _file_errors(out_dir, "write"):
        with open(os.path.join(out_dir, "results.csv"), "w") as fh:
            fh.write(format_rows_csv(rows))
        with open(os.path.join(out_dir, "summary.json"), "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_gen(args):
    cfg = {} if args.config is None else _load_json(args.config)
    spec = _parse_synthetic(cfg, "gen config", _GEN_COUNTS, seed=args.seed)
    train, test = gen_subspace_data(spec)
    ext = args.format
    meta = {key: getattr(spec, attr) for key, attr in _SYNTHETIC_COUNTS.items()}
    meta.update(coeff_scale=spec.coeff_scale, seed=spec.seed, format=ext)
    with _file_errors(args.out, "write"):
        os.makedirs(args.out, exist_ok=True)
        save_matrix(train, os.path.join(args.out, f"train.{ext}"))
        save_matrix(test, os.path.join(args.out, f"test.{ext}"))
        with open(os.path.join(args.out, "meta.json"), "w") as fh:
            json.dump(meta, fh, indent=2, sort_keys=True)
            fh.write("\n")
    print(f"wrote train.{ext}, test.{ext}, meta.json to {args.out}")
    return 0


def _cmd_classify(args):
    spec = _build("classify", lambda: ClassifierSpec(
        args.method, args.lam,
        solver=SolverConfig(mu=args.mu, epsilon=args.epsilon, max_iter=args.max_iter),
    ))
    with _file_errors(args.train):
        train, query = load_matrix(args.train), load_matrix(args.query)
    if train.labels is None:
        raise ConfigError(f"training file {args.train} carries no labels")
    dictionary = Dictionary.from_samples(train.samples, train.labels)
    labels = []
    for q in range(query.samples.shape[1]):
        labels.append(int(classify(dictionary, query.samples[:, q], spec).label))
    if args.format == "json":
        print(json.dumps(labels))
    else:
        for lab in labels:
            print(lab)
    return 0


def _cmd_bench(args):
    spec = load_experiment(args.config)
    if args.seed is not None:
        spec = replace(spec, seed=args.seed)
    rows, summary = run_experiment(spec, args.out)
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        sys.stdout.write(format_rows_csv(rows))
    return 0


def _load_residuals(path):
    values = []
    with _file_errors(path), open(path, errors="replace") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            for field in line.split(","):
                try:
                    values.append(float(field))
                except ValueError:
                    raise ConfigError(
                        f"residual file {path}, line {lineno}: not a number"
                    ) from None
    if not values:
        raise ConfigError(f"residual file {path} holds no values")
    return np.array(values)


def _cmd_modecheck(args):
    if args.kernel == "epanechnikov":
        kernel = Kernel.epanechnikov()
    else:
        kernel = _build("modecheck", Kernel.gaussian, args.sigma)
    if args.grid_points < 3:
        raise ConfigError("modecheck: --grid-points must be at least 3")
    samples = _load_residuals(args.residuals)
    mode = estimate_mode(kernel, samples, grid_points=args.grid_points)
    density = float(parzen_density(kernel, samples, mode))
    if args.format == "json":
        print(json.dumps({"mode": mode, "density": density}))
    else:
        print(f"mode {mode:.9g}")
        print(f"density {density:.9g}")
    return 0


def _seed(text):
    # argparse type of --seed; numpy's generators take no negative seed
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="mrarc",
        description=(
            "Robust representation-based classification benchmarks "
            "(numpy kernels; ridge solves through LAPACK posv/potrs)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="write a synthetic union-of-subspaces dataset")
    g.add_argument("--config", default=None, help="JSON file with generator fields")
    g.add_argument("--seed", type=_seed, default=0)
    g.add_argument("--out", required=True, help="output directory")
    g.add_argument("--format", choices=["csv", "raw"], default="csv")
    g.set_defaults(handler=_cmd_gen)

    c = sub.add_parser("classify", help="label a query file against a training file")
    c.add_argument("--train", required=True)
    c.add_argument("--query", required=True)
    c.add_argument("--method", choices=[m for m in METHODS if m not in MULTIMODAL_METHODS],
                   default="MRSRC")
    c.add_argument("--lam", type=float, default=1e-3)
    c.add_argument("--mu", type=float, default=0.1)
    c.add_argument("--epsilon", type=float, default=1e-5)
    c.add_argument("--max-iter", type=int, default=1000, dest="max_iter")
    c.add_argument("--format", choices=["csv", "json"], default="csv")
    c.set_defaults(handler=_cmd_classify)

    b = sub.add_parser("bench", help="run a methods x noise x repeats sweep")
    b.add_argument("--config", required=True)
    b.add_argument("--seed", type=_seed, default=None, help="override the config seed")
    b.add_argument("--out", default=None, help="override the config output directory")
    b.add_argument("--format", choices=["csv", "json"], default="csv")
    b.set_defaults(handler=_cmd_bench)

    m = sub.add_parser("modecheck", help="estimate the mode of a residual sample file")
    m.add_argument("residuals", help="text file, one value per line")
    m.add_argument("--kernel", choices=["gaussian", "epanechnikov"], default="gaussian")
    m.add_argument("--sigma", type=float, default=1.0)
    m.add_argument("--grid-points", type=int, default=512, dest="grid_points")
    m.add_argument("--format", choices=["csv", "json"], default="csv")
    m.set_defaults(handler=_cmd_modecheck)
    return parser


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MrarcError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
