"""Experiment runner and command-line interface.

Subcommands: ``gen`` writes a synthetic dataset, ``classify`` labels a query
file against a training file, ``bench`` sweeps methods x noise levels x
repeats from a JSON config, and ``modecheck`` reports the estimated mode of a
residual sample file.  Exit codes: 0 on success, 2 for configuration
problems, 1 for runtime failures.

Benchmark rows are sorted by (method, noise level, repeat) and every random
draw is derived from the config seed, so a rerun of the same config writes
byte-identical outputs (set ``record_timing`` to false to zero the wall-time
column, which is otherwise the one nondeterministic field).
"""

import argparse
import json
import math
import sys
import time
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
    CSV,
    RAW,
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
from .solver import SolverConfig, SquaredLoss

CSV_HEADER = (
    "method,noise_level,repeat,accuracy,mean_solver_iters,converged_share,wall_time_ms"
)


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


def _require(cfg, field, types, where):
    if field not in cfg:
        raise ConfigError(f"{where}: missing required field '{field}'")
    value = cfg[field]
    if types is not None and not isinstance(value, types):
        raise ConfigError(f"{where}: field '{field}' has the wrong type")
    return value


def _optional(cfg, field, types, default, where):
    if field not in cfg or cfg[field] is None:
        return default
    value = cfg[field]
    if types is not None and not isinstance(value, types):
        raise ConfigError(f"{where}: field '{field}' has the wrong type")
    return value


def _parse_data(cfg):
    data = _require(cfg, "data", dict, "config")
    image_shape = _optional(data, "image_shape", list, None, "data")
    if image_shape is not None:
        if len(image_shape) != 2:
            raise ConfigError("data: field 'image_shape' must be [height, width]")
        image_shape = (int(image_shape[0]), int(image_shape[1]))
    if "synthetic" in data:
        syn = data["synthetic"]
        if not isinstance(syn, dict):
            raise ConfigError("data: field 'synthetic' must be an object")
        try:
            spec = SyntheticSpec(
                n_classes=int(_require(syn, "classes", (int,), "data.synthetic")),
                subspace_dim=int(_require(syn, "subspace_dim", (int,), "data.synthetic")),
                ambient_dim=int(_require(syn, "ambient_dim", (int,), "data.synthetic")),
                per_class_train=int(
                    _require(syn, "per_class_train", (int,), "data.synthetic")
                ),
                per_class_test=int(
                    _require(syn, "per_class_test", (int,), "data.synthetic")
                ),
                coeff_scale=float(
                    _optional(syn, "coeff_scale", (int, float), 1.0, "data.synthetic")
                ),
            )
        except MrarcError as exc:
            raise ConfigError(f"data.synthetic: {exc}") from exc
        if image_shape is not None and image_shape[0] * image_shape[1] != spec.ambient_dim:
            raise ConfigError("data: image_shape does not match ambient_dim")
        return spec, None, None, image_shape
    train = _require(data, "train", str, "data")
    test = _require(data, "test", str, "data")
    return None, train, test, image_shape


def _parse_noise(cfg):
    levels = _optional(cfg, "noise", list, [{"kind": "pixel_corruption", "fraction": 0.0}], "config")
    out = []
    for i, lv in enumerate(levels):
        where = f"noise[{i}]"
        if not isinstance(lv, dict):
            raise ConfigError(f"{where}: each noise level must be an object")
        kind = _require(lv, "kind", str, where)
        fraction = float(_require(lv, "fraction", (int, float), where))
        rng_pair = _optional(lv, "range", list, [0.0, 255.0], where)
        if len(rng_pair) != 2:
            raise ConfigError(f"{where}: field 'range' must be [lo, hi]")
        lo, hi = float(rng_pair[0]), float(rng_pair[1])
        try:
            if kind == "pixel_corruption":
                out.append(PixelCorruption(fraction, (lo, hi)))
            elif kind == "block_occlusion":
                fill = _optional(lv, "fill", str, "uniform", where)
                out.append(BlockOcclusion(fraction, fill, None, (lo, hi)))
            else:
                raise ConfigError(f"{where}: unknown noise kind {kind!r}")
        except MrarcError as exc:
            raise ConfigError(f"{where}: {exc}") from exc
    return tuple(out)


def _parse_methods(cfg):
    methods = _require(cfg, "methods", list, "config")
    if not methods:
        raise ConfigError("config: field 'methods' must not be empty")
    out = []
    for i, mc in enumerate(methods):
        where = f"methods[{i}]"
        if not isinstance(mc, dict):
            raise ConfigError(f"{where}: each method must be an object")
        name = _require(mc, "name", str, where)
        if name not in METHODS:
            raise ConfigError(f"{where}: unknown method name {name!r}")
        if name in MULTIMODAL_METHODS:
            raise ConfigError(
                f"{where}: method {name!r} needs multimodal data and is not "
                "available through the benchmark runner"
            )
        modal = name.startswith("MR")
        # every key is read off a copy, so whatever is left is one the
        # parser does not use
        rest = dict(mc)
        del rest["name"]

        def take(key, types, default):
            value = _optional(rest, key, types, default, where)
            rest.pop(key, None)
            return value

        lam = float(take("lam", (int, float), 1e-3))
        settings = dict(
            mu=float(take("mu", (int, float), 0.1)),
            epsilon=float(take("epsilon", (int, float), 1e-7)),
            max_iter=int(take("max_iter", int, 100_000)),
            hq_inner_tol=float(take("hq_inner_tol", (int, float), 1e-6)),
            hq_inner_max=int(take("hq_inner_max", int, 10)),
        )
        bandwidth = {key: take(key, (int, float), None) for key in ("sigma", "min_sigma")}
        for key in rest:
            raise ConfigError(f"{where}: unknown field '{key}'")
        for key, value in bandwidth.items():
            if value is not None and not modal:
                raise ConfigError(f"{where}: field '{key}' applies only to MR methods")
        try:
            loss = None
            if modal:
                loss = ModalLoss(
                    **{k: None if v is None else float(v) for k, v in bandwidth.items()}
                )
            spec = ClassifierSpec(name, lam, loss, SolverConfig(lam=lam, **settings))
        except (MrarcError, ValueError, TypeError) as exc:
            raise ConfigError(f"{where}: {exc}") from exc
        out.append(spec)
    return tuple(out)


def parse_experiment(cfg):
    """Build a validated ExperimentSpec from a decoded JSON object."""
    if not isinstance(cfg, dict):
        raise ConfigError("config: top level must be a JSON object")
    synthetic, train, test, image_shape = _parse_data(cfg)
    noise = _parse_noise(cfg)
    methods = _parse_methods(cfg)
    repeats = int(_optional(cfg, "repeats", int, 1, "config"))
    if repeats < 1:
        raise ConfigError("config: field 'repeats' must be at least 1")
    seed = int(_optional(cfg, "seed", int, 0, "config"))
    if seed < 0:
        raise ConfigError("config: field 'seed' must be nonnegative")
    record_timing = bool(_optional(cfg, "record_timing", bool, True, "config"))
    output = _optional(cfg, "output", str, None, "config")
    return ExperimentSpec(
        synthetic, train, test, image_shape, noise, methods,
        repeats, seed, record_timing, output,
    )


def load_experiment(path):
    """Read and validate a JSON experiment config from disk."""
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
    spec = parse_experiment(cfg)
    for p in (spec.train_path, spec.test_path):
        if p is not None:
            try:
                open(p, "rb").close()
            except OSError:
                raise ConfigError(f"config: referenced data file not found: {p}") from None
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
    rows = []
    errors = []
    file_data = None
    if spec.synthetic is None:
        train = load_matrix(spec.train_path)
        test = load_matrix(spec.test_path)
        if train.labels is None or test.labels is None:
            raise ConfigError("config: benchmark data files must carry labels")
        file_data = (train, test)
    for rep in range(spec.repeats):
        if spec.synthetic is not None:
            train, test = gen_subspace_data(
                replace(spec.synthetic, seed=spec.seed + rep)
            )
        else:
            train, test = file_data
        if spec.image_shape is not None:
            train = LabeledMatrix(train.samples, train.labels, spec.image_shape)
            test = LabeledMatrix(test.samples, test.labels, spec.image_shape)
        dictionary = Dictionary.from_samples(train.samples, train.labels)
        for li, template in enumerate(spec.noise):
            noisy = _apply_noise(test, template, _noise_seed(spec.seed, rep, li))
            for mspec in spec.methods:
                level = float(template.fraction)
                try:
                    t0 = time.perf_counter()
                    correct = 0
                    iter_total = 0
                    converged = 0
                    for q in range(noisy.n_samples):
                        res = classify(dictionary, noisy.samples[:, q], mspec)
                        iter_total += res.iterations
                        converged += bool(res.converged)
                        if res.label == int(noisy.labels[q]):
                            correct += 1
                    wall_ms = (time.perf_counter() - t0) * 1e3
                    nq = max(noisy.n_samples, 1)
                    rows.append(
                        {
                            "method": mspec.method,
                            "noise_level": level,
                            "repeat": rep,
                            "accuracy": correct / nq,
                            "mean_solver_iters": iter_total / nq,
                            "converged_share": converged / nq,
                            "wall_time_ms": wall_ms if spec.record_timing else 0.0,
                        }
                    )
                except MrarcError as exc:
                    errors.append(
                        {
                            "method": mspec.method,
                            "noise_level": level,
                            "repeat": rep,
                            "error": str(exc),
                        }
                    )
                    rows.append(
                        {
                            "method": mspec.method,
                            "noise_level": level,
                            "repeat": rep,
                            "accuracy": math.nan,
                            "mean_solver_iters": math.nan,
                            "converged_share": math.nan,
                            "wall_time_ms": 0.0,
                        }
                    )
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
        finite = [a for a in accs if not math.isnan(a)]
        stats = (
            {
                "mean": sum(finite) / len(finite),
                "min": min(finite),
                "max": max(finite),
            }
            if finite
            else {"mean": math.nan, "min": math.nan, "max": math.nan}
        )
        summary_cells.append(
            {"method": method, "noise_level": level, "accuracy": stats}
        )
    return {"cells": summary_cells, "errors": errors}


def format_rows_csv(rows):
    lines = [CSV_HEADER]
    for r in rows:
        lines.append(
            "{method},{level:g},{rep},{acc:.6f},{it:.2f},{conv:.6f},{wall:.3f}".format(
                method=r["method"],
                level=r["noise_level"],
                rep=r["repeat"],
                acc=r["accuracy"],
                it=r["mean_solver_iters"],
                conv=r["converged_share"],
                wall=r["wall_time_ms"],
            )
        )
    return "\n".join(lines) + "\n"


def _write_outputs(rows, summary, out_dir):
    import os

    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "results.csv"), "w") as fh:
        fh.write(format_rows_csv(rows))
    with open(os.path.join(out_dir, "summary.json"), "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------


def _cmd_gen(args):
    import os

    cfg = {}
    if args.config is not None:
        try:
            with open(args.config) as fh:
                cfg = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {args.config}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {args.config} is not valid JSON: {exc}") from exc
        if not isinstance(cfg, dict):
            raise ConfigError("config: top level must be a JSON object")
    where = "gen config"
    try:
        spec = SyntheticSpec(
            n_classes=int(_optional(cfg, "classes", int, 5, where)),
            subspace_dim=int(_optional(cfg, "subspace_dim", int, 3, where)),
            ambient_dim=int(_optional(cfg, "ambient_dim", int, 64, where)),
            per_class_train=int(_optional(cfg, "per_class_train", int, 10, where)),
            per_class_test=int(_optional(cfg, "per_class_test", int, 5, where)),
            coeff_scale=float(_optional(cfg, "coeff_scale", (int, float), 1.0, where)),
            seed=args.seed,
        )
    except MrarcError as exc:
        raise ConfigError(f"{where}: {exc}") from exc
    train, test = gen_subspace_data(spec)
    os.makedirs(args.out, exist_ok=True)
    ext = "raw" if args.format == "raw" else "csv"
    fmt = RAW if ext == "raw" else CSV
    save_matrix(train, os.path.join(args.out, f"train.{ext}"), fmt)
    save_matrix(test, os.path.join(args.out, f"test.{ext}"), fmt)
    meta = {
        "classes": spec.n_classes,
        "subspace_dim": spec.subspace_dim,
        "ambient_dim": spec.ambient_dim,
        "per_class_train": spec.per_class_train,
        "per_class_test": spec.per_class_test,
        "coeff_scale": spec.coeff_scale,
        "seed": spec.seed,
        "format": ext,
    }
    with open(os.path.join(args.out, "meta.json"), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"wrote train.{ext}, test.{ext}, meta.json to {args.out}")
    return 0


def _cmd_classify(args):
    try:
        solver = SolverConfig(
            lam=args.lam, mu=args.mu, epsilon=args.epsilon, max_iter=args.max_iter
        )
        spec = ClassifierSpec(args.method, args.lam, None, solver)
    except ValueError as exc:
        raise ConfigError(f"classify: {exc}") from exc
    try:
        train, query = load_matrix(args.train), load_matrix(args.query)
    except OSError as exc:
        raise ConfigError(f"cannot read {exc.filename}: {exc.strerror}") from None
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
    out_dir = args.out if args.out is not None else spec.output
    rows, summary = run_experiment(spec, out_dir)
    if args.format == "json":
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        sys.stdout.write(format_rows_csv(rows))
    return 0


def _load_residuals(path):
    values = []
    try:
        fh = open(path)
    except FileNotFoundError:
        raise ConfigError(f"residual file not found: {path}") from None
    with fh:
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
        try:
            kernel = Kernel.gaussian(args.sigma)
        except ValueError as exc:
            raise ConfigError(f"modecheck: {exc}") from exc
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
    g.add_argument("--seed", type=int, default=0)
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
    b.add_argument("--seed", type=int, default=None, help="override the config seed")
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
