"""Config parsing, the experiment runner, and the command-line entry points."""

import json
import math

import numpy as np
import pytest

from mrarc import cli
from mrarc.cli import (
    CSV_HEADER,
    format_rows_csv,
    load_experiment,
    main,
    parse_experiment,
    run_experiment,
)
from mrarc.data import LabeledMatrix, load_matrix, save_matrix
from mrarc.errors import ConfigError, MrarcError


def _base_config(**overrides):
    cfg = {
        "data": {
            "synthetic": {
                "classes": 3,
                "subspace_dim": 2,
                "ambient_dim": 16,
                "per_class_train": 5,
                "per_class_test": 2,
            }
        },
        "methods": [{"name": "CRC"}],
        "noise": [{"kind": "pixel_corruption", "fraction": 0.0}],
        "repeats": 1,
        "seed": 3,
        "record_timing": False,
    }
    cfg.update(overrides)
    return cfg


# ---------------------------------------------------------------------------
# config parsing
# ---------------------------------------------------------------------------


def test_csv_header_names_seven_columns():
    assert CSV_HEADER == (
        "method,noise_level,repeat,accuracy,mean_solver_iters,converged_share,wall_time_ms"
    )


def test_parse_experiment_fills_defaults():
    spec = parse_experiment(
        {
            "data": {
                "synthetic": {
                    "classes": 2,
                    "subspace_dim": 1,
                    "ambient_dim": 8,
                    "per_class_train": 3,
                    "per_class_test": 1,
                }
            },
            "methods": [{"name": "CRC"}],
        }
    )
    assert spec.repeats == 1
    assert spec.seed == 0
    assert spec.record_timing is True
    assert spec.output is None
    assert len(spec.noise) == 1
    assert spec.noise[0].fraction == 0.0


def test_parse_experiment_rejects_non_object():
    with pytest.raises(ConfigError):
        parse_experiment([1, 2, 3])


def test_missing_required_fields_name_the_field():
    with pytest.raises(ConfigError, match="data"):
        parse_experiment({"methods": [{"name": "CRC"}]})
    with pytest.raises(ConfigError, match="methods"):
        parse_experiment({"data": {"train": "a.csv", "test": "b.csv"}})


def test_unknown_method_rejected():
    with pytest.raises(ConfigError, match=r"methods\[0\]"):
        parse_experiment(_base_config(methods=[{"name": "FOO"}]))


def test_multimodal_method_rejected_by_runner():
    with pytest.raises(ConfigError, match="MRJSRC"):
        parse_experiment(_base_config(methods=[{"name": "MRJSRC"}]))


def test_empty_method_list_rejected():
    with pytest.raises(ConfigError, match="methods"):
        parse_experiment(_base_config(methods=[]))


def test_unknown_noise_kind_rejected():
    bad = [{"kind": "salt_and_pepper", "fraction": 0.1}]
    with pytest.raises(ConfigError, match=r"noise\[0\]"):
        parse_experiment(_base_config(noise=bad))


def test_noise_range_must_have_two_entries():
    bad = [{"kind": "pixel_corruption", "fraction": 0.1, "range": [0, 1, 2]}]
    with pytest.raises(ConfigError, match="range"):
        parse_experiment(_base_config(noise=bad))


def test_image_shape_must_match_ambient_dim():
    cfg = _base_config()
    cfg["data"]["image_shape"] = [4, 5]  # 20 != 16
    with pytest.raises(ConfigError, match="image_shape"):
        parse_experiment(cfg)


def test_image_shape_needs_two_entries():
    cfg = _base_config()
    cfg["data"]["image_shape"] = [16]
    with pytest.raises(ConfigError, match="image_shape"):
        parse_experiment(cfg)


def test_repeats_and_seed_validated():
    with pytest.raises(ConfigError, match="repeats"):
        parse_experiment(_base_config(repeats=0))
    with pytest.raises(ConfigError, match="seed"):
        parse_experiment(_base_config(seed=-1))


def test_bad_synthetic_counts_become_config_errors():
    cfg = _base_config()
    cfg["data"]["synthetic"]["classes"] = 0
    with pytest.raises(ConfigError, match="data.synthetic"):
        parse_experiment(cfg)


def test_bad_method_settings_become_config_errors():
    with pytest.raises(ConfigError, match=r"methods\[0\]"):
        parse_experiment(_base_config(methods=[{"name": "SRC", "lam": -1.0}]))
    # Python's json accepts Infinity, so the parser must reject it itself
    for field in ("lam", "min_sigma"):
        method = json.loads(f'{{"name": "MRSRC", "{field}": Infinity}}')
        with pytest.raises(ConfigError, match=field):
            parse_experiment(_base_config(methods=[method]))


def test_modal_method_bandwidth_options():
    spec = parse_experiment(
        _base_config(methods=[{"name": "MRSRC", "sigma": 0.5}])
    )
    loss = spec.methods[0].loss
    assert loss.sigma == 0.5
    assert loss.min_sigma is None
    spec = parse_experiment(
        _base_config(methods=[{"name": "MRSRC", "min_sigma": 0.01}])
    )
    loss = spec.methods[0].loss
    assert loss.sigma is None
    assert loss.min_sigma == 0.01


def test_modal_method_rejects_fixed_sigma_with_a_floor():
    # a floor only bounds an adaptive bandwidth; it must not be dropped silently
    cfg = _base_config(methods=[
        {"name": "SRC"}, {"name": "MRSRC", "sigma": 0.5, "min_sigma": 0.01},
    ])
    with pytest.raises(ConfigError, match=r"methods\[1\].*min_sigma"):
        parse_experiment(cfg)


def test_method_keys_the_parser_does_not_use_are_rejected():
    # a misspelt key must not fall back to a default without a word
    cases = [
        ({"name": "SRC", "sigma": 0.5}, "sigma"),
        ({"name": "CRC", "min_sigma": 0.1}, "min_sigma"),
        ({"name": "MRSRC", "min_sgima": 0.1}, "min_sgima"),
        ({"name": "SRC", "bogus": 1}, "bogus"),
    ]
    for method, key in cases:
        cfg = _base_config(methods=[{"name": "LRC"}, method])
        with pytest.raises(ConfigError, match=rf"methods\[1\].*'{key}'"):
            parse_experiment(cfg)


def test_load_experiment_missing_file_names_path(tmp_path):
    path = tmp_path / "nope.json"
    with pytest.raises(ConfigError, match="nope.json"):
        load_experiment(str(path))


def test_load_experiment_rejects_invalid_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_experiment(str(path))


def test_load_experiment_checks_referenced_data_files(tmp_path):
    cfg = _base_config()
    cfg["data"] = {"train": str(tmp_path / "train.csv"), "test": str(tmp_path / "test.csv")}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with pytest.raises(ConfigError, match="train.csv"):
        load_experiment(str(path))


# ---------------------------------------------------------------------------
# experiment runner
# ---------------------------------------------------------------------------


def test_noise_seeds_distinct_per_cell():
    seeds = {
        cli._noise_seed(11, rep, li) for rep in range(5) for li in range(4)
    }
    assert len(seeds) == 20


def test_row_cardinality_and_sort_order():
    cfg = _base_config(
        methods=[{"name": "LRC"}, {"name": "CRC"}],
        noise=[
            {"kind": "pixel_corruption", "fraction": 0.0},
            {"kind": "pixel_corruption", "fraction": 0.1, "range": [-1, 1]},
        ],
        repeats=2,
    )
    rows, summary = run_experiment(parse_experiment(cfg))
    assert len(rows) == 2 * 2 * 2
    keys = [(r["method"], r["noise_level"], r["repeat"]) for r in rows]
    assert keys == sorted(keys)
    assert keys[0][0] == "CRC"
    assert summary["errors"] == []
    assert len(summary["cells"]) == 4


def test_rows_deterministic_without_timing():
    cfg = parse_experiment(_base_config(methods=[{"name": "CRC"}], repeats=2))
    rows_a, _ = run_experiment(cfg)
    rows_b, _ = run_experiment(cfg)
    assert rows_a == rows_b
    assert all(r["wall_time_ms"] == 0.0 for r in rows_a)


def test_clean_separable_data_is_perfectly_classified():
    cfg = _base_config(
        methods=[{"name": "SRC", "epsilon": 1e-5, "max_iter": 2000}]
    )
    rows, summary = run_experiment(parse_experiment(cfg))
    assert len(rows) == 1
    assert rows[0]["accuracy"] == 1.0
    assert summary["cells"][0]["accuracy"]["mean"] == 1.0


def test_rows_report_the_converged_share():
    cfg = _base_config(
        methods=[
            {"name": "CRC"},
            {"name": "SRC", "epsilon": 1e-5, "max_iter": 2000},
            {"name": "SRC", "epsilon": 1e-12, "max_iter": 2},
        ]
    )
    rows, _ = run_experiment(parse_experiment(cfg))
    crc, src_done, src_cut = rows
    assert crc["converged_share"] == 1.0  # a closed form always converges
    assert src_done["converged_share"] == 1.0
    assert src_cut["converged_share"] == 0.0
    assert src_cut["mean_solver_iters"] == 2.0


def test_failed_cell_becomes_nan_row(monkeypatch):
    def boom(dictionary, y, spec):
        raise MrarcError("synthetic failure")

    monkeypatch.setattr(cli, "classify", boom)
    rows, summary = run_experiment(parse_experiment(_base_config()))
    assert len(rows) == 1
    assert math.isnan(rows[0]["accuracy"])
    assert math.isnan(rows[0]["converged_share"])
    assert summary["errors"][0]["error"] == "synthetic failure"
    assert math.isnan(summary["cells"][0]["accuracy"]["mean"])


def test_non_finite_query_fails_only_its_cell(monkeypatch):
    real = cli._apply_noise

    def nan_at_level_zero(test, template, seed):
        noisy = real(test, template, seed)
        if template.fraction == 0.0:
            noisy.samples[0, 0] = np.nan
        return noisy

    monkeypatch.setattr(cli, "_apply_noise", nan_at_level_zero)
    noise = [{"kind": "pixel_corruption", "fraction": f} for f in (0.0, 0.1)]
    rows, summary = run_experiment(parse_experiment(_base_config(noise=noise)))
    by_level = {r["noise_level"]: r["accuracy"] for r in rows}
    assert math.isnan(by_level[0.0])
    assert 0.0 <= by_level[0.1] <= 1.0
    assert [e["noise_level"] for e in summary["errors"]] == [0.0]
    assert "NaN or Inf" in summary["errors"][0]["error"]


def test_format_rows_csv_layout():
    rows = [
        {
            "method": "CRC",
            "noise_level": 0.1,
            "repeat": 0,
            "accuracy": 0.875,
            "mean_solver_iters": 12.5,
            "converged_share": 0.75,
            "wall_time_ms": 0.0,
        }
    ]
    text = format_rows_csv(rows)
    assert text == CSV_HEADER + "\nCRC,0.1,0,0.875000,12.50,0.750000,0.000\n"


def test_summary_aggregates_over_repeats(monkeypatch):
    rows = [
        {"method": "CRC", "noise_level": 0.0, "repeat": r, "accuracy": a,
         "mean_solver_iters": 0.0, "converged_share": 1.0, "wall_time_ms": 0.0}
        for r, a in enumerate([0.5, 1.0, 0.75])
    ]
    summary = cli._summarize(rows, [])
    stats = summary["cells"][0]["accuracy"]
    assert stats["mean"] == 0.75
    assert stats["min"] == 0.5
    assert stats["max"] == 1.0


def test_file_backed_experiment_requires_labels(tmp_path):
    rng = np.random.default_rng(0)
    samples = rng.standard_normal((6, 4))
    save_matrix(LabeledMatrix(samples, None), str(tmp_path / "train.raw"))
    save_matrix(LabeledMatrix(samples, None), str(tmp_path / "test.raw"))
    cfg = _base_config()
    cfg["data"] = {"train": str(tmp_path / "train.raw"), "test": str(tmp_path / "test.raw")}
    with pytest.raises(ConfigError, match="labels"):
        run_experiment(parse_experiment(cfg))


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------


def test_bench_outputs_are_byte_identical_across_runs(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config(repeats=2)))
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["bench", "--config", str(cfg_path), "--out", str(out_a)]) == 0
    first = capsys.readouterr().out
    assert main(["bench", "--config", str(cfg_path), "--out", str(out_b)]) == 0
    second = capsys.readouterr().out
    assert first == second
    assert first.startswith(CSV_HEADER + "\n")
    assert (out_a / "results.csv").read_bytes() == (out_b / "results.csv").read_bytes()
    assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
    # stdout CSV and the file are the same bytes
    assert (out_a / "results.csv").read_text() == first


def test_bench_json_format_prints_summary(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config()))
    assert main(["bench", "--config", str(cfg_path), "--format", "json"]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["errors"] == []
    assert summary["cells"][0]["method"] == "CRC"


def test_bench_seed_override_changes_rows(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_base_config(noise=[
        {"kind": "pixel_corruption", "fraction": 0.6, "range": [-3, 3]},
    ])))
    assert main(["bench", "--config", str(cfg_path)]) == 0
    base = capsys.readouterr().out
    assert main(["bench", "--config", str(cfg_path), "--seed", "99"]) == 0
    other = capsys.readouterr().out
    assert base != other


def test_main_exit_code_for_config_problems(tmp_path, capsys):
    assert main(["bench", "--config", str(tmp_path / "missing.json")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "missing.json" in err

    bad = tmp_path / "bad.json"
    bad.write_text("[1,")
    assert main(["bench", "--config", str(bad)]) == 2

    out = tmp_path / "data"
    assert main(["gen", "--out", str(out), "--seed", "1"]) == 0
    train, query = str(out / "train.csv"), str(out / "test.csv")
    resid = tmp_path / "resid.txt"
    resid.write_text("0.1\n0.2\n0.4\n")
    capsys.readouterr()
    for argv in (
        ["classify", "--train", train, "--query", query, "--lam", "-1"],
        ["classify", "--train", train, "--query", query, "--max-iter", "0"],
        ["classify", "--train", str(tmp_path / "no.csv"), "--query", query],
        ["classify", "--train", train, "--query", str(tmp_path / "no.csv")],
        ["modecheck", str(resid), "--sigma", "-1"],
        ["modecheck", str(resid), "--grid-points", "2"],
    ):
        assert main(argv) == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:"), argv


def test_main_reports_non_finite_input_without_a_traceback(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["gen", "--out", str(out), "--seed", "1"]) == 0
    rows = (out / "train.csv").read_text().splitlines()
    rows[0] = ",".join(["inf"] + rows[0].split(",")[1:])
    train = tmp_path / "train_inf.csv"
    train.write_text("\n".join(rows) + "\n")
    resid = tmp_path / "resid.txt"
    resid.write_text("0.1\nnan\n0.4\n")
    capsys.readouterr()
    for argv in (
        ["modecheck", str(resid)],
        ["classify", "--train", str(train), "--query", str(out / "test.csv")],
    ):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error:"), argv
        assert "NaN or Inf" in err, argv


def test_main_exit_code_for_runtime_failures(tmp_path, capsys):
    garbage = tmp_path / "train.raw"
    garbage.write_bytes(b"NOTMAGIC" + b"\x00" * 32)
    query = tmp_path / "query.raw"
    query.write_bytes(b"\x00")
    code = main([
        "classify", "--train", str(garbage), "--query", str(query),
        "--method", "SRC",
    ])
    assert code == 1
    assert capsys.readouterr().err.startswith("error:")


def test_gen_twice_writes_identical_files(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({
        "classes": 3, "subspace_dim": 2, "ambient_dim": 12,
        "per_class_train": 4, "per_class_test": 2,
    }))
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        assert main(["gen", "--config", str(cfg), "--seed", "7",
                     "--out", str(d)]) == 0
        capsys.readouterr()
    for name in ("train.csv", "test.csv", "meta.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_gen_then_classify_recovers_planted_labels(tmp_path, capsys):
    cfg = tmp_path / "gen.json"
    cfg.write_text(json.dumps({
        "classes": 3, "subspace_dim": 2, "ambient_dim": 24,
        "per_class_train": 6, "per_class_test": 2,
    }))
    out = tmp_path / "data"
    assert main(["gen", "--config", str(cfg), "--seed", "5",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main([
        "classify", "--train", str(out / "train.csv"),
        "--query", str(out / "test.csv"), "--method", "SRC",
        "--format", "json",
    ]) == 0
    predicted = json.loads(capsys.readouterr().out)
    truth = load_matrix(str(out / "test.csv")).labels
    assert predicted == [int(t) for t in truth]


def test_classify_plain_format_prints_one_label_per_line(tmp_path, capsys):
    out = tmp_path / "data"
    assert main(["gen", "--out", str(out), "--seed", "2", "--config",
                 str(_write_json(tmp_path, {"classes": 2, "subspace_dim": 1,
                                            "ambient_dim": 8,
                                            "per_class_train": 3,
                                            "per_class_test": 1}))]) == 0
    capsys.readouterr()
    assert main([
        "classify", "--train", str(out / "train.csv"),
        "--query", str(out / "test.csv"), "--method", "CRC",
    ]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2
    assert all(line in {"0", "1"} for line in lines)


def _write_json(tmp_path, obj):
    path = tmp_path / "gen.json"
    path.write_text(json.dumps(obj))
    return path


def test_classify_rejects_unlabeled_training_file(tmp_path, capsys):
    rng = np.random.default_rng(0)
    train = tmp_path / "train.raw"
    query = tmp_path / "query.raw"
    save_matrix(LabeledMatrix(rng.standard_normal((6, 4)), None), str(train))
    save_matrix(LabeledMatrix(rng.standard_normal((6, 2)), None), str(query))
    assert main(["classify", "--train", str(train), "--query", str(query)]) == 2
    assert "labels" in capsys.readouterr().err


def test_modecheck_finds_dominant_mode(tmp_path, capsys):
    rng = np.random.default_rng(42)
    values = np.concatenate([
        rng.normal(0.0, 0.1, 900),
        rng.normal(5.0, 0.1, 100),
    ])
    path = tmp_path / "resid.txt"
    path.write_text("\n".join(f"{v:.12g}" for v in values) + "\n")
    assert main(["modecheck", str(path), "--sigma", "0.1",
                 "--format", "json"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert abs(report["mode"]) < 0.05
    assert report["density"] > 1.0


def test_modecheck_plain_output_and_bad_inputs(tmp_path, capsys):
    path = tmp_path / "resid.txt"
    path.write_text("0.1\n0.2, 0.15\n")
    assert main(["modecheck", str(path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("mode ")
    assert "density " in out

    assert main(["modecheck", str(tmp_path / "nope.txt")]) == 2
    capsys.readouterr()

    bad = tmp_path / "bad.txt"
    bad.write_text("0.5\nnot-a-number\n")
    assert main(["modecheck", str(bad)]) == 2
    assert "line 2" in capsys.readouterr().err
