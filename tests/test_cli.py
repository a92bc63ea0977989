import contextlib
import csv
import dataclasses
import importlib
import importlib.util
import io
import json
import os
import struct
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cnflow import cli, datasets, flows, methods, metrics, training
from cnflow.datasets import gen_gaussian, save_features
from cnflow.flows import FlowConfig
from cnflow.training import TrainConfig

# file headers and the bit width of each field after the magic (None: float64)
HEADERS = {".cftr": (struct.Struct("<4sHIQB"), (16, 32, 64, 8)),
           ".cflw": (struct.Struct("<4sHIHId"), (16, 32, 16, 32, None))}


def _with_header_field(src, dst, index, value):
    """Copy src to dst with header field `index` (0 = magic) set to value."""
    raw = bytearray(src.read_bytes())
    head = HEADERS[src.suffix][0]
    fields = list(head.unpack_from(raw))
    fields[index] = value
    head.pack_into(raw, 0, *fields)
    dst.write_bytes(bytes(raw))

FAST_TOY1D = {
    "n_train": 4000,
    "n_contrastive": 4000,
    "grid": {"lo": -6.0, "hi": 6.0, "n": 801},
    "model": {"n_blocks": 4, "hidden_width": 8},
    "train": {"batch_size": 1024, "max_epochs": 15},
}


def run_cli(argv):
    return cli.main(argv)


def test_toy1d_writes_artifacts(tmp_path):
    cfg = cli.load_config("toy1d", None, {"out": str(tmp_path), "seed": 0})
    cfg = cli._merge(cfg, FAST_TOY1D)
    result = cli.run_toy1d(cfg)
    assert (tmp_path / "learned_density.csv").exists()
    assert (tmp_path / "oracle_density.csv").exists()
    payload = json.loads((tmp_path / "tv.json").read_text())
    assert payload["oracle_integral"] == pytest.approx(1.0, abs=1e-6)
    assert 0.0 <= payload["tv"] <= 1.0
    assert result["tv"] == payload["tv"]


def test_toy1d_seed_repeat_identical_files(tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    for out in (out_a, out_b):
        cfg = cli.load_config("toy1d", None, {"out": str(out), "seed": 3})
        cfg = cli._merge(cfg, FAST_TOY1D)
        cli.run_toy1d(cfg)
    for name in ("learned_density.csv", "oracle_density.csv", "tv.json"):
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_clamp_sweep_files_per_epsilon(tmp_path):
    cfg = cli.load_config("clamp-sweep", None, {"out": str(tmp_path), "seed": 0})
    cfg = cli._merge(cfg, FAST_TOY1D)
    cfg["epsilons"] = [0.0, -3.0, -6.0]
    results = cli.run_clamp_sweep(cfg)
    assert len(results) == 3
    for k in range(3):
        assert (tmp_path / f"learned_density_eps{k}.csv").exists()
    tvs = json.loads((tmp_path / "tvs.json").read_text())
    assert [row["epsilon"] for row in tvs] == [0.0, -3.0, -6.0]


def test_toy2d_artifacts_and_grid_range(tmp_path):
    cfg = cli.load_config("toy2d", None, {"out": str(tmp_path), "seed": 0})
    cfg = cli._merge(cfg, {"n_train": 2000, "n_contrastive": 2000,
                           "grid": {"lo": -6.0, "hi": 6.0, "n": 13},
                           "model": {"n_blocks": 4, "hidden_width": 16},
                           "train": {"batch_size": 512, "max_epochs": 8}})
    summary = cli.run_toy2d(cfg)
    for name in ("cf_grid.csv", "ratio_grid.csv", "samples.csv", "summary.json"):
        assert (tmp_path / name).exists()
    rows = (tmp_path / "cf_grid.csv").read_text().strip().splitlines()
    assert rows[0] == "x,y,density"
    vals = np.array([[float(v) for v in r.split(",")] for r in rows[1:]])
    assert vals[:, 0].min() == -6.0 and vals[:, 0].max() == 6.0
    assert np.all(vals[:, 2] >= 0.0)
    ratio_rows = (tmp_path / "ratio_grid.csv").read_text().strip().splitlines()
    ratio_vals = np.array([[float(v) for v in r.split(",")] for r in ratio_rows[1:]])
    assert np.all(ratio_vals[:, 2] >= 0.0)
    assert summary["cf_corner"] >= 0.0


def _mini_sweep_cfg(out, variant="contaminated"):
    return {
        "out": str(out),
        "seed": 0,
        "reps": 2,
        "variant": variant,
        "mu_grid": [0.0, 1.0],
        "methods": ["cf"],
        "contrastive_total": 400,
        "bench": {"dim": 4, "seed": 1, "n_train": 400, "n_test": 120, "n_pool": 800},
        "model": {"n_blocks": 3, "hidden_width": 16},
        "train": {"batch_size": 128, "max_epochs": 6, "patience": 4,
                  "val_fraction": 0.1, "clamp_tau": 12.0},
    }


def test_mu_sweep_table_columns(tmp_path):
    cfg = cli.load_config("mu-sweep", None, {"out": str(tmp_path)})
    cfg = cli._merge(cfg, _mini_sweep_cfg(tmp_path))
    rows = cli.run_mu_sweep(cfg)
    table = (tmp_path / "mu_sweep.csv").read_text().strip().splitlines()
    assert table[0] == "method,mu,auroc_hard,auroc_rest,sd"
    assert len(table) == 1 + len(rows)
    assert {r["method"] for r in rows} == {"cf"}
    assert sorted({r["mu"] for r in rows}) == [0.0, 1.0]


def test_mu_sweep_rejects_unknown_method(tmp_path):
    cfg = cli.load_config("mu-sweep", None, {"out": str(tmp_path)})
    cfg = cli._merge(cfg, _mini_sweep_cfg(tmp_path))
    cfg["methods"] = ["nope"]
    with pytest.raises(Exception):
        cli.run_mu_sweep(cfg)


def test_tabular_report_lists_all_methods(tmp_path):
    cfg = cli.load_config("tabular", None, {"out": str(tmp_path), "seed": 0})
    cfg = cli._merge(cfg, {
        "synthetic": {"dim": 4, "n_inlier": 2000, "n_outlier": 200},
        "model": {"n_blocks": 4, "hidden_width": 24},
        "train": {"batch_size": 256, "max_epochs": 30, "patience": 20,
                  "val_fraction": 0.1, "clamp_tau": 12.0},
    })
    report = cli.run_tabular(cfg)
    assert set(report) == {"nll_flow", "cf", "flow_ratio"}
    payload = json.loads((tmp_path / "tabular_report.json").read_text())
    assert set(payload) == set(report)
    # correlated inliers vs isotropic outliers: the plain density model must
    # separate well, and the marginal-permutation contrastive flow must stay
    # within 5 points of it
    assert report["nll_flow"]["auroc_pct"] > 90.0
    assert abs(report["cf"]["auroc_pct"] - report["nll_flow"]["auroc_pct"]) < 5.0


def test_train_score_eval_pipeline(tmp_path):
    # two separated clusters; the full file pipeline must reproduce the
    # in-process AUROC bit for bit
    inl = gen_gaussian([2.0, 0.0, 0.0], 0.4, 800, seed=0)
    contr = gen_gaussian([0.0, 0.0, 0.0], 2.0, 800, seed=1)
    outl = gen_gaussian([-2.0, 0.0, 0.0], 0.4, 300, seed=2)
    data_dir = tmp_path / "data"
    data_dir.mkdir()
    save_features(inl, data_dir / "inl.cftr")
    save_features(contr, data_dir / "contr.cftr")
    save_features(outl, data_dir / "outl.cftr")
    save_features(inl, data_dir / "inl_test.cftr")

    train_out = tmp_path / "train"
    rc = run_cli(["train", "--out", str(train_out), "--seed", "5", "--config",
                  str(_write_cfg(tmp_path, {
                      "data_path": str(data_dir / "inl.cftr"),
                      "contrastive_path": str(data_dir / "contr.cftr"),
                      "objective": "contrastive",
                      "model": {"n_blocks": 3, "hidden_width": 16},
                      "train": {"batch_size": 256, "max_epochs": 40, "patience": 30,
                                "clamp_tau": 12.0},
                  }))])
    assert rc == 0
    model_path = train_out / "model.cflw"
    assert model_path.exists()

    score_out = tmp_path / "scores"
    for name, path in (("in", data_dir / "inl_test.cftr"), ("out", data_dir / "outl.cftr")):
        rc = run_cli(["score", "--out", str(score_out / name), "--config",
                      str(_write_cfg(tmp_path, {
                          "model_path": str(model_path),
                          "data_path": str(path),
                      }, name=f"score_{name}.json"))])
        assert rc == 0

    eval_out = tmp_path / "eval"
    rc = run_cli(["eval", "--out", str(eval_out), "--config",
                  str(_write_cfg(tmp_path, {
                      "inlier_scores": str(score_out / "in" / "scores.csv"),
                      "outlier_scores": str(score_out / "out" / "scores.csv"),
                  }, name="eval.json"))])
    assert rc == 0
    report = json.loads((eval_out / "report.json").read_text())

    # in-process reference on the same model and data
    model = flows.load_model(model_path)
    s_in = metrics.outlier_score(model, datasets.load_features(data_dir / "inl_test.cftr").data)
    s_out = metrics.outlier_score(model, outl.data)
    assert report["auroc"] == pytest.approx(metrics.auroc(s_in, s_out), abs=1e-12)
    assert report["auroc"] > 0.95


def test_score_dim_mismatch_exit_code_2(tmp_path):
    inl = gen_gaussian([0.0, 0.0], 1.0, 50, seed=0)
    save_features(inl, tmp_path / "d2.cftr")
    model = flows.init_model(3, n_blocks=2, hidden_width=4, seed=0)
    flows.save_model(model, tmp_path / "m3.cflw")
    rc = run_cli(["score", "--out", str(tmp_path / "out"), "--config",
                  str(_write_cfg(tmp_path, {
                      "model_path": str(tmp_path / "m3.cflw"),
                      "data_path": str(tmp_path / "d2.cftr"),
                  }, name="mismatch.json"))])
    assert rc == 2


def test_eval_fixture_auroc(tmp_path):
    (tmp_path / "in.csv").write_text("score\n1\n3\n")
    (tmp_path / "out.csv").write_text("score\n2\n4\n")
    rc = run_cli(["eval", "--out", str(tmp_path / "ev"), "--config",
                  str(_write_cfg(tmp_path, {
                      "inlier_scores": str(tmp_path / "in.csv"),
                      "outlier_scores": str(tmp_path / "out.csv"),
                  }, name="ev.json"))])
    assert rc == 0
    report = json.loads((tmp_path / "ev" / "report.json").read_text())
    assert report["auroc"] == 0.75


def test_missing_input_exit_code_3(tmp_path):
    rc = run_cli(["score", "--out", str(tmp_path), "--config",
                  str(_write_cfg(tmp_path, {
                      "model_path": str(tmp_path / "absent.cflw"),
                      "data_path": str(tmp_path / "absent.cftr"),
                  }, name="absent.json"))])
    assert rc == 3


def test_unknown_config_key_exit_code_2(tmp_path):
    rc = run_cli(["toy1d", "--out", str(tmp_path), "--config",
                  str(_write_cfg(tmp_path, {"bogus_key": 1}, name="bogus.json"))])
    assert rc == 2


def _class_files(tmp_path, class_sets, names=None):
    """Paths of class feature files holding class_sets, named by names."""
    paths = [str(tmp_path / f"{name}.cftr")
             for name in names or (f"class{i}" for i in range(len(class_sets)))]
    for fs, path in zip(class_sets, paths):
        save_features(fs, path)
    return paths


def _report(tmp_path, class_paths, names=("mse",)):
    """report on the class files with the named methods, and its confusion
    CSVs as csv.reader reads them, keyed by method."""
    cfg = cli.load_config("report", None, {"out": str(tmp_path / "out"), "seed": 0,
                                           "class_paths": class_paths, "methods": list(names)})
    summary = cli.run_report(cfg)
    tables = {}
    for m in names:
        with open(tmp_path / "out" / f"confusion_{m}.csv", newline="") as fh:
            tables[m] = list(csv.reader(fh))
    return summary, tables


def _auroc_cells(table) -> np.ndarray:
    """The AUROC cells (percent) of a confusion table, one row per class,
    without the empty diagonal and the row mean."""
    return np.array([[float(c) for c in row[1:-1] if c] for row in table[1:]])


def test_report_separated_clusters_read_above_95(tmp_path):
    centers = [[4.0, 0.0], [-4.0, 0.0], [0.0, 4.0]]
    paths = _class_files(tmp_path, [gen_gaussian(c, 0.3, 300, seed=10 + i)
                                    for i, c in enumerate(centers)])
    summary, tables = _report(tmp_path, paths)
    cells = _auroc_cells(tables["mse"])
    assert cells.shape == (3, 2)
    assert np.all(cells > 95.0)
    assert all(v > 95.0 for v in summary["mse"]["row_means_pct"])


def test_report_identical_clusters_read_near_chance(tmp_path):
    paths = _class_files(tmp_path, [gen_gaussian([0.0, 0.0], 1.0, 1500, seed=20 + i)
                                    for i in range(2)])
    _, tables = _report(tmp_path, paths)
    assert np.all(np.abs(_auroc_cells(tables["mse"]) - 50.0) < 5.0)


def test_report_of_one_class_exits_2_before_any_fit(tmp_path, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a method was fitted for a report of one class")

    monkeypatch.setattr(cli, "fit_method", no_fit)
    paths = _class_files(tmp_path, [gen_gaussian([0.0], 1.0, 10, seed=0)])
    rc = run_cli(["report", "--method", "mse", "--out", str(tmp_path / "out"), "--config",
                  str(_write_cfg(tmp_path, {"class_paths": paths}))])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("invalid input:") and "at least 2 classes" in err
    assert len(err.strip().splitlines()) == 1


def test_report_quotes_a_class_name_that_holds_a_comma(tmp_path):
    # the unquoted name once gave a row one field more than the header
    paths = _class_files(tmp_path, [gen_gaussian([2.0 * i, 0.0], 0.5, 100, seed=i)
                                    for i in range(2)], names=["a,b", "c"])
    _, tables = _report(tmp_path, paths)
    table = tables["mse"]
    assert {len(row) for row in table} == {4}
    assert table[0][1] == "vs_a,b" and table[1][0] == "a,b"


@pytest.mark.parametrize("kind", ["train", "score", "report"])
def test_feature_files_of_different_dimensions_exit_2_before_any_fit(tmp_path, capsys,
                                                                     monkeypatch, kind):
    # train once called this a config error, and report fitted a flow
    # before the first score failed on the odd file out
    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fitted before the feature files were checked")

    monkeypatch.setattr(methods, "train", no_fit)
    monkeypatch.setattr(training, "train", no_fit)
    d3, d4 = _class_files(tmp_path, [gen_gaussian([0.0] * d, 1.0, 100, seed=d) for d in (3, 4)],
                          names=["d3", "d4"])
    flows.save_model(flows.init_model(4, n_blocks=2, hidden_width=4, seed=0), tmp_path / "m4.cflw")
    payload = {"train": {"data_path": d3, "contrastive_path": d4},
               "score": {"model_path": str(tmp_path / "m4.cflw"), "data_path": d3},
               "report": {"class_paths": [d3, d4], "contrastive_path": d3,
                          "methods": ["cf"]}}[kind]
    rc = run_cli([kind, "--out", str(tmp_path / "out"), "--config",
                  str(_write_cfg(tmp_path, payload))])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("invalid input:")
    assert len(err.strip().splitlines()) == 1
    if kind != "score":
        assert f"{d3} has 3 columns, {d4} has 4 columns" in err


def test_report_one_vs_rest_synthetic(tmp_path):
    cfg = cli.load_config("report", None, {"out": str(tmp_path), "seed": 0})
    cfg = cli._merge(cfg, {
        "methods": ["mse", "mse_ratio"],
        "synthetic": {"dim": 4, "n_classes": 3, "n_per_class": 300, "n_broad": 600},
        "model": {"n_blocks": 2, "hidden_width": 8},
        "train": {"batch_size": 128, "max_epochs": 4},
    })
    summary = cli.run_report(cfg)
    assert (tmp_path / "confusion_mse.csv").exists()
    assert "wilcoxon" in summary
    rows = (tmp_path / "confusion_mse.csv").read_text().strip().splitlines()
    assert len(rows) == 4  # header + 3 classes
    # separated synthetic clusters: every mse row mean should be high
    assert all(v > 90.0 for v in summary["mse"]["row_means_pct"])


def _write_cfg(tmp_path, payload, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return path


def test_eval_wilcoxon_between_paired_files(tmp_path):
    (tmp_path / "in.csv").write_text("score\n" + "\n".join(str(i + 1) for i in range(8)) + "\n")
    (tmp_path / "out.csv").write_text("score\n" + "\n".join(str(i + 2) for i in range(8)) + "\n")
    (tmp_path / "a.csv").write_text("score\n" + "\n".join(str(v + 1.0) for v in range(10)) + "\n")
    (tmp_path / "b.csv").write_text("score\n" + "\n".join(str(float(v)) for v in range(10)) + "\n")
    rc = run_cli(["eval", "--out", str(tmp_path / "ev"), "--config",
                  str(_write_cfg(tmp_path, {
                      "inlier_scores": str(tmp_path / "in.csv"),
                      "outlier_scores": str(tmp_path / "out.csv"),
                      "paired_a": str(tmp_path / "a.csv"),
                      "paired_b": str(tmp_path / "b.csv"),
                  }, name="evw.json"))])
    assert rc == 0
    report = json.loads((tmp_path / "ev" / "report.json").read_text())
    # a uniformly exceeds b on 10 pairs: exact one-sided p is 2^-10
    assert report["wilcoxon_p"] == pytest.approx(1.0 / 1024.0, abs=0)


def _write_bad_input_files(tmp_path):
    """The files that BAD_INPUTS names, written into tmp_path."""
    model = flows.init_model(2, n_blocks=1, hidden_width=4, seed=0)
    flows.save_model(model, tmp_path / "m.cflw")
    (tmp_path / "abc.csv").write_text("score\n1.0\nabc\n")
    (tmp_path / "ok.csv").write_text("score\n2.0\n3.0\n")
    (tmp_path / "label_x.csv").write_text("f0,f1,label\n1.0,2.0,x\n")
    (tmp_path / "label_300.csv").write_text("f0,f1,label\n1.0,2.0,300\n")
    (tmp_path / "nan.csv").write_text("f0,f1\n1.0,nan\n")
    (tmp_path / "huge.csv").write_text("f0,f1\n1e308,1e308\n")
    (tmp_path / "big.csv").write_text("f0,f1\n1e150,1e150\n2e150,1e150\n1e150,3e150\n")
    (tmp_path / "big_1d.csv").write_text("f0\n1e153\n-1e153\n")
    (tmp_path / "wide.csv").write_text("score\n1e308\n-1e308\n")
    save_features(datasets.FeatureSet(np.ones((2, 2)), [0, 1]), tmp_path / "byte.cftr")
    raw = (tmp_path / "byte.cftr").read_bytes()
    (tmp_path / "byte.cftr").write_bytes(raw[:-1] + bytes([200]))
    (tmp_path / "inl.csv").write_text("f0,f1\n1.0,2.0\n2.0,1.0\n")
    (tmp_path / "empty.csv").write_text("f0,f1\n")
    save_features(datasets.FeatureSet(np.ones((2, 2))), tmp_path / "ok.cftr")
    _with_header_field(tmp_path / "ok.cftr", tmp_path / "rows_2e62.cftr", 3, 2 ** 62)
    (tmp_path / "trailing.cftr").write_bytes((tmp_path / "ok.cftr").read_bytes() + b"\0")
    for name, index, value in (("alpha0", 5, 0.0), ("blocks0", 3, 0),
                               ("dim_huge", 2, 2 ** 32 - 1), ("hidden_huge", 4, 2 ** 32 - 1)):
        _with_header_field(tmp_path / "m.cflw", tmp_path / f"{name}.cflw", index, value)


def _score(data, model="m.cflw"):
    return {"model_path": model, "data_path": data}


def _nll_train(**payload):
    return ("train", {"data_path": "inl.csv", "objective": "nll", **payload}, 2)


# case -> (subcommand, config, exit code) for inputs that once escaped as
# tracebacks or exit 0; paths are relative to the directory of the files
BAD_INPUTS = {
    "eval_abc_cell": ("eval", {"inlier_scores": "abc.csv", "outlier_scores": "ok.csv"}, 3),
    "label_x": ("score", _score("label_x.csv"), 3),
    "label_300": ("score", _score("label_300.csv"), 3),
    "label_byte_200": ("score", _score("byte.cftr"), 3),
    "nan_feature": ("score", _score("nan.csv"), 2),
    # finite z under the identity init model, whose squared norm overflows
    "nll_overflow": ("score", _score("huge.csv"), 1),
    "zero_blocks": ("train", {"data_path": "inl.csv", "model": {"n_blocks": 0}}, 2),
    "clamp_alpha_0": ("train", {"data_path": "inl.csv", "model": {"clamp_alpha": 0}}, 2),
    "cftr_rows_2e62": ("train", {"data_path": "rows_2e62.cftr"}, 3),
    "cftr_trailing_bytes": ("score", _score("trailing.cftr"), 3),
    "cflw_alpha_0": ("score", _score("inl.csv", "alpha0.cflw"), 3),
    "cflw_zero_blocks": ("score", _score("inl.csv", "blocks0.cflw"), 3),
    "cflw_dim_huge": ("score", _score("inl.csv", "dim_huge.cflw"), 3),
    "cflw_hidden_huge": ("score", _score("inl.csv", "hidden_huge.cflw"), 3),
    "n_blocks_2.5": _nll_train(model={"n_blocks": 2.5}),
    "n_blocks_true": _nll_train(model={"n_blocks": True}),
    "hidden_width_2.5": _nll_train(model={"hidden_width": 2.5}),
    "max_epochs_1.5": _nll_train(train={"max_epochs": 1.5}),
    "batch_size_2.5": _nll_train(train={"batch_size": 2.5}),
    "patience_1.5": _nll_train(train={"patience": 1.5}),
    "seed_1.5": _nll_train(seed=1.5),
    "val_fraction_leaves_no_rows": _nll_train(train={"val_fraction": 0.999}),
    "lr_negative": _nll_train(train={"lr": -1.0}),
    "lr_string": _nll_train(train={"lr": "x"}),
    "lr_nan": _nll_train(train={"lr": float("nan")}),
    "contrastive_empty": ("train", {"data_path": "inl.csv", "contrastive_path": "empty.csv"}, 2),
    # a contrastive row whose NLL overflows under the initial model
    "contrastive_nll_overflow": ("train", {"data_path": "inl.csv", "contrastive_path": "huge.csv",
                                           "model": {"n_blocks": 1, "hidden_width": 4}}, 1),
    # a clamped mean that overflows: numpy's warning must not reach stderr
    "toy1d_epsilon_1e308": ("toy1d", {"epsilon": 1e308}, 1),
    "sweep_clamp_tau_-1e308": ("mu-sweep", {"methods": ["cf"], "reps": 1, "mu_grid": [0.5],
                                            "train": {"max_epochs": 1, "clamp_tau": -1e308}}, 1),
    # finite NLLs whose gradient overflows in the backward pass
    "train_gradient_overflow": ("train", {"data_path": "big.csv", "objective": "nll",
                                          "model": {"n_blocks": 1, "hidden_width": 4}}, 1),
    # a finite gradient whose square overflows in the Adam step
    "train_gradient_square_overflow": ("train", {"data_path": "big_1d.csv", "objective": "nll",
                                                 "model": {"n_blocks": 1, "hidden_width": 4},
                                                 "train": {"max_epochs": 2,
                                                           "val_fraction": 0.0}}, 1),
    # finite scores whose range is wider than the largest float
    "eval_score_range_overflow": ("eval", {"inlier_scores": "wide.csv",
                                           "outlier_scores": "ok.csv"}, 2),
    "sweep_mu_grid_string": ("mu-sweep", {"mu_grid": "x"}, 2),
    "sweep_mu_grid_1.5": ("mu-sweep", {"mu_grid": [1.5]}, 2),
    "sweep_seed_-1": ("mu-sweep", {"seed": -1}, 2),
    "sweep_contrastive_total_0": ("mu-sweep", {"contrastive_total": 0}, 2),
    "sweep_bench_n_train_0": ("mu-sweep", {"bench": {"n_train": 0}}, 2),
    "toy1d_grid_n_2.5": ("toy1d", {"grid": {"n": 2.5}}, 2),
    "toy1d_n_train_0": ("toy1d", {"n_train": 0}, 2),
    "toy1d_epsilon_string": ("toy1d", {"epsilon": "x"}, 2),
    "toy1d_inlier_mean_string": ("toy1d", {"inlier": {"mean": "x"}}, 2),
    "toy1d_train_list": ("toy1d", {"train": []}, 2),
    "tabular_test_fraction_1.5": ("tabular", {"test_fraction": 1.5}, 2),
    "tabular_correlation_1": ("tabular", {"synthetic": {"correlation": 1.0}}, 2),
    "tabular_seed_string": ("tabular", {"seed": "0"}, 2),
    "toy2d_n_scatter_-1": ("toy2d", {"n_scatter": -1}, 2),
    "eval_n_bins_0": ("eval", {"inlier_scores": "ok.csv", "outlier_scores": "ok.csv",
                               "n_bins": 0}, 2),
    # a list for a single-path key, and a string for the list of paths
    "eval_inlier_scores_list": ("eval", {"inlier_scores": ["ok.csv"]}, 2),
    "train_data_path_list": ("train", {"data_path": ["inl.csv"]}, 2),
    "report_class_paths_string": ("report", {"class_paths": "x"}, 2),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", BAD_INPUTS)
def test_bad_input_exit_code_without_traceback(tmp_path, capsys, monkeypatch, case):
    kind, payload, code = BAD_INPUTS[case]
    _write_bad_input_files(tmp_path)
    monkeypatch.chdir(tmp_path)
    rc = run_cli([kind, "--out", str(tmp_path / "out"), "--config",
                  str(_write_cfg(tmp_path, payload, name="bad.json"))])
    err = capsys.readouterr().err
    assert rc == code
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


def _leaves(cfg, prefix=()):
    """The key path of every value in cfg that is not an object."""
    for key, value in cfg.items():
        if isinstance(value, dict):
            yield from _leaves(value, prefix + (key,))
        else:
            yield prefix + (key,)


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_a_value_of_the_wrong_kind_exits_2_before_any_fit(tmp_path_factory, data):
    # one leaf of a kind's defaults set to a value of another kind: a config
    # error in one line, raised before a model is trained
    kind = data.draw(st.sampled_from(sorted(cli.DEFAULTS)))
    path = data.draw(st.sampled_from(sorted(_leaves(cli.DEFAULTS[kind]))))
    default = cli.DEFAULTS[kind]
    for key in path:
        default = default[key]
    value = data.draw(st.sampled_from(["x", 2.5, -1, True, [{}], {}]))
    assume(not cli._fits(default, value))
    payload = value
    for key in reversed(path):
        payload = {key: payload}
    root = tmp_path_factory.mktemp("kind")
    cfg = _write_cfg(root, payload)

    def no_fit(*args, **kwargs):
        raise AssertionError("a model was trained before the config was checked")

    err = io.StringIO()
    with pytest.MonkeyPatch.context() as mp, contextlib.redirect_stderr(err):
        mp.setattr(methods, "train", no_fit)
        mp.setattr(training, "train", no_fit)
        rc = run_cli([kind, "--config", str(cfg)])
    assert rc == 2
    assert err.getvalue().startswith(f"config error: {'.'.join(path)} must be ")
    assert len(err.getvalue().strip().splitlines()) == 1


@pytest.mark.parametrize("kind", sorted(cli.DEFAULTS))
def test_defaults_merged_over_themselves_are_unchanged(kind):
    assert cli._merge(cli.DEFAULTS[kind], cli.DEFAULTS[kind]) == cli.DEFAULTS[kind]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_score_on_corrupt_files_exits_without_traceback(tmp_path_factory, data):
    # truncated, bit-flipped or header-rewritten model and feature files:
    # every outcome is a documented exit code with at most one line on stderr
    root = tmp_path_factory.mktemp("fuzz")
    flows.save_model(flows.init_model(3, n_blocks=2, hidden_width=4, seed=0), root / "m.cflw")
    save_features(datasets.FeatureSet(np.ones((5, 3)), [0, 1, 2, 0, 1]), root / "d.cftr")
    target = root / data.draw(st.sampled_from(["m.cflw", "d.cftr"]))
    raw = bytearray(target.read_bytes())
    kind = data.draw(st.sampled_from(["truncate", "flip", "field"]))
    if kind == "truncate":
        target.write_bytes(raw[:data.draw(st.integers(0, len(raw) - 1))])
    elif kind == "flip":
        for bit in data.draw(st.lists(st.integers(0, 8 * len(raw) - 1), min_size=1, max_size=4)):
            raw[bit // 8] ^= 1 << (bit % 8)
        target.write_bytes(raw)
    else:
        widths = HEADERS[target.suffix][1]
        index = data.draw(st.sampled_from(range(1, len(widths) + 1)))
        bits = widths[index - 1]
        value = data.draw(st.floats() if bits is None else st.integers(0, 2 ** bits - 1))
        _with_header_field(target, target, index, value)
    cfg = _write_cfg(root, {"model_path": str(root / "m.cflw"),
                            "data_path": str(root / "d.cftr")}, name="score.json")
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        rc = run_cli(["score", "--out", str(root / "out"), "--config", str(cfg)])
    assert rc in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert rc == 0 or len(err.getvalue().strip().splitlines()) == 1


def test_nll_train_ignores_an_empty_contrastive_set(tmp_path):
    (tmp_path / "inl.csv").write_text("f0,f1\n1.0,2.0\n2.0,1.0\n3.0,0.5\n0.5,3.0\n")
    (tmp_path / "empty.csv").write_text("f0,f1\n")
    payload = {"data_path": str(tmp_path / "inl.csv"),
               "contrastive_path": str(tmp_path / "empty.csv"), "objective": "nll",
               "model": {"n_blocks": 1, "hidden_width": 4}, "train": {"max_epochs": 1}}
    assert run_cli(["train", "--out", str(tmp_path / "out"), "--config",
                    str(_write_cfg(tmp_path, payload))]) == 0


def test_every_config_field_is_reachable():
    # a dataclass field that no config key reaches is an option no caller sets
    def unreachable(config_class, section):
        keys = set().union(*(d[section] for d in cli.DEFAULTS.values() if section in d))
        return {f.name for f in dataclasses.fields(config_class)} - keys

    # the runners set objective and seed themselves
    assert unreachable(TrainConfig, "train") <= {"objective", "seed"}
    # the softplus gradient checks build flows with it through init_model
    assert unreachable(FlowConfig, "model") <= {"activation"}


def test_a_size_too_large_to_allocate_exits_2_in_one_line(tmp_path, capsys, monkeypatch):
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(datasets, "gen_gaussian", no_memory)
    assert run_cli(["toy1d", "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and len(err.strip().splitlines()) == 1


def _score_with_overflow_at(tmp_path, capsys, n_rows, bad_row):
    """Exit code and stderr of `score` on n_rows rows, of which bad_row is
    finite but overflows inside the flow."""
    model = flows.init_model(2, n_blocks=1, hidden_width=4, seed=0)
    model.store.params["blk0.w2"][...] = 1.0
    flows.save_model(model, tmp_path / "m.cflw")
    rows = ["0.0,0.0"] * n_rows
    rows[bad_row] = "1e308,1e308"
    (tmp_path / "d.csv").write_text("f0,f1\n" + "\n".join(rows) + "\n")
    payload = {"model_path": str(tmp_path / "m.cflw"), "data_path": str(tmp_path / "d.csv")}
    rc = run_cli(["score", "--out", str(tmp_path / "out"), "--config",
                  str(_write_cfg(tmp_path, payload))])
    return rc, capsys.readouterr().err


@pytest.mark.filterwarnings("error")
def test_score_overflow_in_a_later_block_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(flows, "blas_threads", lambda: 1)
    rc, err = _score_with_overflow_at(tmp_path, capsys, 3 * flows._BLOCK_ROWS + 10,
                                      flows._BLOCK_ROWS + 3)
    assert rc == 1
    assert err.startswith("numeric failure") and len(err.strip().splitlines()) == 1


@pytest.mark.filterwarnings("error")
def test_score_overflow_in_a_block_of_the_second_worker_exits_1(tmp_path, capsys, monkeypatch):
    # three row blocks on two workers: row B + 3 is in block 1, which the
    # second worker runs in its own thread
    monkeypatch.setattr(flows, "blas_threads", lambda: 2)
    rc, err = _score_with_overflow_at(tmp_path, capsys, 3 * flows._BLOCK_ROWS + 10,
                                      flows._BLOCK_ROWS + 3)
    assert rc == 1
    assert err.startswith("numeric failure") and len(err.strip().splitlines()) == 1


def test_python_dash_m_runs_the_cli():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [str(src), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-m", "cnflow", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: cnflow")


@pytest.mark.parametrize("kind", ["tabular", "mu-sweep", "informed", "report"])
def test_unknown_method_exits_2_before_any_fit(tmp_path, monkeypatch, kind):
    def no_fit(*args, **kwargs):
        raise AssertionError("a model was trained before the method list was checked")

    monkeypatch.setattr(methods, "train", no_fit)
    assert run_cli([kind, "--method", "cf,bogus", "--out", str(tmp_path)]) == 2


@pytest.mark.parametrize("payload, expected", [({"reps": 0}, "positive integer"),
                                               ({"methods": "cf"}, "must be a list")])
def test_mu_sweep_bad_reps_or_method_list_exits_2_in_one_line(tmp_path, capsys, monkeypatch,
                                                               payload, expected):
    # reps 0 once ended in an IndexError traceback, and a string of
    # methods was iterated by character ("unknown method 'c'")
    def no_fit(*args, **kwargs):
        raise AssertionError("a model was trained before the config was checked")

    monkeypatch.setattr(methods, "train", no_fit)
    rc = run_cli(["mu-sweep", "--out", str(tmp_path / "out"), "--config",
                  str(_write_cfg(tmp_path, payload, name="bad.json"))])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config error:") and expected in err
    assert len(err.strip().splitlines()) == 1


def test_bench_files_of_different_dimensions_exit_2_before_any_fit(tmp_path, capsys,
                                                                   monkeypatch):
    # a 3-d rest file beside 2-d inlier, hard and broad files once failed
    # only when the first fitted model scored the rest test set
    def no_fit(*args, **kwargs):
        raise AssertionError("a model was fitted before the bench files were checked")

    monkeypatch.setattr(cli, "fit_method", no_fit)
    bench = {}
    for key, dim in (("inlier", 2), ("hard", 2), ("rest", 3), ("broad", 2)):
        bench[f"{key}_path"] = str(tmp_path / f"{key}.cftr")
        save_features(gen_gaussian([0.0] * dim, 1.0, 100, seed=dim), bench[f"{key}_path"])
    rc = run_cli(["mu-sweep", "--out", str(tmp_path / "out"), "--config",
                  str(_write_cfg(tmp_path, {"bench": bench}))])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("invalid input: bench feature files disagree on dimension")
    assert f"{bench['rest_path']} has 3 columns" in err
    assert len(err.strip().splitlines()) == 1


SMALL_SWEEP = {
    "reps": 2, "mu_grid": [0.5, 0.5, 1.0], "contrastive_total": 200,
    "methods": ["nll_flow", "mse", "mse_ratio", "cf"],
    "bench": {"dim": 3, "seed": 1, "n_train": 200, "n_test": 60, "n_pool": 400},
    "model": {"n_blocks": 2, "hidden_width": 8},
    "train": {"batch_size": 128, "max_epochs": 2, "patience": 2, "clamp_tau": 12.0},
}


def test_mu_sweep_fits_a_method_without_contrastive_set_once_per_rep(tmp_path, monkeypatch):
    fits = []
    fit_method = cli.fit_method

    def counting_fit(name, train_in, contrastive, *args, **kwargs):
        fits.append((name, contrastive is None))
        return fit_method(name, train_in, contrastive, *args, **kwargs)

    monkeypatch.setattr(cli, "fit_method", counting_fit)
    assert run_cli(["mu-sweep", "--out", str(tmp_path / "out"), "--config",
                    str(_write_cfg(tmp_path, SMALL_SWEEP))]) == 0
    assert all(no_set == (name not in methods.CONTRASTIVE_METHODS) for name, no_set in fits)
    reps, n_mu = SMALL_SWEEP["reps"], len(SMALL_SWEEP["mu_grid"])
    assert Counter(name for name, _ in fits) == {
        "nll_flow": reps, "mse": reps, "mse_ratio": reps * n_mu, "cf": reps * n_mu}


def _record_fit_tasks(monkeypatch, fit_key):
    """Patch cli so that each fit appends fit_key(name, contrastive, seed) to
    the returned fits, each run_tasks call appends its task count to the
    returned counts, and a task that runs other than one fit fails."""
    fits, task_counts = [], []
    fit_method, run_tasks = cli.fit_method, cli.run_tasks

    def recording_fit(name, train_in, contrastive, cfg, seed, *args, **kwargs):
        fits.append(fit_key(name, contrastive, seed))
        return fit_method(name, train_in, contrastive, cfg, seed, *args, **kwargs)

    def one_fit(task):
        def run():
            before = len(fits)
            result = task()
            assert len(fits) == before + 1, "a task ran other than one fit"
            return result
        return run

    def recording_run(tasks, *args, **kwargs):
        task_counts.append(len(tasks))
        return run_tasks([one_fit(task) for task in tasks], *args, **kwargs)

    monkeypatch.setattr(cli, "fit_method", recording_fit)
    monkeypatch.setattr(cli, "run_tasks", recording_run)
    return fits, task_counts


def test_mu_sweep_hands_run_tasks_one_fit_per_task_in_the_sweep_order(tmp_path, monkeypatch):
    # one task list, one fit per task, in the order: each method without a
    # contrastive set once per rep, then per mu, per rep (one mixture each),
    # per method; the seed is the rep, as the root seed is 0
    mixes = []
    mix = datasets.mix_datasets

    def recording_mix(spec):
        mixes.append(mix(spec))
        return mixes[-1]

    def fit_key(name, contrastive, seed):
        return name, seed, (None if contrastive is None
                            else next(k for k, m in enumerate(mixes) if m is contrastive))

    monkeypatch.setattr(datasets, "mix_datasets", recording_mix)
    fits, task_counts = _record_fit_tasks(monkeypatch, fit_key)
    assert run_cli(["mu-sweep", "--out", str(tmp_path / "out"), "--config",
                    str(_write_cfg(tmp_path, SMALL_SWEEP))]) == 0
    reps, n_mu = SMALL_SWEEP["reps"], len(SMALL_SWEEP["mu_grid"])
    expected = [(m, rep, None) for m in ("nll_flow", "mse") for rep in range(reps)]
    expected += [(m, rep, j * reps + rep) for j in range(n_mu) for rep in range(reps)
                 for m in ("mse_ratio", "cf")]
    assert fits == expected
    assert len(mixes) == n_mu * reps
    assert task_counts == [len(expected)]


@pytest.mark.parametrize("names", [["mse", "mse_ratio"], ["mse", "mse_ratio", "mse"]],
                         ids=["two_methods", "a_method_named_twice"])
def test_report_hands_run_tasks_one_fit_per_task_in_method_then_class_order(
        tmp_path, monkeypatch, names):
    fits, task_counts = _record_fit_tasks(monkeypatch,
                                          lambda name, contrastive, seed: (name, seed))
    payload = {"methods": names,
               "synthetic": {"dim": 3, "n_classes": 3, "n_per_class": 100, "n_broad": 200}}
    assert run_cli(["report", "--out", str(tmp_path / "out"), "--config",
                    str(_write_cfg(tmp_path, payload))]) == 0
    assert fits == [(m, i) for m in ("mse", "mse_ratio") for i in range(3)]
    assert task_counts == [6]


@pytest.mark.parametrize("kind", ["mu-sweep", "tabular", "report"])
def test_a_method_named_twice_runs_as_if_named_once(tmp_path, monkeypatch, kind):
    # a repeated name once gave a second mu-sweep row, a second tabular
    # fit and score file, and a report Wilcoxon of a method against itself
    fits = []
    fit_method = cli.fit_method

    def counting_fit(name, *args, **kwargs):
        fits.append(name)
        return fit_method(name, *args, **kwargs)

    monkeypatch.setattr(cli, "fit_method", counting_fit)
    payload = {"mu-sweep": {**SMALL_SWEEP, "mu_grid": [0.5]},
               "tabular": {"synthetic": {"dim": 3, "n_inlier": 200, "n_outlier": 40}},
               "report": {"synthetic": {"dim": 3, "n_classes": 3, "n_per_class": 100,
                                        "n_broad": 200}}}[kind]
    cfg = _write_cfg(tmp_path, payload)
    runs = {}
    for names in ("mse", "mse,mse"):
        fits.clear()
        out = tmp_path / names
        assert run_cli([kind, "--method", names, "--out", str(out), "--config", str(cfg)]) == 0
        runs[names] = fits[:], {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    assert runs["mse,mse"] == runs["mse"]


def test_mu_sweep_narrow_variant_exits_2_before_any_fit(tmp_path, capsys, monkeypatch):
    # "narrow" once ran the informed sweep under another name
    def no_fit(*args, **kwargs):
        raise AssertionError("a method was fitted for an unknown variant")

    monkeypatch.setattr(cli, "fit_method", no_fit)
    rc = run_cli(["mu-sweep", "--out", str(tmp_path / "out"), "--config",
                  str(_write_cfg(tmp_path, {**SMALL_SWEEP, "variant": "narrow"}))])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.strip() == "config error: unknown mu-sweep variant 'narrow'"


def test_mu_sweep_checks_every_mu_before_any_fit(tmp_path, capsys, monkeypatch):
    def no_fit(*args, **kwargs):
        raise AssertionError("a method was fitted before every mu was checked")

    monkeypatch.setattr(cli, "fit_method", no_fit)
    payload = {**SMALL_SWEEP, "mu_grid": [0.0, 1.5]}
    assert run_cli(["mu-sweep", "--out", str(tmp_path / "out"), "--config",
                    str(_write_cfg(tmp_path, payload))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid input:") and len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [["toy2d", "--reps", "2"], ["toy1d", "--reps", "2"],
                                  ["toy1d", "--method", "cf"], ["score", "--seed", "1"]])
def test_flag_a_subcommand_does_not_take_exit_code_2(tmp_path, argv):
    assert run_cli(argv + ["--out", str(tmp_path)]) == 2


def test_out_config_key_and_flag_override(tmp_path):
    (tmp_path / "in.csv").write_text("score\n1\n3\n")
    (tmp_path / "out.csv").write_text("score\n2\n4\n")
    payload = {"out": str(tmp_path / "from_config"),
               "inlier_scores": str(tmp_path / "in.csv"),
               "outlier_scores": str(tmp_path / "out.csv")}
    assert run_cli(["eval", "--config", str(_write_cfg(tmp_path, payload))]) == 0
    assert (tmp_path / "from_config" / "report.json").exists()
    assert run_cli(["eval", "--config", str(_write_cfg(tmp_path, payload)),
                    "--out", str(tmp_path / "from_flag")]) == 0
    assert (tmp_path / "from_flag" / "report.json").exists()


def test_bench_layers_resolve_to_cnflow_callables():
    # the benchmark's tracer wraps these functions by module attribute on
    # every operation; a rename here would break its warm-up silently
    path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
    spec = importlib.util.spec_from_file_location("perfbench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    assert spans.LAYERS
    for mod_name, fn_name in spans.LAYERS:
        module = importlib.import_module(f"cnflow.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"{mod_name}.{fn_name}"
