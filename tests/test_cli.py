import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from cnflow import cli, datasets, flows, metrics
from cnflow.datasets import gen_gaussian, save_features

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
    inl = gen_gaussian([2.0, 0.0, 0.0], 0.4, 800, seed=0, provenance="in")
    contr = gen_gaussian([0.0, 0.0, 0.0], 2.0, 800, seed=1, provenance="broad")
    outl = gen_gaussian([-2.0, 0.0, 0.0], 0.4, 300, seed=2, provenance="out")
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


def _bad_inputs(tmp_path):
    """(argv, exit code) for inputs that once escaped as tracebacks."""
    model = flows.init_model(2, n_blocks=1, hidden_width=4, seed=0)
    flows.save_model(model, tmp_path / "m.cflw")
    (tmp_path / "abc.csv").write_text("score\n1.0\nabc\n")
    (tmp_path / "ok.csv").write_text("score\n2.0\n3.0\n")
    (tmp_path / "label_x.csv").write_text("f0,f1,label\n1.0,2.0,x\n")
    (tmp_path / "label_300.csv").write_text("f0,f1,label\n1.0,2.0,300\n")
    (tmp_path / "nan.csv").write_text("f0,f1\n1.0,nan\n")
    save_features(datasets.FeatureSet(np.ones((2, 2)), [0, 1]), tmp_path / "byte.cftr")
    raw = (tmp_path / "byte.cftr").read_bytes()
    (tmp_path / "byte.cftr").write_bytes(raw[:-1] + bytes([200]))
    (tmp_path / "inl.csv").write_text("f0,f1\n1.0,2.0\n2.0,1.0\n")

    def score(data):
        return {"model_path": str(tmp_path / "m.cflw"), "data_path": str(tmp_path / data)}

    return {
        "eval_abc_cell": ("eval", {"inlier_scores": str(tmp_path / "abc.csv"),
                                   "outlier_scores": str(tmp_path / "ok.csv")}, 3),
        "label_x": ("score", score("label_x.csv"), 3),
        "label_300": ("score", score("label_300.csv"), 3),
        "label_byte_200": ("score", score("byte.cftr"), 3),
        "nan_feature": ("score", score("nan.csv"), 2),
        "zero_blocks": ("train", {"data_path": str(tmp_path / "inl.csv"),
                                  "model": {"n_blocks": 0}}, 2),
    }


@pytest.mark.parametrize("case", ["eval_abc_cell", "label_x", "label_300", "label_byte_200",
                                  "nan_feature", "zero_blocks"])
def test_bad_input_exit_code_without_traceback(tmp_path, capsys, case):
    kind, payload, code = _bad_inputs(tmp_path)[case]
    rc = run_cli([kind, "--out", str(tmp_path / "out"), "--config",
                  str(_write_cfg(tmp_path, payload, name="bad.json"))])
    err = capsys.readouterr().err
    assert rc == code
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


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
