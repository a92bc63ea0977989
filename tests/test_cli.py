import contextlib
import importlib
import importlib.util
import io
import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnflow import cli, datasets, flows, methods, metrics
from cnflow.datasets import gen_gaussian, save_features

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
    (tmp_path / "huge.csv").write_text("f0,f1\n1e308,1e308\n")
    save_features(datasets.FeatureSet(np.ones((2, 2)), [0, 1]), tmp_path / "byte.cftr")
    raw = (tmp_path / "byte.cftr").read_bytes()
    (tmp_path / "byte.cftr").write_bytes(raw[:-1] + bytes([200]))
    (tmp_path / "inl.csv").write_text("f0,f1\n1.0,2.0\n2.0,1.0\n")
    save_features(datasets.FeatureSet(np.ones((2, 2))), tmp_path / "ok.cftr")
    _with_header_field(tmp_path / "ok.cftr", tmp_path / "rows_2e62.cftr", 3, 2 ** 62)
    (tmp_path / "trailing.cftr").write_bytes((tmp_path / "ok.cftr").read_bytes() + b"\0")
    for name, index, value in (("alpha0", 5, 0.0), ("blocks0", 3, 0),
                               ("dim_huge", 2, 2 ** 32 - 1), ("hidden_huge", 4, 2 ** 32 - 1)):
        _with_header_field(tmp_path / "m.cflw", tmp_path / f"{name}.cflw", index, value)

    def score(data, model="m.cflw"):
        return {"model_path": str(tmp_path / model), "data_path": str(tmp_path / data)}

    def nll_train(**payload):
        return ("train", {"data_path": str(tmp_path / "inl.csv"), "objective": "nll", **payload}, 2)

    return {
        "eval_abc_cell": ("eval", {"inlier_scores": str(tmp_path / "abc.csv"),
                                   "outlier_scores": str(tmp_path / "ok.csv")}, 3),
        "label_x": ("score", score("label_x.csv"), 3),
        "label_300": ("score", score("label_300.csv"), 3),
        "label_byte_200": ("score", score("byte.cftr"), 3),
        "nan_feature": ("score", score("nan.csv"), 2),
        # finite z under the identity init model, whose squared norm overflows
        "nll_overflow": ("score", score("huge.csv"), 1),
        "zero_blocks": ("train", {"data_path": str(tmp_path / "inl.csv"),
                                  "model": {"n_blocks": 0}}, 2),
        "clamp_alpha_0": ("train", {"data_path": str(tmp_path / "inl.csv"),
                                    "model": {"clamp_alpha": 0}}, 2),
        "cftr_rows_2e62": ("train", {"data_path": str(tmp_path / "rows_2e62.cftr")}, 3),
        "cftr_trailing_bytes": ("score", score("trailing.cftr"), 3),
        "cflw_alpha_0": ("score", score("inl.csv", "alpha0.cflw"), 3),
        "cflw_zero_blocks": ("score", score("inl.csv", "blocks0.cflw"), 3),
        "cflw_dim_huge": ("score", score("inl.csv", "dim_huge.cflw"), 3),
        "cflw_hidden_huge": ("score", score("inl.csv", "hidden_huge.cflw"), 3),
        "n_blocks_2.5": nll_train(model={"n_blocks": 2.5}),
        "n_blocks_true": nll_train(model={"n_blocks": True}),
        "hidden_width_2.5": nll_train(model={"hidden_width": 2.5}),
        "max_epochs_1.5": nll_train(train={"max_epochs": 1.5}),
        "batch_size_2.5": nll_train(train={"batch_size": 2.5}),
        "patience_1.5": nll_train(train={"patience": 1.5}),
        "seed_1.5": nll_train(seed=1.5),
        "val_fraction_leaves_no_rows": nll_train(train={"val_fraction": 0.999}),
        "lr_negative": nll_train(train={"lr": -1.0}),
        "lr_string": nll_train(train={"lr": "x"}),
        "lr_nan": nll_train(train={"lr": float("nan")}),
    }


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("case", ["eval_abc_cell", "label_x", "label_300", "label_byte_200",
                                  "nan_feature", "nll_overflow", "zero_blocks", "clamp_alpha_0",
                                  "cftr_rows_2e62", "cftr_trailing_bytes", "cflw_alpha_0",
                                  "cflw_zero_blocks", "cflw_dim_huge", "cflw_hidden_huge",
                                  "n_blocks_2.5", "n_blocks_true", "hidden_width_2.5",
                                  "max_epochs_1.5", "batch_size_2.5", "patience_1.5",
                                  "seed_1.5", "val_fraction_leaves_no_rows", "lr_negative",
                                  "lr_string", "lr_nan"])
def test_bad_input_exit_code_without_traceback(tmp_path, capsys, case):
    kind, payload, code = _bad_inputs(tmp_path)[case]
    rc = run_cli([kind, "--out", str(tmp_path / "out"), "--config",
                  str(_write_cfg(tmp_path, payload, name="bad.json"))])
    err = capsys.readouterr().err
    assert rc == code
    assert "Traceback" not in err and len(err.strip().splitlines()) == 1


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
