"""Experiment runner.

Subcommands reproduce the desk-scale experiments from declarative JSON
configs and emit plot-ready CSV / JSON artifacts (no figures):

  toy1d        1-D contrastive flow vs the analytic truncated difference
  toy2d        2-D comparison of the contrastive flow and the two-flow ratio
  clamp-sweep  1-D toy retrained per clamp threshold
  mu-sweep     contaminated contrastive mixtures on synthetic clusters
  informed     known outliers mixed into the contrastive set
  tabular      marginal-permutation contrastive on correlated tabular data
  train        fit a model on a feature file, write a CFLW model file
  score        score a feature file under a saved model
  eval         AUROC / ROC / histogram / Wilcoxon from score files
  report       one-vs-rest confusion matrix over class feature files

Every run is deterministic given (config, seed): re-running writes
byte-identical artifacts.  Exit codes: 0 ok, 1 numeric failure,
2 usage/config error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import copy
import json
import sys
from functools import partial
from pathlib import Path

import numpy as np

from . import baselines, datasets, flows, metrics, oracle, training
from .diffcore import run_tasks
from .errors import ConfigError, DegenerateDataError, DimensionError, FormatError, NumericError
from .flows import FlowConfig
from .methods import CONTRASTIVE_METHODS, check_methods, fit_method
from .training import TrainConfig


# ---------------------------------------------------------------------------
# configuration plumbing

# the model of every experiment but `train`; _merge copies it per run
_WIDTH64_MODEL = {"n_blocks": 8, "hidden_width": 64, "clamp_alpha": 3.0}
DEFAULTS: dict[str, dict] = {
    "toy1d": {
        "seed": 0,
        "out": None,
        "n_train": 20000,
        "n_contrastive": 20000,
        "inlier": {"mean": [0.0], "sd": [1.0]},
        "contrastive": {"mean": [1.0], "sd": [2.0]},
        "epsilon": -6.0,
        "grid": {"lo": -6.0, "hi": 6.0, "n": 4001},
        "model": _WIDTH64_MODEL,
        "train": {"batch_size": 1024, "lr": 1e-3, "max_epochs": 60,
                  "patience": 1000000, "val_fraction": 0.0},
    },
    "toy2d": {
        "seed": 0,
        "out": None,
        "n_train": 8000,
        "n_contrastive": 8000,
        "inlier_mean": [1.0, 1.0],
        "contrastive_mean": [0.0, 0.0],
        "epsilon": -6.0,
        "grid": {"lo": -6.0, "hi": 6.0, "n": 61},
        "n_scatter": 500,
        "model": _WIDTH64_MODEL,
        "train": {"batch_size": 512, "lr": 1e-3, "max_epochs": 30,
                  "patience": 1000000, "val_fraction": 0.0},
    },
    "mu-sweep": {
        "seed": 0,
        "out": None,
        "reps": 3,
        "variant": "contaminated",
        "mu_grid": [0.0, 0.25, 0.5, 0.75, 1.0],
        "methods": ["cf", "flow_ratio", "nll_flow"],
        "contrastive_total": 2000,
        "bench": {"dim": 8, "seed": 7, "hard_angle": 0.25, "radius": 2.0,
                  "cluster_sd": 0.5, "broad_sd": 2.0, "n_train": 2000,
                  "n_test": 500, "n_pool": 4000,
                  "inlier_path": None, "hard_path": None,
                  "rest_path": None, "broad_path": None},
        "model": _WIDTH64_MODEL,
        "train": {"batch_size": 512, "lr": 1e-3, "max_epochs": 60,
                  "patience": 10, "val_fraction": 0.1, "clamp_tau": 12.0},
    },
    "tabular": {
        "seed": 0,
        "out": None,
        "data_path": None,
        "methods": ["nll_flow", "cf", "flow_ratio"],
        "synthetic": {"dim": 6, "n_inlier": 4000, "n_outlier": 400,
                      "correlation": 0.9, "outlier_sd": 1.0},
        "test_fraction": 0.25,
        "model": _WIDTH64_MODEL,
        "train": {"batch_size": 256, "lr": 1e-3, "max_epochs": 40,
                  "patience": 10, "val_fraction": 0.1, "clamp_tau": 12.0},
    },
    "train": {
        "seed": 0,
        "out": None,
        "data_path": None,
        "contrastive_path": None,
        "objective": "contrastive",
        "model_out": "model.cflw",
        "history_out": "history.json",
        "model": {"n_blocks": 8, "hidden_width": 512, "clamp_alpha": 3.0},
        "train": {"batch_size": 256, "lr": 1e-3, "max_epochs": 50,
                  "patience": 10, "val_fraction": 0.1, "clamp_tau": 0.0},
    },
    "score": {"out": None, "model_path": None, "data_path": None, "scores_out": "scores.csv"},
    "eval": {
        "out": None,
        "inlier_scores": None,
        "outlier_scores": None,
        "paired_a": None,
        "paired_b": None,
        "n_bins": 50,
        "method": "scores",
        "report_out": "report.json",
        "roc_out": "roc.csv",
        "hist_out": "hist.csv",
    },
    "report": {
        "seed": 0,
        "out": None,
        "class_paths": [],
        "contrastive_path": None,
        "methods": ["cf"],
        "test_fraction": 0.2,
        "synthetic": {"dim": 8, "n_classes": 3, "n_per_class": 1200,
                      "cluster_sd": 0.5, "radius": 2.0, "broad_sd": 2.0,
                      "n_broad": 3000},
        "model": _WIDTH64_MODEL,
        "train": {"batch_size": 256, "lr": 1e-3, "max_epochs": 30,
                  "patience": 10, "val_fraction": 0.1, "clamp_tau": 12.0},
    },
}
DEFAULTS["clamp-sweep"] = dict({k: v for k, v in copy.deepcopy(DEFAULTS["toy1d"]).items()
                                if k != "epsilon"}, epsilons=[0.0, -2.0, -6.0, -20.0])
DEFAULTS["informed"] = dict(copy.deepcopy(DEFAULTS["mu-sweep"]), variant="informed",
                            mu_grid=[0.5, 1.0], methods=["cf"])


_KINDS = {dict: "object", int: "count", float: "number", str: "string", type(None): "string"}


def _fits(default, value) -> bool:
    """Whether value has the kind of the default it replaces (README, Config
    schema); a count is an integer >= 0, every null default is a path, every
    empty-list default a list of paths and a list replacing a non-empty one
    is non-empty."""
    if default is None:
        return value is None or isinstance(value, str)
    if isinstance(default, list):
        return (isinstance(value, list) and (bool(value) or not default)
                and all(_fits((default or [""])[0], v) for v in value))
    if isinstance(default, float):
        return isinstance(value, (int, float)) and not isinstance(value, bool)
    if isinstance(default, int):
        return isinstance(value, int) and not isinstance(value, bool) and value >= 0
    return isinstance(value, type(default))


def _kind(default, plural: str = "") -> str:
    if isinstance(default, list):
        return ("a non-empty" if default else "a") + " list of " + _kind((default or [""])[0], "s")
    noun = _KINDS[type(default)]
    return noun + plural if plural else ("an " if noun == "object" else "a ") + noun


def _merge(base: dict, override: dict, prefix: str = "") -> dict:
    """base with override's values, each of the kind of the value it replaces."""
    out = copy.deepcopy(base)
    for key, value in override.items():
        name = prefix + key
        if key not in out:
            raise ConfigError(f"unknown config key {name!r}")
        if not _fits(out[key], value):
            raise ConfigError(f"{name} must be {_kind(out[key])}, got {value!r}")
        out[key] = _merge(out[key], value, name + ".") if isinstance(value, dict) else value
    return out


def load_config(kind: str, path: str | None, overrides: dict) -> dict:
    if kind not in DEFAULTS:
        raise ConfigError(f"unknown experiment kind {kind!r}")
    user = {}
    if path is not None:
        with open(path) as fh:
            try:
                user = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(f"config is not valid JSON: {exc}") from None
    if not isinstance(user, dict):
        raise ConfigError(f"config must be a JSON object, got {user!r}")
    return _merge(DEFAULTS[kind], {**user, **{k: v for k, v in overrides.items() if v is not None}})


def _fit_flow(cfg: dict, seed: int, inlier_set, contrastive_set=None, **extra):
    """cfg's model built from seed and trained on the sets, and its history."""
    tc = TrainConfig(**{**cfg["train"], "seed": seed, **extra})
    model = flows.build_model(inlier_set.dim, FlowConfig(**cfg["model"]), seed)
    return training.train(model, inlier_set, contrastive_set, tc)


def _out_dir(cfg: dict) -> Path:
    out = cfg.get("out")
    if not out:
        raise ConfigError("an output directory is required (--out)")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _load_features(what: str, paths: list) -> list:
    """The feature sets of paths (None for a path of None), checked to share
    one dimension before any fit, which would otherwise fail only when a
    fitted model first meets the odd file out."""
    sets = [None if p is None else datasets.load_features(p) for p in paths]
    loaded = [(p, fs) for p, fs in zip(paths, sets) if fs is not None]
    if len({fs.dim for _, fs in loaded}) > 1:
        raise DimensionError(f"{what} feature files disagree on dimension: " + ", ".join(
            f"{p} has {fs.dim} columns" for p, fs in loaded))
    return sets


def _write_json(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def _write_density(path: Path, gd: oracle.GridDensity) -> None:
    header = ["x", "y"][:gd.ndim] + ["density"]
    datasets.write_csv(path, header,
                       np.column_stack([oracle.grid_points(gd.axes), gd.values.ravel()]))


# ---------------------------------------------------------------------------
# toy experiments

def _toy1d_parts(cfg: dict):
    p = oracle.GaussianSpec(cfg["inlier"]["mean"], cfg["inlier"]["sd"])
    q = oracle.GaussianSpec(cfg["contrastive"]["mean"], cfg["contrastive"]["sd"])
    grid = oracle.grid_1d(cfg["grid"]["lo"], cfg["grid"]["hi"], cfg["grid"]["n"])
    return p, q, grid


def _learned_toy1d(cfg: dict, epsilon: float, grid):
    """The density on grid of the 1-D flow trained with clamp threshold
    -epsilon, and its training history."""
    seed = cfg["seed"]
    inl = datasets.gen_gaussian(cfg["inlier"]["mean"], cfg["inlier"]["sd"],
                                cfg["n_train"], seed=seed + 11)
    con = datasets.gen_gaussian(cfg["contrastive"]["mean"], cfg["contrastive"]["sd"],
                                cfg["n_contrastive"], seed=seed + 22)
    model, history = _fit_flow(cfg, seed, inl, con, clamp_tau=-epsilon)
    return oracle.model_density_on_grid(partial(flows.log_prob, model), grid), history


def run_toy1d(cfg: dict) -> dict:
    out = _out_dir(cfg)
    p, q, grid = _toy1d_parts(cfg)
    pbar = oracle.positive_difference(p, q, grid)
    learned, history = _learned_toy1d(cfg, cfg["epsilon"], grid)
    tv = oracle.tv_distance(learned, pbar)
    _write_density(out / "learned_density.csv", learned)
    _write_density(out / "oracle_density.csv", pbar)
    result = {
        "tv": tv,
        "oracle_integral": pbar.integral(),
        "model_integral": learned.integral(),
        "epsilon": cfg["epsilon"],
        "seed": cfg["seed"],
    }
    _write_json(out / "tv.json", result)
    _write_json(out / "history.json", history.to_json_dict())
    return result


def run_clamp_sweep(cfg: dict) -> list[dict]:
    out = _out_dir(cfg)
    p, q, grid = _toy1d_parts(cfg)
    pbar = oracle.positive_difference(p, q, grid)
    p_density = oracle.GridDensity(grid, oracle.density_values(p, oracle.grid_points(grid)))
    results = []
    fits = run_tasks([partial(_learned_toy1d, cfg, eps, grid) for eps in cfg["epsilons"]])
    for k, (eps, (learned, _)) in enumerate(zip(cfg["epsilons"], fits)):
        _write_density(out / f"learned_density_eps{k}.csv", learned)
        results.append({
            "epsilon": eps,
            "tv_pbar": oracle.tv_distance(learned, pbar),
            "tv_p": oracle.tv_distance(learned, p_density),
        })
    _write_json(out / "tvs.json", results)
    return results


def run_toy2d(cfg: dict) -> dict:
    out = _out_dir(cfg)
    seed = cfg["seed"]
    for key in ("inlier_mean", "contrastive_mean"):
        if len(cfg[key]) != 2:
            raise ConfigError(f"{key} must hold 2 values, got {cfg[key]!r}")
    inl = datasets.gen_gaussian(cfg["inlier_mean"], 1.0, cfg["n_train"], seed=seed + 11)
    con = datasets.gen_gaussian(cfg["contrastive_mean"], 1.0, cfg["n_contrastive"], seed=seed + 22)
    (cf, _), (flow_in, _), (flow_contr, _) = run_tasks([
        partial(_fit_flow, cfg, seed, inl, con, clamp_tau=-cfg["epsilon"]),
        partial(_fit_flow, cfg, seed + 1, inl, objective="nll"),
        partial(_fit_flow, cfg, seed + 2, con, objective="nll")])

    grid = oracle.grid_2d(cfg["grid"]["lo"], cfg["grid"]["hi"], cfg["grid"]["n"])
    # exponential of the in-distribution score (= exp(log p) for the CF model,
    # exp(log p_in - log p_contr) for the ratio method)
    _write_density(out / "cf_grid.csv",
                   oracle.model_density_on_grid(partial(flows.log_prob, cf), grid))
    _write_density(out / "ratio_grid.csv", oracle.model_density_on_grid(
        lambda x: -baselines.ratio_score(flow_in, flow_contr, x), grid))

    datasets.write_csv(out / "samples.csv", ["x", "y", "label"],
                       [(x, y, label) for label, fs in (("inlier", inl), ("contrastive", con))
                        for x, y in fs.data[:cfg["n_scatter"]]])

    corner = np.array([[-5.0, -5.0]])
    center = np.array([[cfg["inlier_mean"][0], cfg["inlier_mean"][1]]])
    fresh_inliers = datasets.gen_gaussian(cfg["inlier_mean"], 1.0, 2000, seed=seed + 33)
    inlier_density = np.exp(flows.log_prob(cf, fresh_inliers.data))
    summary = {
        "cf_corner": float(np.exp(flows.log_prob(cf, corner))[0]),
        "cf_center": float(np.exp(flows.log_prob(cf, center))[0]),
        "cf_inlier_p01": float(np.percentile(inlier_density, 1.0)),
        "ratio_corner": float(np.exp(-baselines.ratio_score(flow_in, flow_contr, corner))[0]),
        "ratio_center": float(np.exp(-baselines.ratio_score(flow_in, flow_contr, center))[0]),
        "seed": seed,
    }
    _write_json(out / "summary.json", summary)
    return summary


# ---------------------------------------------------------------------------
# mixture sweeps on synthetic clusters (or supplied feature files)

def _load_bench(cfg: dict) -> datasets.ClusterBenchmark:
    b = dict(cfg["bench"])
    file_keys = ("inlier_path", "hard_path", "rest_path", "broad_path")
    paths = {k: b.pop(k, None) for k in file_keys}
    if any(paths.values()):
        if not all(paths.values()):
            raise ConfigError(f"feature-file benchmarks need all of {file_keys}")
        inl, hard, rest, broad = _load_features("bench", list(paths.values()))
        inl_train, inl_extra, inl_test = datasets.split(inl, (0.5, 0.3, 0.2), cfg["seed"])
        hard_pool, hard_test = datasets.split(hard, (0.7, 0.3), cfg["seed"] + 1)
        broad_pool, broad_val = datasets.split(broad, (0.85, 0.15), cfg["seed"] + 2)
        return datasets.ClusterBenchmark(inl_train, inl_extra, inl_test,
                                         hard_pool, hard_test, rest, broad_pool, broad_val)
    return datasets.cluster_benchmark(**b)


def run_mu_sweep(cfg: dict) -> list[dict]:
    out = _out_dir(cfg)
    variant = cfg["variant"]
    if variant not in ("contaminated", "informed"):
        raise ConfigError(f"unknown mu-sweep variant {variant!r}")
    methods = check_methods(cfg["methods"])
    reps = cfg["reps"]
    if reps < 1:
        raise ConfigError(f"reps must be a positive integer, got {reps!r}")
    bench = _load_bench(cfg)
    fc = FlowConfig(**cfg["model"])
    base_tc = TrainConfig(**cfg["train"])
    contaminant = bench.inlier_extra if variant == "contaminated" else bench.hard_pool

    def aurocs(m, contr, rep):
        score = fit_method(m, bench.inlier_train, contr, base_tc, cfg["seed"] + rep, fc,
                           val_contrastive=bench.broad_val)
        s_in = score(bench.inlier_test.data)
        return (metrics.auroc(s_in, score(bench.hard_test.data)),
                metrics.auroc(s_in, score(bench.rest_test.data)))

    # one task per fit, keyed by (method, mu index, rep); a method that reads no
    # contrastive set has the same AUROCs at every mu: one fit per rep, first,
    # under mu index None.  Every mixture is made, so checked, before any fit
    contrastive = [m for m in methods if m in CONTRASTIVE_METHODS]
    tasks = {(m, None, rep): partial(aurocs, m, None, rep)
             for m in methods if m not in contrastive for rep in range(reps)}
    for j, mu in enumerate(cfg["mu_grid"]):
        for rep in range(reps):
            contr = datasets.mix_datasets(datasets.MixSpec(
                bench.broad_pool, contaminant, mu, cfg["contrastive_total"],
                seed=cfg["seed"] + rep + 7000))
            tasks.update({(m, j, rep): partial(aurocs, m, contr, rep) for m in contrastive})
    fitted = dict(zip(tasks, run_tasks(list(tasks.values()))))
    rows = []
    for j, mu in enumerate(cfg["mu_grid"]):
        for m in methods:
            vals = np.array([fitted[m, j if m in contrastive else None, rep]
                             for rep in range(reps)])
            hard_mean = 100.0 * float(vals[:, 0].mean())
            rest_mean = 100.0 * float(vals[:, 1].mean())
            sd = 100.0 * float(vals[:, 0].std())
            rows.append({"method": m, "mu": mu, "auroc_hard": hard_mean,
                         "auroc_rest": rest_mean, "sd": sd})
    datasets.write_csv(out / "mu_sweep.csv", ["method", "mu", "auroc_hard", "auroc_rest", "sd"],
                       (row.values() for row in rows))
    _write_json(out / "mu_sweep.json", {"variant": variant, "rows": rows})
    return rows


# ---------------------------------------------------------------------------
# tabular experiment

def _tabular_data(cfg: dict, seed: int):
    if cfg["data_path"]:
        fs = datasets.load_features(cfg["data_path"])
        if fs.labels is None:
            raise ConfigError("tabular data file needs a label column")
        inliers = fs.take(np.flatnonzero(fs.labels == datasets.LABEL_INLIER))
        outliers = fs.take(np.flatnonzero(fs.labels == datasets.LABEL_OUTLIER))
        if outliers.n == 0:
            raise ConfigError("tabular data has no outlier rows")
        return inliers, outliers
    s = cfg["synthetic"]
    d = s["dim"]
    cov = np.full((d, d), s["correlation"]) + (1.0 - s["correlation"]) * np.eye(d)
    inliers = datasets.gen_gaussian(np.zeros(d), cov, s["n_inlier"], seed + 31)
    outliers = datasets.gen_gaussian(np.zeros(d), s["outlier_sd"], s["n_outlier"], seed + 32)
    return inliers, outliers


def run_tabular(cfg: dict) -> dict:
    out = _out_dir(cfg)
    methods = check_methods(cfg["methods"])
    seed = cfg["seed"]
    inliers, outliers = _tabular_data(cfg, seed)
    train_in, test_in = datasets.split(inliers, (1.0 - cfg["test_fraction"],
                                                 cfg["test_fraction"]), seed)
    contrastive = datasets.permute_marginals(train_in, seed + 33)
    fc = FlowConfig(**cfg["model"])
    tc = TrainConfig(**cfg["train"])

    def score_report(m):
        score = fit_method(m, train_in, contrastive, tc, seed, fc)
        return metrics.ScoreReport(m, score(test_in.data), score(outliers.data))

    report = {}
    for sr in run_tasks([partial(score_report, m) for m in methods]):
        _write_json(out / f"scores_{sr.method}.json", sr.to_json_dict())
        report[sr.method] = {"auroc": sr.auroc, "auroc_pct": 100.0 * sr.auroc}
    _write_json(out / "tabular_report.json", report)
    return report


# ---------------------------------------------------------------------------
# pipeline subcommands: train / score / eval / report

def run_train(cfg: dict) -> dict:
    out = _out_dir(cfg)
    if not cfg["data_path"]:
        raise ConfigError("train needs data_path")
    inl, contr = _load_features("train", [cfg["data_path"], cfg["contrastive_path"] or None])
    model, history = _fit_flow(cfg, cfg["seed"], inl, contr, objective=cfg["objective"])
    flows.save_model(model, out / cfg["model_out"])
    _write_json(out / cfg["history_out"], history.to_json_dict())
    return {"model": str(out / cfg["model_out"]), "epochs": len(history.train_loss),
            "best_epoch": history.best_epoch}


def run_score(cfg: dict) -> dict:
    out = _out_dir(cfg)
    if not cfg["model_path"] or not cfg["data_path"]:
        raise ConfigError("score needs model_path and data_path")
    model = flows.load_model(cfg["model_path"])
    fs = datasets.load_features(cfg["data_path"])
    scores = metrics.outlier_score(model, fs.data)
    datasets.write_columns(out / cfg["scores_out"], ["score"], scores[:, None], fs.labels)
    return {"n": fs.n, "scores": str(out / cfg["scores_out"])}


def _read_score_file(path) -> tuple[np.ndarray, np.ndarray | None]:
    """Scores and optional labels of a CSV written by `cnflow score`."""
    fs = datasets.load_features(path, "csv")
    if fs.dim != 1:
        raise FormatError(f"{path}: expected one score column, got {fs.dim}")
    return fs.data[:, 0], fs.labels


def run_eval(cfg: dict) -> dict:
    out = _out_dir(cfg)
    if bool(cfg["paired_a"]) != bool(cfg["paired_b"]):
        raise ConfigError("eval needs both of paired_a and paired_b, or neither")
    if cfg["inlier_scores"] and cfg["outlier_scores"]:
        s_in, _ = _read_score_file(cfg["inlier_scores"])
        s_out, _ = _read_score_file(cfg["outlier_scores"])
    elif cfg["inlier_scores"]:
        scores, labels = _read_score_file(cfg["inlier_scores"])
        if labels is None:
            raise ConfigError("single score file needs a label column")
        s_in = scores[labels == datasets.LABEL_INLIER]
        s_out = scores[labels != datasets.LABEL_INLIER]
    else:
        raise ConfigError("eval needs score files")
    sr = metrics.ScoreReport(cfg["method"], s_in, s_out, n_bins=cfg["n_bins"])
    result = sr.to_json_dict()
    if cfg["paired_a"]:
        a, _ = _read_score_file(cfg["paired_a"])
        b, _ = _read_score_file(cfg["paired_b"])
        result["wilcoxon_p"] = metrics.wilcoxon_signed_rank(a, b)
    _write_json(out / cfg["report_out"], result)
    datasets.write_csv(out / cfg["roc_out"], ["fpr", "tpr"], sr.roc)
    datasets.write_csv(out / cfg["hist_out"], ["edge", "count_in", "count_out"],
                       zip(sr.hist_edges, sr.hist_inlier, sr.hist_outlier))
    return result


def run_report(cfg: dict) -> dict:
    out = _out_dir(cfg)
    methods = check_methods(cfg["methods"])
    seed = cfg["seed"]
    if cfg["class_paths"]:
        *class_sets, contrastive = _load_features(
            "report", [*cfg["class_paths"], cfg["contrastive_path"] or None])
        names = [Path(p).stem for p in cfg["class_paths"]]
    else:
        s = cfg["synthetic"]
        d, k = s["dim"], s["n_classes"]
        if k > d:
            raise ConfigError("synthetic report needs n_classes <= dim")
        class_sets = [
            datasets.gen_gaussian(s["radius"] * np.eye(d)[i], s["cluster_sd"],
                                  s["n_per_class"], seed + 41 + i)
            for i in range(k)
        ]
        names = [f"class{i}" for i in range(k)]
        contrastive = datasets.gen_gaussian(np.zeros(d), s["broad_sd"], s["n_broad"], seed + 40)
    if len(class_sets) < 2:
        raise DegenerateDataError(f"report needs at least 2 classes, got {len(class_sets)}")
    fractions = (1.0 - cfg["test_fraction"], cfg["test_fraction"])
    fc = FlowConfig(**cfg["model"])
    tc = TrainConfig(**cfg["train"])

    def matrix_row(m, i):
        train_part, test_part = datasets.split(class_sets[i], fractions, seed + i)
        score = fit_method(m, train_part, contrastive, tc, seed + i, fc)
        s_in = score(test_part.data)
        return [metrics.auroc(s_in, score(other.data))
                for j, other in enumerate(class_sets) if j != i]

    # one task per (method, inlier class)
    tasks = {(m, i): partial(matrix_row, m, i) for m in methods for i in range(len(names))}
    fitted = dict(zip(tasks, run_tasks(list(tasks.values()))))
    summary, row_means = {}, {}
    for m in methods:
        matrix = np.array([fitted[m, i] for i in range(len(names))])
        row_means[m] = matrix.mean(axis=1)
        rows = []
        for i, name in enumerate(names):
            cells = [f"{100.0 * v:.2f}" for v in matrix[i]]
            cells.insert(i, "")  # no AUROC of a class against itself
            rows.append([name, *cells, f"{100.0 * row_means[m][i]:.2f}"])
        datasets.write_csv(out / f"confusion_{m}.csv",
                           ["inlier", *(f"vs_{n}" for n in names), "mean"], rows)
        summary[m] = {
            "row_means_pct": [100.0 * v for v in row_means[m]],
            "mean_pct": 100.0 * float(row_means[m].mean()),
        }
    if len(methods) >= 2:
        a, b = methods[0], methods[1]
        summary["wilcoxon"] = {
            "a": a, "b": b,
            "p_one_sided_a_gt_b": metrics.wilcoxon_signed_rank(row_means[a], row_means[b]),
        }
    _write_json(out / "report.json", summary)
    return summary


# ---------------------------------------------------------------------------
# argument parsing

RUNNERS = {
    "toy1d": run_toy1d,
    "toy2d": run_toy2d,
    "clamp-sweep": run_clamp_sweep,
    "mu-sweep": run_mu_sweep,
    "informed": run_mu_sweep,
    "tabular": run_tabular,
    "train": run_train,
    "score": run_score,
    "eval": run_eval,
    "report": run_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="cnflow",
                                     description="contrastive flow experiment runner")
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in RUNNERS:
        p = sub.add_parser(kind)
        p.add_argument("--config", default=None, help="JSON config file")
        p.add_argument("--seed", type=int, default=None, help="root seed override")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--method", default=None,
                       help="comma-separated method list override")
        p.add_argument("--reps", type=int, default=None, help="repetitions override")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    methods = None if args.method is None else args.method.split(",")
    overrides = {"seed": args.seed, "out": args.out, "reps": args.reps, "methods": methods}
    try:
        cfg = load_config(args.kind, args.config, overrides)
        result = RUNNERS[args.kind](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (OSError, FormatError) as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, MemoryError) as exc:
        # errors.py's input errors, the range checks of the library and
        # sizes too large to allocate
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except NumericError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result, indent=2))
    return 0


if __name__ == "__main__":
    sys.exit(main())
