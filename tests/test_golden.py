"""Same-behaviour gate: reduced configs of every subcommand, run through
cli.main, must write artifacts whose sha256 digests match the committed
tests/golden_digests.json byte for byte.

A refactor that changes any artifact byte (a reordered sum, a different
float format, a renamed column) fails here.  The digests are tied to the
float64 arithmetic of numpy/OpenBLAS on x86-64; regenerate them only for
a deliberate output change, and say why in the change log.
"""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from cnflow import cli
from cnflow.datasets import FeatureSet, gen_gaussian, save_features

DIGESTS = Path(__file__).with_name("golden_digests.json")

TOY1D = {
    "n_train": 600, "n_contrastive": 600,
    "grid": {"lo": -6.0, "hi": 6.0, "n": 201},
    "model": {"n_blocks": 2, "hidden_width": 8},
    "train": {"batch_size": 256, "max_epochs": 2},
}
SMALL_MODEL = {"n_blocks": 2, "hidden_width": 8}
SMALL_TRAIN = {"batch_size": 128, "max_epochs": 2, "patience": 2,
               "val_fraction": 0.1, "clamp_tau": 12.0}
SWEEP = {
    "reps": 1, "mu_grid": [0.5, 1.0], "contrastive_total": 200,
    "bench": {"dim": 3, "seed": 1, "n_train": 200, "n_test": 60, "n_pool": 400},
    "model": SMALL_MODEL, "train": SMALL_TRAIN,
}


def _inputs(root: Path) -> dict[str, str]:
    """Seeded feature files for the file-driven subcommands."""
    root.mkdir()
    labelled = gen_gaussian([0.0, 0.0, 0.0], 1.0, 90, seed=3)
    labels = np.arange(90) % 3
    sets = {
        "inl": gen_gaussian([1.5, 0.0, 0.0], 0.5, 300, seed=0),
        "contr": gen_gaussian([0.0, 0.0, 0.0], 2.0, 300, seed=1),
        "outl": gen_gaussian([-1.5, 0.0, 0.0], 0.5, 80, seed=2),
        "labelled": FeatureSet(labelled.data, labels),
        "inl1": gen_gaussian([0.0], 1.0, 300, seed=4),
        "contr1": gen_gaussian([1.0], 2.0, 300, seed=5),
        "inl8": gen_gaussian([0.5] * 8, 1.0, 1200, seed=6),
        "contr8": gen_gaussian([0.0] * 8, 2.0, 1200, seed=7),
    }
    paths = {}
    for name, fs in sets.items():
        paths[name] = str(root / f"{name}.cftr")
        save_features(fs, paths[name])
    paths["labelled_csv"] = str(root / "labelled.csv")
    save_features(sets["labelled"], paths["labelled_csv"])
    return paths


def _runs(paths: dict[str, str], out: Path) -> list[tuple[str, str, dict]]:
    """(run name, subcommand, config) in execution order; later runs read
    the artifacts of earlier ones."""
    train = {"model": SMALL_MODEL, "train": {**SMALL_TRAIN, "max_epochs": 3}}
    return [
        ("toy1d", "toy1d", TOY1D),
        ("clamp-sweep", "clamp-sweep", {**TOY1D, "epsilons": [0.0, -6.0]}),
        ("toy2d", "toy2d", {"n_train": 400, "n_contrastive": 400, "n_scatter": 20,
                            "grid": {"lo": -6.0, "hi": 6.0, "n": 7},
                            "model": SMALL_MODEL,
                            "train": {"batch_size": 128, "max_epochs": 2}}),
        ("mu-sweep", "mu-sweep", {**SWEEP, "methods": [
            "cf", "cf_ft", "nll_flow", "flow_ratio", "mse", "mse_ratio"]}),
        ("mu-sweep-reps", "mu-sweep", {**SWEEP, "reps": 2, "mu_grid": [0.5, 0.5, 1.0],
                                       "methods": ["nll_flow", "mse", "mse_ratio", "cf"]}),
        ("informed", "informed", SWEEP),
        ("tabular", "tabular", {"synthetic": {"dim": 3, "n_inlier": 300, "n_outlier": 60},
                                "model": SMALL_MODEL, "train": SMALL_TRAIN}),
        ("report", "report", {"methods": ["cf", "mse"],
                              "synthetic": {"dim": 3, "n_classes": 3, "n_per_class": 100,
                                            "n_broad": 300},
                              "model": SMALL_MODEL, "train": SMALL_TRAIN}),
        ("report-files", "report", {"methods": ["mse_ratio"],
                                    "class_paths": [paths["inl"], paths["outl"]],
                                    "contrastive_path": paths["contr"]}),
        ("train", "train", {"data_path": paths["inl"], "contrastive_path": paths["contr"],
                            **train}),
        ("train-dim1", "train", {"data_path": paths["inl1"],
                                 "contrastive_path": paths["contr1"], **train}),
        ("train-cf_ft", "train", {"data_path": paths["inl"], "contrastive_path": paths["contr"],
                                  "objective": "cf_ft", **train}),
        # the shape of the sweep-d8 benchmark: width 64 and batch 512, whose
        # 1080 training rows end in a short batch, with the clamp active
        ("train-d8", "train", {"data_path": paths["inl8"], "contrastive_path": paths["contr8"],
                               "model": {"n_blocks": 3, "hidden_width": 64},
                               "train": {**SMALL_TRAIN, "batch_size": 512}}),
        ("score-in", "score", {"model_path": str(out / "train" / "model.cflw"),
                               "data_path": paths["inl"]}),
        ("score-out", "score", {"model_path": str(out / "train" / "model.cflw"),
                                "data_path": paths["outl"]}),
        ("score-in-cf_ft", "score", {"model_path": str(out / "train-cf_ft" / "model.cflw"),
                                     "data_path": paths["inl"]}),
        ("score-labelled", "score", {"model_path": str(out / "train" / "model.cflw"),
                                     "data_path": paths["labelled_csv"]}),
        ("score-dim1", "score", {"model_path": str(out / "train-dim1" / "model.cflw"),
                                 "data_path": paths["contr1"]}),
        ("eval", "eval", {"inlier_scores": str(out / "score-in" / "scores.csv"),
                          "outlier_scores": str(out / "score-out" / "scores.csv"),
                          "paired_a": str(out / "score-in" / "scores.csv"),
                          "paired_b": str(out / "score-in-cf_ft" / "scores.csv"),
                          "n_bins": 10}),
        ("eval-labelled", "eval", {"inlier_scores": str(out / "score-labelled" / "scores.csv"),
                                   "method": "labelled"}),
    ]


def artifact_digests(tmp_path: Path) -> dict[str, str]:
    """Run every reduced config and return {run/artifact: sha256}."""
    paths = _inputs(tmp_path / "inputs")
    out = tmp_path / "runs"
    for name, kind, cfg in _runs(paths, out):
        cfg_path = tmp_path / f"{name}.json"
        cfg_path.write_text(json.dumps(cfg))
        rc = cli.main([kind, "--config", str(cfg_path), "--out", str(out / name)])
        assert rc == 0, name
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def test_artifacts_match_golden_digests(tmp_path):
    expected = json.loads(DIGESTS.read_text())
    got = artifact_digests(tmp_path)
    assert sorted(got) == sorted(expected)
    changed = [name for name in expected if got[name] != expected[name]]
    assert changed == []


# the subprocess gate: BLAS at one thread from the start, so every
# forward-only pass runs serially and every matmul on one BLAS thread
ONE_THREAD_GATE = """
import json, sys
from pathlib import Path
from cnflow import diffcore
import test_golden
assert diffcore.blas_threads() == 1, diffcore.blas_threads()
expected = json.loads(test_golden.DIGESTS.read_text())
got = test_golden.artifact_digests(Path(sys.argv[1]))
assert sorted(got) == sorted(expected), sorted(set(got) ^ set(expected))
changed = [name for name in expected if got[name] != expected[name]]
assert changed == [], changed
"""


def test_artifacts_match_golden_digests_at_one_blas_thread(tmp_path):
    # the gate above runs at the default BLAS thread count; the artifacts
    # must not depend on it
    src = Path(cli.__file__).resolve().parents[1]
    path = [str(src), str(Path(__file__).parent), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": os.pathsep.join(filter(None, path))}
    proc = subprocess.run([sys.executable, "-c", ONE_THREAD_GATE, str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
