"""Fit-and-score dispatch for the method names used across experiments
(cf, cf_ft, nll_flow, flow_ratio, mse, mse_ratio) and the one-vs-rest
driver built on it."""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

from . import baselines
from .datasets import split
from .diffcore import as_batch, run_tasks
from .errors import ConfigError, DegenerateDataError
from .flows import FlowConfig, build_model
from .metrics import auroc, outlier_score
from .training import TrainConfig, train

Array = np.ndarray

METHODS = ("cf", "cf_ft", "nll_flow", "flow_ratio", "mse", "mse_ratio")
CONTRASTIVE_METHODS = ("cf", "cf_ft", "flow_ratio", "mse_ratio")
# single-flow methods and the training objective of their flow
FLOW_OBJECTIVES = {"nll_flow": "nll", "cf": "contrastive", "cf_ft": "cf_ft"}


def check_methods(names) -> None:
    """Raise ConfigError naming the first of names that is not in METHODS."""
    for name in names:
        if name not in METHODS:
            raise ConfigError(f"unknown method {name!r}; pick from {METHODS}")


def fit_method(name: str, train_in, contrastive, cfg: TrainConfig,
               seed: int, flow_config: FlowConfig | None = None,
               val_contrastive=None) -> Callable[[Array], Array]:
    """Fit the named method and return its outlier-score function."""
    check_methods([name])
    if name in CONTRASTIVE_METHODS and contrastive is None:
        raise ConfigError(f"method {name!r} needs a contrastive set")
    if flow_config is None:
        flow_config = FlowConfig()
    dim = as_batch(train_in).shape[1]
    cfg = replace(cfg, seed=seed)

    if name == "mse":
        model = baselines.fit_mse(train_in)
        return lambda x: baselines.mse_score(model, x)
    if name == "mse_ratio":
        model = baselines.fit_mse(train_in, contrastive)
        return lambda x: baselines.mse_ratio_score(model, x)
    if name == "flow_ratio":
        # both component flows are plain density estimators with the same
        # validation-NLL stopping rule, so the degenerate case where both
        # train on the same distribution stays symmetric
        flow_in = build_model(dim, flow_config, seed)
        train(flow_in, train_in, None, replace(cfg, objective="nll"))
        flow_contr = build_model(dim, flow_config, seed + 1)
        train(flow_contr, contrastive, None, replace(cfg, objective="nll"))
        return lambda x: baselines.ratio_score(flow_in, flow_contr, x)
    flow = build_model(dim, flow_config, seed)
    train(flow, train_in, contrastive, replace(cfg, objective=FLOW_OBJECTIVES[name]),
          val_contrastive_set=val_contrastive)
    return lambda x: outlier_score(flow, x)


@dataclass
class OneVsRestResult:
    matrix: Array      # (k, k-1): row = inlier class, columns = other classes in order
    row_means: Array   # (k,)


def one_vs_rest(class_sets, method: str, cfg, contrastive=None,
                root_seed: int = 0, test_fraction: float = 0.2,
                flow_config=None) -> OneVsRestResult:
    """Train/fit once per inlier class, one run_tasks task each, and report
    the AUROC against each other class plus the row mean."""
    if len(class_sets) < 2:
        raise DegenerateDataError("one_vs_rest needs at least 2 classes")

    def matrix_row(i: int) -> list[float]:
        seed = root_seed + i
        train_part, test_part = split(class_sets[i], (1.0 - test_fraction, test_fraction), seed)
        score = fit_method(method, train_part, contrastive, cfg, seed, flow_config)
        s_in = score(test_part.data)
        return [auroc(s_in, score(other.data)) for j, other in enumerate(class_sets) if j != i]

    matrix = np.array(run_tasks([partial(matrix_row, i) for i in range(len(class_sets))]))
    return OneVsRestResult(matrix, matrix.mean(axis=1))
