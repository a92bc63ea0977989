"""Fit-and-score dispatch for the method names used across experiments
(cf, cf_ft, nll_flow, flow_ratio, mse, mse_ratio)."""

from __future__ import annotations

from dataclasses import replace
from typing import Callable

import numpy as np

from . import baselines
from .diffcore import as_batch
from .errors import ConfigError
from .flows import FlowConfig, build_model
from .metrics import outlier_score
from .training import TrainConfig, train

Array = np.ndarray

METHODS = ("cf", "cf_ft", "nll_flow", "flow_ratio", "mse", "mse_ratio")
CONTRASTIVE_METHODS = ("cf", "cf_ft", "flow_ratio", "mse_ratio")
# single-flow methods and the training objective of their flow
FLOW_OBJECTIVES = {"nll_flow": "nll", "cf": "contrastive", "cf_ft": "cf_ft"}


def check_methods(names) -> list[str]:
    """The distinct names, in first-seen order; ConfigError naming the
    first of names that is not in METHODS."""
    for name in names:
        if name not in METHODS:
            raise ConfigError(f"unknown method {name!r}; pick from {METHODS}")
    return list(dict.fromkeys(names))


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
