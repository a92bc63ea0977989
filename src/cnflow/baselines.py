"""Reference scoring methods: MSE-to-mean, MSE-ratio, and the two-flow
likelihood ratio.  Scores are normalized by the dimension so tolerances
are dimension-independent (a monotone rescaling, so AUROC is unchanged).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .diffcore import as_batch, require_finite
from .errors import DegenerateDataError, DimensionError, NumericError
from .flows import FlowModel, log_prob

Array = np.ndarray


@dataclass
class MseModel:
    mean_in: Array
    mean_contr: Array | None = None

    def __post_init__(self):
        self.mean_in = np.asarray(self.mean_in, dtype=np.float64)
        if self.mean_contr is not None:
            self.mean_contr = np.asarray(self.mean_contr, dtype=np.float64)
            if self.mean_contr.shape != self.mean_in.shape:
                raise DimensionError("contrastive mean dimension mismatch")
        for which, mean in (("inlier", self.mean_in), ("contrastive", self.mean_contr)):
            if mean is not None:
                require_finite(mean, DegenerateDataError, f"{which} mean is not finite")

    @property
    def dim(self) -> int:
        return self.mean_in.shape[0]


def fit_mse(train_in, train_contr=None) -> MseModel:
    with np.errstate(over="ignore"):  # MseModel refuses a mean that overflows
        mean_contr = None if train_contr is None else as_batch(train_contr).mean(axis=0)
        return MseModel(as_batch(train_in).mean(axis=0), mean_contr)


def mse_score(model: MseModel, x) -> Array:
    """||x - mean_in||^2 / D; higher = more outlier."""
    x = as_batch(x, model.dim)
    # a squared distance overflows for finite but huge rows
    with np.errstate(over="ignore"):
        return require_finite(np.sum((x - model.mean_in) ** 2, axis=1) / model.dim,
                              NumericError, "non-finite MSE score")


def mse_ratio_score(model: MseModel, x) -> Array:
    """Difference of normalized squared distances to the two means."""
    if model.mean_contr is None:
        raise DegenerateDataError("mse_ratio_score needs a contrastive mean")
    x = as_batch(x, model.dim)
    with np.errstate(over="ignore", invalid="ignore"):
        d_in = np.sum((x - model.mean_in) ** 2, axis=1)
        d_contr = np.sum((x - model.mean_contr) ** 2, axis=1)
        return require_finite((d_in - d_contr) / model.dim, NumericError, "non-finite MSE score")


def ratio_score(flow_in: FlowModel, flow_contr: FlowModel, x) -> Array:
    """log p_contr(x) - log p_in(x); higher = more outlier."""
    return log_prob(flow_contr, x) - log_prob(flow_in, x)
