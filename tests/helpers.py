"""Reference implementations that tests compare the package against: a
central-difference gradient, the trapezoid area under ROC points and the
contrastive objective in two passes over its contrastive batch."""

import math
from typing import Callable

import numpy as np

from cnflow.diffcore import ParamStore
from cnflow.errors import NumericError
from cnflow.flows import FlowModel, log_prob, weighted_nll_grad

Array = np.ndarray


def finite_difference_grad(loss_fn: Callable[[], float], store: ParamStore,
                           h: float = 1e-5) -> dict[str, Array]:
    """Central differences (L(t+h)-L(t-h))/2h per coordinate.

    loss_fn must be deterministic and read its parameters from `store`.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    out: dict[str, Array] = {}
    for name, arr in store.params.items():
        g = np.zeros_like(arr)
        flat = arr.reshape(-1)
        gflat = g.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            lp = float(loss_fn())
            flat[i] = orig - h
            lm = float(loss_fn())
            flat[i] = orig
            if not (math.isfinite(lp) and math.isfinite(lm)):
                raise NumericError(f"non-finite loss while perturbing {name}[{i}]")
            gflat[i] = (lp - lm) / (2.0 * h)
        out[name] = g
    return out


def roc_area(points: Array) -> float:
    """Trapezoid area under (fpr, tpr) points, as metrics.roc_curve gives them."""
    return float(np.trapezoid(points[:, 1], points[:, 0]))


def two_pass_contrastive(model: FlowModel, pos: Array, neg: Array,
                         tau: float) -> tuple[float, dict[str, Array]]:
    """The clamped contrastive loss and gradients with the contrastive
    batch run forward twice: log_prob finds the rows below the clamp, then
    weighted_nll_grad runs every row again with weight 0 on the others."""
    n, m = pos.shape[0], neg.shape[0]
    nll_pos, grads = weighted_nll_grad(model, pos, np.full(n, 1.0 / n))
    nll_neg = -log_prob(model, neg)
    active = nll_neg < tau
    if np.any(active):
        _, neg_grads = weighted_nll_grad(model, neg, np.where(active, -1.0 / m, 0.0))
        for name, g in neg_grads.items():
            grads[name] += g
    return float(nll_pos.mean() - np.minimum(nll_neg, tau).mean()), grads
