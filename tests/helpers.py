"""Reference implementations that tests compare the package against: a
central-difference gradient and the trapezoid area under ROC points."""

import math
from typing import Callable

import numpy as np

from cnflow.diffcore import ParamStore
from cnflow.errors import NumericError

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
