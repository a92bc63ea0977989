"""Reference implementations that tests compare the package against: a
central-difference gradient, the trapezoid area under ROC points, the
contrastive objective in two passes over its contrastive batch and the
Adam step one parameter at a time; and a ParamStore built from arrays."""

import math
from typing import Callable

import numpy as np

from cnflow.diffcore import ParamStore
from cnflow.errors import NumericError
from cnflow.flows import FlowModel, log_prob, weighted_nll_grad

Array = np.ndarray


def store_of(arrays: dict[str, Array]) -> ParamStore:
    """A ParamStore holding copies of the named arrays."""
    store = ParamStore({name: np.shape(value) for name, value in arrays.items()})
    for name, value in arrays.items():
        store.params[name][...] = value
    return store


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


def per_name_adam_step(store: ParamStore, grads: dict[str, Array], lr: float,
                       beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8) -> None:
    """The Adam step of diffcore.adam_step run one parameter at a time,
    each through the whole operation chain, with scratch arrays sized to
    the largest parameter."""
    for name in store.params:
        if not np.all(np.isfinite(grads[name])):
            raise NumericError(f"non-finite gradient for {name!r}; parameters unchanged")
    t = store.step + 1
    c1 = 1.0 - beta1 ** t
    c2 = 1.0 - beta2 ** t
    size = max((p.size for p in store.params.values()), default=0)
    scratch_a, scratch_b = np.empty(size), np.empty(size)
    for name, p in store.params.items():
        g = grads[name]
        m = store.m[name]
        v = store.v[name]
        a = scratch_a[:p.size].reshape(p.shape)
        b = scratch_b[:p.size].reshape(p.shape)
        m *= beta1
        np.multiply(1.0 - beta1, g, out=a)
        m += a
        v *= beta2
        np.multiply(1.0 - beta2, g, out=a)
        a *= g
        v += a
        np.divide(v, c2, out=b)
        np.sqrt(b, out=b)
        b += eps
        np.divide(m, c1, out=a)
        np.multiply(lr, a, out=a)
        a /= b
        p -= a
    store.step = t
