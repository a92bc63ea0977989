"""Reference implementations that tests compare the package against: a
central-difference gradient, the trapezoid area under ROC points, the
cached flow pass with a conditioner cache of its own per coupling block,
the contrastive objective in two passes over its contrastive batch, the
Adam step one parameter at a time and the closed-form support of the
positive difference of two 1-D Gaussians; and a ParamStore built from
arrays."""

import math
from typing import Callable

import numpy as np

from cnflow.diffcore import FlatViews, ParamStore, mlp_backward, mlp_forward
from cnflow.errors import DimensionError, NumericError
from cnflow.flows import FlowModel, log_prob, weighted_nll_grad
from cnflow.oracle import LOG_2PI, GaussianSpec

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


def per_block_nll_with_backward(model: FlowModel, x: Array, weights: Array,
                                into: FlatViews | None = None) -> tuple[Array, FlatViews]:
    """The per-sample NLL of the rows of x and the gradient of
    sum_i weights_i * nll_i (added into `into` when one is given), as
    flows.nll_with_backward computes them, but with fresh arrays
    throughout: each coupling block's conditioner runs through mlp_forward
    and mlp_backward with a cache of its own, so no activation is shared
    between blocks or computed again."""
    z = np.asarray(x, dtype=np.float64)
    alpha = model.config.clamp_alpha
    logdet = np.zeros(z.shape[0])
    kept = []
    for block in model.blocks:
        cond, trans = z[:, block.perm[:block.d_cond]], z[:, block.perm[block.d_cond:]]
        raw, cache = mlp_forward(model.store, block.subnet, cond, block.prefix)
        th = np.tanh(raw[:, :block.d_trans] / alpha)
        s = alpha * th
        logdet += s.sum(axis=1)
        exp_s = np.exp(s)
        z = np.concatenate([cond, trans * exp_s + raw[:, block.d_trans:]], axis=1)
        kept.append((block, cache, trans, th, exp_s))
    nll = 0.5 * np.sum(z * z, axis=1) + 0.5 * model.dim * LOG_2PI - logdet
    g, dld = weights[:, None] * z, -weights
    grads = model.store.new_grad() if into is None else into
    for block, cache, trans, th, exp_s in reversed(kept):
        g_cond, g_out = g[:, :block.d_cond], g[:, block.d_cond:]
        d_s = (g_out * trans * exp_s + dld[:, None]) * (1.0 - th * th)
        _, g_in = mlp_backward(cache, np.concatenate([d_s, g_out], axis=1), grads,
                               into is not None)
        g = np.empty_like(g)
        g[:, block.perm] = np.concatenate([g_cond + g_in, g_out * exp_s], axis=1)
    return nll, grads


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


def difference_support_1d(p: GaussianSpec, q: GaussianSpec) -> list[tuple[float, float]]:
    """Intervals where p > q for two 1-D Gaussians, from the closed-form
    quadratic obtained by equating log densities."""
    if p.dim != 1 or q.dim != 1:
        raise DimensionError("difference_support_1d needs 1-D Gaussians")
    m1, s1 = float(p.mean[0]), float(p.scale[0] if p.is_diagonal else math.sqrt(p.scale[0, 0]))
    m2, s2 = float(q.mean[0]), float(q.scale[0] if q.is_diagonal else math.sqrt(q.scale[0, 0]))
    if m1 == m2 and s1 == s2:
        raise ValueError("identical Gaussians: support of p > q is undefined")
    # log p - log q = a x^2 + b x + c
    a = 0.5 / s2 ** 2 - 0.5 / s1 ** 2
    b = m1 / s1 ** 2 - m2 / s2 ** 2
    c = 0.5 * m2 ** 2 / s2 ** 2 - 0.5 * m1 ** 2 / s1 ** 2 + math.log(s2 / s1)
    if a == 0.0:
        # equal variances: single crossing at the weighted midpoint
        x0 = -c / b
        return [(-math.inf, x0)] if b < 0 else [(x0, math.inf)]
    disc = b * b - 4.0 * a * c
    if disc <= 0.0:
        raise ValueError("log-density quadratic has no real crossing; check the specs")
    r1 = (-b - math.sqrt(disc)) / (2.0 * a)
    r2 = (-b + math.sqrt(disc)) / (2.0 * a)
    lo, hi = min(r1, r2), max(r1, r2)
    if a < 0.0:
        # q has the heavier tails: p wins between the roots
        return [(lo, hi)]
    # p has the heavier tails: p wins outside the roots
    return [(-math.inf, lo), (hi, math.inf)]
