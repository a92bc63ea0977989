"""Training objectives and the epoch loop.

Three objectives: plain NLL, the clamped contrastive objective, and the
finetuning schedule costing a full NLL run followed by a short contrastive
finetune.  The contrastive loss is

    mean_i nll(x_i) - mean_j min(nll(y_j), tau)

with the clamp applied per contrastive sample before averaging, so a
sample whose NLL already exceeds tau contributes zero gradient.  tau is
the NLL-side threshold; it equals minus the log-density bound epsilon
(keep both at 0 to reproduce the saturated default).

Determinism: the inlier and contrastive shuffle streams are spawned
independently from the config seed, so a contrastive run whose clamp
saturates on every sample follows the exact same parameter trajectory as
a plain NLL run with the same seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import metrics
from .diffcore import (FlatViews, adam_step, as_batch, require_finite, require_ints,
                       require_positive_reals)
from .errors import DegenerateDataError, NumericError
from .flows import FlowModel, Workspace, log_prob, nll_with_backward, weighted_nll_grad

Array = np.ndarray

OBJECTIVES = ("nll", "contrastive", "cf_ft")
# contrastive epochs after the NLL run of the cf_ft objective
FINETUNE_EPOCHS = 2


@dataclass
class TrainConfig:
    batch_size: int = 256
    lr: float = 1e-3
    max_epochs: int = 50
    clamp_tau: float = 0.0
    patience: int = 10
    val_fraction: float = 0.1
    seed: int = 0
    objective: str = "contrastive"

    def __post_init__(self):
        require_ints(self, "batch_size", "max_epochs", "patience", "seed")
        require_positive_reals(self, "lr")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not math.isfinite(self.clamp_tau):
            raise ValueError("clamp_tau must be finite")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if not (0.0 <= self.val_fraction < 1.0):
            raise ValueError("val_fraction must lie in [0, 1)")


@dataclass
class TrainHistory:
    train_loss: list[float] = field(default_factory=list)
    proxy_auroc: list[float | None] = field(default_factory=list)
    best_epoch: int = -1
    stopped_early: bool = False

    def to_json_dict(self) -> dict:
        return {
            "epoch": list(range(len(self.train_loss))),
            "train_loss": self.train_loss,
            "proxy_auroc": self.proxy_auroc,
            "best_epoch": self.best_epoch,
            "stopped_early": self.stopped_early,
        }


def _mean(values, what: str) -> float:
    """The mean of finite values; NumericError, not numpy's warning, when their sum overflows."""
    with np.errstate(over="ignore", invalid="ignore"):
        return require_finite(float(np.mean(values)), NumericError, f"{what} is non-finite")


def nll_objective(model: FlowModel, batch, *,
                  workspace: Workspace | None = None) -> tuple[float, FlatViews]:
    """Mean NLL and its exact gradients, from a pass in `workspace` (a
    cached flows.Workspace, a new one by default)."""
    batch = as_batch(batch, model.dim)
    if batch.shape[0] == 0:
        raise DegenerateDataError("empty batch")
    n = batch.shape[0]
    nll, grads = weighted_nll_grad(model, batch, np.full(n, 1.0 / n), workspace=workspace)
    return _mean(nll, "NLL loss"), grads


def contrastive_objective(model: FlowModel, pos_batch, neg_batch, tau: float, *,
                          workspace: Workspace | None = None) -> tuple[float, FlatViews]:
    """Clamped contrastive loss and its exact gradients.

    The inlier half is nll_objective's.  The contrastive batch runs
    forward once.  Contrastive samples with nll >= tau sit on the flat
    part of the clamp and get weight 0 in the backward pass, which runs
    over the whole batch if any sample is below the clamp and not at all
    otherwise, so a fully saturated batch leaves the gradients
    bit-identical to the plain NLL objective.

    Both batches run in `workspace` (a cached flows.Workspace of as many
    rows as the larger batch; by default each pass builds its own).
    """
    neg = as_batch(neg_batch, model.dim)
    m = neg.shape[0]
    if m == 0:
        raise DegenerateDataError("empty contrastive batch")
    loss_pos, grads = nll_objective(model, pos_batch, workspace=workspace)

    def weigh(nll: Array) -> Array | None:
        active = nll < tau
        return np.where(active, -1.0 / m, 0.0) if np.any(active) else None

    # added layer by layer into the inlier gradient: the sum is
    # elementwise pos + neg either way, so no bit changes
    nll_neg, grads = nll_with_backward(model, neg, weigh, into=grads, workspace=workspace)
    loss = loss_pos - _mean(np.minimum(nll_neg, tau), "contrastive loss")
    return require_finite(loss, NumericError, "contrastive loss is non-finite"), grads


def proxy_auroc(model: FlowModel, inlier_val, contrastive_val) -> float:
    """AUROC of outlier scores with contrastive samples as the outlier class."""
    return metrics.auroc(metrics.outlier_score(model, inlier_val),
                         metrics.outlier_score(model, contrastive_val))


def select_epsilon(nll_flow_model: FlowModel, inlier_val, quantile: float = 0.10,
                   offset: float = math.log(10.0)) -> float:
    """Clamp threshold from a pretrained NLL flow: epsilon is the given
    quantile of the validation log densities plus the offset, returned as
    the NLL-side threshold tau = -epsilon."""
    data = as_batch(inlier_val, nll_flow_model.dim)
    if data.shape[0] == 0:
        raise DegenerateDataError("empty validation set")
    logp = log_prob(nll_flow_model, data)
    eps = float(np.quantile(logp, quantile) + offset)
    return -eps


def _epoch_batches(n: int, batch_size: int) -> int:
    return (n + batch_size - 1) // batch_size


def train(model: FlowModel, inlier_set, contrastive_set=None,
          cfg: TrainConfig | None = None,
          val_contrastive_set=None) -> tuple[FlowModel, TrainHistory]:
    """Epoch loop with per-epoch reshuffles, proxy-AUROC early stopping and
    restoration of the best-validation parameters.

    The i-th inlier batch is paired with the i-th contrastive batch,
    cycling whichever set is shorter.  For the cf_ft objective, a full NLL
    run is followed by FINETUNE_EPOCHS of contrastive finetuning with
    fresh optimizer moments and no early stopping.

    The proxy AUROC validates against val_contrastive_set whenever it is
    given (e.g. held-out broad-source samples when the training
    contrastive set is a contaminated mixture), also for the nll
    objective; otherwise its split is carved out of the contrastive set.

    The fit releases the model's Adam moments when it returns or raises,
    so a fitted model holds only its parameters, and a second call on it
    starts Adam afresh.
    """
    try:
        return _fit(model, inlier_set, contrastive_set, cfg, val_contrastive_set)
    finally:
        model.store.reset_optimizer()


def _fit(model: FlowModel, inlier_set, contrastive_set, cfg: TrainConfig | None,
         val_contrastive_set) -> tuple[FlowModel, TrainHistory]:
    if cfg is None:
        cfg = TrainConfig()
    data_in = as_batch(inlier_set, model.dim)
    data_c = None if contrastive_set is None else as_batch(contrastive_set, model.dim)
    val_c = None if val_contrastive_set is None else as_batch(val_contrastive_set, model.dim)
    if data_in.shape[0] == 0:
        raise DegenerateDataError("inlier set is empty")
    if cfg.objective != "nll" and (data_c is None or data_c.shape[0] == 0):
        raise DegenerateDataError(f"objective {cfg.objective!r} needs a non-empty contrastive set")

    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(6)]
    rng_split_in, rng_split_c, rng_in, rng_c, rng_ft_in, rng_ft_c = streams

    # the training rows stay in the caller's arrays, named by their indices
    rows_in, val_in = _val_split(data_in, cfg.val_fraction, rng_split_in)
    rows_c = None if data_c is None else np.arange(data_c.shape[0])
    if val_c is None and data_c is not None:
        rows_c, val_c = _val_split(data_c, cfg.val_fraction, rng_split_c)

    history = TrainHistory()
    n_in = rows_in.size
    steps_in = _epoch_batches(n_in, cfg.batch_size)
    # every step gathers its batches into these rows and runs its passes
    # in one workspace, sized to the largest batch of the fit
    batch_in = np.empty((min(cfg.batch_size, n_in), model.dim))
    batch_c = None
    rows = batch_in.shape[0]
    if cfg.objective != "nll":
        batch_c = np.empty((min(cfg.batch_size, rows_c.size), model.dim))
        rows = max(rows, batch_c.shape[0])
    workspace = Workspace(model, rows, cached=True)
    # the parameters of the best epoch of early stopping
    best_params = np.empty(model.store.n_params())
    # (objective, epochs, early stopping, shuffle streams) of each phase
    phases = [("nll" if cfg.objective in ("nll", "cf_ft") else "contrastive",
               cfg.max_epochs, True, rng_in, rng_c)]
    if cfg.objective == "cf_ft":
        phases.append(("contrastive", FINETUNE_EPOCHS, False, rng_ft_in, rng_ft_c))
    for objective, max_epochs, early_stop, shuffle_in, shuffle_c in phases:
        if not early_stop:
            # the finetune starts from fresh optimizer moments
            model.store.reset_optimizer()
        contrastive = objective == "contrastive"
        steps_c = _epoch_batches(rows_c.size, cfg.batch_size) if contrastive else 0
        steps = max(steps_in, steps_c)
        best_metric = None
        stale = 0
        for _ in range(max_epochs):
            perm_in = shuffle_in.permutation(n_in)
            if contrastive:
                perm_c = shuffle_c.permutation(rows_c.size)
            losses = []
            for step in range(steps):
                lo = (step % steps_in) * cfg.batch_size
                xb = _gather(data_in, rows_in[perm_in[lo:lo + cfg.batch_size]], batch_in)
                if contrastive:
                    lo_c = (step % steps_c) * cfg.batch_size
                    yb = _gather(data_c, rows_c[perm_c[lo_c:lo_c + cfg.batch_size]], batch_c)
                    loss, grads = contrastive_objective(model, xb, yb, cfg.clamp_tau,
                                                        workspace=workspace)
                else:
                    loss, grads = nll_objective(model, xb, workspace=workspace)
                adam_step(model.store, grads, cfg.lr)
                # freed now, not when the next step's gradient replaces it
                del grads
                losses.append(loss)
            history.train_loss.append(_mean(losses, "epoch loss"))
            metric = None
            proxy = None
            if val_in is not None and val_in.shape[0] > 0:
                if val_c is not None and val_c.shape[0] > 0:
                    proxy = proxy_auroc(model, val_in, val_c)
                    metric = proxy            # maximize
                else:
                    metric = _mean(log_prob(model, val_in), "mean validation log density")  # maximize
            history.proxy_auroc.append(proxy)
            epoch = len(history.train_loss) - 1
            if early_stop and metric is not None:
                if best_metric is None or metric > best_metric:
                    best_metric = metric
                    best_params[...] = model.store.params.flat
                    history.best_epoch = epoch
                    stale = 0
                else:
                    stale += 1
                    if stale >= cfg.patience:
                        history.stopped_early = True
                        break
            elif early_stop or cfg.max_epochs == 0:
                # the finetune's epochs are the best only when no NLL epoch ran
                history.best_epoch = epoch
        if best_metric is not None:
            model.store.params.flat[...] = best_params
    return model, history


def _gather(data: Array, rows: Array, out: Array) -> Array:
    """data[rows], copied into the first rows of out: a batch is gathered
    from the caller's array through the split's row indices, so a fit
    never holds a copy of its training rows."""
    # rows are distinct indices into data, so none needs the bounds
    # check, whose mode="raise" would take a temporary copy
    return np.take(data, rows, axis=0, out=out[:rows.size], mode="clip")


def _val_split(data: Array, fraction: float, rng: np.random.Generator):
    """The last `fraction` of a seeded shuffle of data's rows becomes the
    validation set.  Returns the indices of the training rows, in shuffle
    order, and a copy of the validation rows (None when there are none);
    the training rows are not copied."""
    n = data.shape[0]
    n_val = int(round(fraction * n))
    if n and n_val == n:
        raise DegenerateDataError(f"val_fraction {fraction} leaves none of {n} rows for training")
    perm = rng.permutation(n)
    if n_val == 0:
        return perm, None
    return perm[:n - n_val], data[perm[n - n_val:]]
