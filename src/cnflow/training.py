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
from .diffcore import adam_step, require_ints, require_positive_reals
from .errors import DegenerateDataError, DimensionError, NumericError
from .flows import FlowModel, log_prob, weighted_nll_grad

Array = np.ndarray

OBJECTIVES = ("nll", "contrastive", "cf_ft")


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
    finetune_epochs: int = 2
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8

    def __post_init__(self):
        require_ints(self, "batch_size", "max_epochs", "patience", "seed", "finetune_epochs")
        require_positive_reals(self, "lr")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not math.isfinite(self.clamp_tau):
            raise ValueError("clamp_tau must be finite")
        if self.objective not in OBJECTIVES:
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.objective == "cf_ft" and self.finetune_epochs < 1:
            raise ValueError("cf_ft needs finetune_epochs >= 1")
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


def _as_data(x) -> Array:
    return np.ascontiguousarray(getattr(x, "data", x), dtype=np.float64)


def nll_objective(model: FlowModel, batch) -> tuple[float, dict[str, Array]]:
    """Mean NLL and its exact gradients."""
    batch = _as_data(batch)
    if batch.shape[0] == 0:
        raise DegenerateDataError("empty batch")
    n = batch.shape[0]
    nll, grads = weighted_nll_grad(model, batch, np.full(n, 1.0 / n))
    loss = float(nll.mean())
    if not math.isfinite(loss):
        raise NumericError("NLL loss is non-finite")
    return loss, grads


def contrastive_objective(model: FlowModel, pos_batch, neg_batch,
                          tau: float) -> tuple[float, dict[str, Array]]:
    """Clamped contrastive loss and its exact gradients.

    Contrastive samples with nll >= tau sit on the flat part of the clamp
    and are skipped entirely in the backward pass, so a fully saturated
    batch leaves the gradients bit-identical to the plain NLL objective.
    """
    pos = _as_data(pos_batch)
    neg = _as_data(neg_batch)
    if pos.shape[0] == 0 or neg.shape[0] == 0:
        raise DegenerateDataError("both batches must be non-empty")
    if pos.shape[1] != neg.shape[1]:
        raise DimensionError("batches disagree on dimension")
    n = pos.shape[0]
    nll_pos, grads = weighted_nll_grad(model, pos, np.full(n, 1.0 / n))
    m = neg.shape[0]
    nll_neg = -log_prob(model, neg)
    active = nll_neg < tau
    if np.any(active):
        weights = np.where(active, -1.0 / m, 0.0)
        _, neg_grads = weighted_nll_grad(model, neg, weights)
        for name, g in neg_grads.items():
            grads[name] += g
    loss = float(nll_pos.mean() - np.minimum(nll_neg, tau).mean())
    if not math.isfinite(loss):
        raise NumericError("contrastive loss is non-finite")
    return loss, grads


def proxy_auroc(model: FlowModel, inlier_val, contrastive_val) -> float:
    """AUROC of outlier scores with contrastive samples as the outlier class."""
    s_in = metrics.outlier_score(model, _as_data(inlier_val))
    s_contr = metrics.outlier_score(model, _as_data(contrastive_val))
    return metrics.auroc(s_in, s_contr)


def select_epsilon(nll_flow_model: FlowModel, inlier_val, quantile: float = 0.10,
                   offset: float = math.log(10.0)) -> float:
    """Clamp threshold from a pretrained NLL flow: epsilon is the given
    quantile of the validation log densities plus the offset, returned as
    the NLL-side threshold tau = -epsilon."""
    data = _as_data(inlier_val)
    if data.shape[0] == 0:
        raise DegenerateDataError("empty validation set")
    logp = log_prob(nll_flow_model, data)
    eps = float(np.quantile(logp, quantile) + offset)
    return -eps


def _epoch_batches(n: int, batch_size: int) -> int:
    return (n + batch_size - 1) // batch_size


def _train_phase(model: FlowModel, train_in: Array, train_c: Array | None,
                 val_in: Array | None, val_c: Array | None, cfg: TrainConfig,
                 objective: str, max_epochs: int, early_stop: bool,
                 rng_in: np.random.Generator, rng_c: np.random.Generator,
                 history: TrainHistory) -> None:
    n_in = train_in.shape[0]
    steps_in = _epoch_batches(n_in, cfg.batch_size)
    steps = steps_in
    if objective == "contrastive":
        n_c = train_c.shape[0]
        steps_c = _epoch_batches(n_c, cfg.batch_size)
        steps = max(steps_in, steps_c)
    best_metric = None
    best_params = None
    best_epoch = -1
    stale = 0
    for _ in range(max_epochs):
        perm_in = rng_in.permutation(n_in)
        if objective == "contrastive":
            perm_c = rng_c.permutation(n_c)
        losses = []
        for step in range(steps):
            lo = (step % steps_in) * cfg.batch_size
            xb = train_in[perm_in[lo:lo + cfg.batch_size]]
            if objective == "contrastive":
                lo_c = (step % steps_c) * cfg.batch_size
                yb = train_c[perm_c[lo_c:lo_c + cfg.batch_size]]
                loss, grads = contrastive_objective(model, xb, yb, cfg.clamp_tau)
            else:
                loss, grads = nll_objective(model, xb)
            adam_step(model.store, grads, cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
            losses.append(loss)
        history.train_loss.append(float(np.mean(losses)))
        metric = None
        proxy = None
        if val_in is not None and val_in.shape[0] > 0:
            if val_c is not None and val_c.shape[0] > 0:
                proxy = proxy_auroc(model, val_in, val_c)
                metric = proxy            # maximize
            else:
                metric = float(np.mean(log_prob(model, val_in)))  # maximize log density
        history.proxy_auroc.append(proxy)
        epoch_index = len(history.train_loss) - 1
        if early_stop and metric is not None:
            if best_metric is None or metric > best_metric:
                best_metric = metric
                best_params = model.store.copy_params()
                best_epoch = epoch_index
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    history.stopped_early = True
                    break
        else:
            best_epoch = epoch_index
    if best_params is not None:
        model.store.load_params(best_params)
    if best_epoch >= 0 and (early_stop or history.best_epoch < 0):
        history.best_epoch = best_epoch


def train(model: FlowModel, inlier_set, contrastive_set=None,
          cfg: TrainConfig | None = None,
          val_contrastive_set=None) -> tuple[FlowModel, TrainHistory]:
    """Epoch loop with per-epoch reshuffles, proxy-AUROC early stopping and
    restoration of the best-validation parameters.

    The i-th inlier batch is paired with the i-th contrastive batch,
    cycling whichever set is shorter.  For the cf_ft objective, a full NLL
    run is followed by `finetune_epochs` of contrastive finetuning with
    fresh optimizer moments and no early stopping.

    By default the proxy-AUROC validation split is carved out of the
    contrastive set itself; pass val_contrastive_set to validate against a
    fixed external pool instead (e.g. held-out broad-source samples when
    the training contrastive set is a contaminated mixture).
    """
    if cfg is None:
        cfg = TrainConfig()
    data_in = _as_data(inlier_set)
    data_c = None if contrastive_set is None else _as_data(contrastive_set)
    if data_in.shape[0] == 0:
        raise DegenerateDataError("inlier set is empty")
    if cfg.objective != "nll" and data_c is None:
        raise DegenerateDataError(f"objective {cfg.objective!r} needs a contrastive set")
    if data_c is not None and data_c.shape[1] != data_in.shape[1]:
        raise DimensionError("inlier and contrastive sets disagree on dimension")
    if data_in.shape[1] != model.dim:
        raise DimensionError("data dimension != model dimension")

    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(cfg.seed).spawn(6)]
    rng_split_in, rng_split_c, rng_in, rng_c, rng_ft_in, rng_ft_c = streams

    train_in, val_in = _val_split(data_in, cfg.val_fraction, rng_split_in)
    train_c = val_c = None
    if data_c is not None:
        if val_contrastive_set is not None:
            train_c, val_c = data_c, _as_data(val_contrastive_set)
        else:
            train_c, val_c = _val_split(data_c, cfg.val_fraction, rng_split_c)

    history = TrainHistory()
    if cfg.max_epochs > 0:
        first_objective = "nll" if cfg.objective in ("nll", "cf_ft") else "contrastive"
        _train_phase(model, train_in, train_c, val_in, val_c, cfg,
                     first_objective, cfg.max_epochs, early_stop=True,
                     rng_in=rng_in, rng_c=rng_c, history=history)
    if cfg.objective == "cf_ft":
        model.store.reset_optimizer()
        _train_phase(model, train_in, train_c, val_in, val_c, cfg,
                     "contrastive", cfg.finetune_epochs, early_stop=False,
                     rng_in=rng_ft_in, rng_c=rng_ft_c, history=history)
    return model, history


def _val_split(data: Array, fraction: float, rng: np.random.Generator):
    """Last `fraction` of a seeded shuffle becomes the validation set."""
    n = data.shape[0]
    n_val = int(round(fraction * n))
    if n and n_val == n:
        raise DegenerateDataError(f"val_fraction {fraction} leaves none of {n} rows for training")
    perm = rng.permutation(n)
    if n_val == 0:
        return data[perm], None
    return data[perm[:n - n_val]], data[perm[n - n_val:]]
