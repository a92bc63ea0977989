"""One rule for a batch of rows at every public entry that takes rows
(diffcore.as_batch): a FeatureSet, its array and the array's nested lists
give bitwise-equal results, a 1-D array is a one-row batch, a wrong width
raises DimensionError and a non-finite entry NumericError."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnflow import baselines, flows, metrics, oracle, training
from cnflow.datasets import FeatureSet
from cnflow.errors import DimensionError, NumericError

TAU = 50.0  # above every NLL of these small flows, so the clamp is active


def flow(dim: int, seed: int = 0) -> flows.FlowModel:
    """A small flow whose couplings are not the identity."""
    model = flows.init_model(dim, n_blocks=2, hidden_width=8, seed=seed)
    rng = np.random.default_rng(seed + 100)
    model.store.params.flat[...] += 0.1 * rng.standard_normal(model.store.n_params())
    return model


@functools.cache
def scored(dim: int) -> flows.FlowModel:
    """The flow of `dim` that the entries only read."""
    return flow(dim)


def rows(dim: int, n: int = 4, seed: int = 1) -> np.ndarray:
    return np.random.default_rng(seed).standard_normal((n, dim))


def trained(dim: int, inlier, contrastive=None, val=None, val_fraction=0.0, **cfg):
    """One epoch of training a fresh flow: its parameters and history."""
    cfg = training.TrainConfig(max_epochs=1, val_fraction=val_fraction, **cfg)
    model, history = training.train(flow(dim), inlier, contrastive, cfg, val_contrastive_set=val)
    return model.store.params.flat, history.train_loss, history.proxy_auroc


# each entry maps (dim, x) to its result, with x in one of its row arguments
ENTRIES = {
    "log_prob": lambda d, x: flows.log_prob(scored(d), x),
    "forward_latent": lambda d, x: flows.forward_latent(scored(d), x),
    "inverse": lambda d, x: flows.inverse(scored(d), x, return_logdet=True),
    "outlier_score": lambda d, x: metrics.outlier_score(scored(d), x),
    "nll_objective": lambda d, x: training.nll_objective(scored(d), x),
    "contrastive_objective/inlier": lambda d, x: training.contrastive_objective(
        scored(d), x, rows(d), TAU),
    "contrastive_objective/contrastive": lambda d, x: training.contrastive_objective(
        scored(d), rows(d), x, TAU),
    "proxy_auroc/inlier": lambda d, x: training.proxy_auroc(scored(d), x, rows(d)),
    "proxy_auroc/contrastive": lambda d, x: training.proxy_auroc(scored(d), rows(d), x),
    "select_epsilon": lambda d, x: training.select_epsilon(scored(d), x),
    "train/inlier": lambda d, x: trained(d, x, objective="nll"),
    "train/contrastive": lambda d, x: trained(d, rows(d), x, clamp_tau=TAU),
    "train/val_contrastive": lambda d, x: trained(d, rows(d), rows(d, seed=2), x,
                                                  objective="nll", val_fraction=0.25),
    "fit_mse/mse_score": lambda d, x: baselines.mse_score(baselines.fit_mse(x), rows(d)),
    "mse_score": lambda d, x: baselines.mse_score(baselines.fit_mse(rows(d)), x),
    "fit_mse/mse_ratio_score": lambda d, x: baselines.mse_ratio_score(
        baselines.fit_mse(rows(d), x), rows(d)),
    "mse_ratio_score": lambda d, x: baselines.mse_ratio_score(
        baselines.fit_mse(rows(d), rows(d, seed=2)), x),
    "ratio_score": lambda d, x: baselines.ratio_score(scored(d), flow(d, seed=1), x),
    "gaussian_logpdf": lambda d, x: oracle.gaussian_logpdf(
        oracle.GaussianSpec(np.zeros(d), np.full(d, 2.0)), x),
}


def arrays(result) -> list[np.ndarray]:
    """A result as a flat list of float64 arrays; a gradient gives its
    flat buffer."""
    if isinstance(result, (tuple, list)):
        return [a for item in result for a in arrays(item)]
    if isinstance(result, dict):
        result = result.flat
    return [np.asarray(result, dtype=np.float64)]


def assert_bitwise_equal(a, b) -> None:
    a, b = arrays(a), arrays(b)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert x.shape == y.shape and x.tobytes() == y.tobytes()


@pytest.mark.parametrize("name", ENTRIES)
@settings(max_examples=8, deadline=None)
@given(data=st.data(), dim=st.integers(1, 3), n=st.integers(1, 3))
def test_every_entry_follows_the_batch_rule(name, data, dim, n):
    entry = ENTRIES[name]
    x = np.array(data.draw(st.lists(
        st.lists(st.floats(-3.0, 3.0), min_size=dim, max_size=dim), min_size=n, max_size=n)))
    result = entry(dim, x)
    assert_bitwise_equal(entry(dim, FeatureSet(x)), result)
    assert_bitwise_equal(entry(dim, x.tolist()), result)
    assert_bitwise_equal(entry(dim, x[0]), entry(dim, x[:1]))
    with pytest.raises(DimensionError):
        entry(dim, np.column_stack([x, x[:, :1]]))
    bad = x.copy()
    bad[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, dim - 1))] = np.nan
    with pytest.raises(NumericError, match="input batch"):
        entry(dim, bad)
