import math

import numpy as np
import pytest

from cnflow import flows
from cnflow.baselines import (MseModel, fit_mse, mse_ratio_score, mse_score,
                              ratio_score)
from cnflow.datasets import gen_gaussian
from cnflow.errors import DegenerateDataError, DimensionError


def test_mse_score_zero_at_mean():
    model = MseModel(np.array([1.0, -2.0]))
    assert mse_score(model, [[1.0, -2.0]])[0] == 0.0


def test_mse_score_fixture():
    model = MseModel(np.zeros(2))
    assert mse_score(model, [[3.0, 4.0]])[0] == pytest.approx(12.5, abs=0)


def test_mse_score_ranks_like_isotropic_gaussian_nll():
    rng = np.random.default_rng(0)
    mean = rng.standard_normal(4)
    model = MseModel(mean)
    x = rng.standard_normal((50, 4))
    scores = mse_score(model, x)
    # negative isotropic-Gaussian log-likelihood is an affine function of
    # the squared distance, so the orderings must agree exactly
    nll = 0.5 * np.sum((x - mean) ** 2, axis=1) + 2.0 * math.log(2.0 * math.pi)
    assert np.array_equal(np.argsort(scores), np.argsort(nll))


def test_mse_translation_covariance():
    rng = np.random.default_rng(1)
    x = rng.standard_normal((20, 3))
    mean = rng.standard_normal(3)
    shift = rng.standard_normal(3)
    a = mse_score(MseModel(mean), x)
    b = mse_score(MseModel(mean + shift), x + shift)
    assert np.allclose(a, b, atol=1e-12, rtol=0)


def test_mse_ratio_zero_when_equidistant():
    model = MseModel(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    assert mse_ratio_score(model, [[0.0, 5.0]])[0] == pytest.approx(0.0, abs=1e-12)


def test_mse_ratio_negative_at_inlier_mean():
    model = MseModel(np.array([1.0, 0.0]), np.array([-1.0, 0.0]))
    assert mse_ratio_score(model, [[1.0, 0.0]])[0] < 0.0


def test_mse_ratio_requires_contrastive_mean():
    model = MseModel(np.zeros(2))
    with pytest.raises(DegenerateDataError):
        mse_ratio_score(model, [[0.0, 0.0]])


def test_mse_ratio_matches_gaussian_log_ratio_ordering():
    rng = np.random.default_rng(2)
    m_in = rng.standard_normal(3)
    m_c = rng.standard_normal(3) + 1.0
    model = MseModel(m_in, m_c)
    x = rng.standard_normal((40, 3))
    scores = mse_ratio_score(model, x)
    # log N(x; m_c, I) - log N(x; m_in, I) up to a positive affine map
    log_ratio = 0.5 * (np.sum((x - m_in) ** 2, axis=1) - np.sum((x - m_c) ** 2, axis=1))
    assert np.array_equal(np.argsort(scores), np.argsort(log_ratio))


def test_mse_ratio_argsort_translation_invariant():
    rng = np.random.default_rng(3)
    m_in = rng.standard_normal(3)
    m_c = rng.standard_normal(3)
    x = rng.standard_normal((30, 3))
    shift = rng.standard_normal(3)
    a = mse_ratio_score(MseModel(m_in, m_c), x)
    b = mse_ratio_score(MseModel(m_in + shift, m_c + shift), x + shift)
    assert np.array_equal(np.argsort(a), np.argsort(b))


def test_fit_mse_from_feature_sets():
    inl = gen_gaussian([2.0, 2.0], 0.1, 500, seed=4)
    con = gen_gaussian([-2.0, -2.0], 0.1, 500, seed=5)
    model = fit_mse(inl, con)
    assert np.max(np.abs(model.mean_in - 2.0)) < 0.05
    assert np.max(np.abs(model.mean_contr + 2.0)) < 0.05


def test_ratio_same_flow_is_zero():
    model = flows.init_model(2, n_blocks=2, hidden_width=4, seed=0)
    x = np.random.default_rng(6).standard_normal((10, 2))
    assert np.array_equal(ratio_score(model, model, x), np.zeros(10))


def test_ratio_hand_set_scale_difference():
    # identical flows except one constant log-scale of log 2 on block 0 of
    # the contrastive flow: the score difference follows the closed form
    # for a rescaled Gaussian in the transformed coordinate
    f_in = flows.init_model(1, n_blocks=1, seed=1)
    f_c = flows.init_model(1, n_blocks=1, seed=1)
    alpha = f_c.clamp_alpha
    raw = alpha * math.atanh(math.log(2.0) / alpha)
    f_c.store.params["blk0.b0"][...] = np.array([raw, 0.0])
    x = np.linspace(-2.0, 2.0, 9)[:, None]
    scores = ratio_score(f_in, f_c, x)
    # p_c(x) = N(x * 2; 0, 1) * 2 in density terms (z = x e^{s}, logdet = s)
    s = math.log(2.0)
    expected = (-0.5 * (x[:, 0] * math.exp(s)) ** 2 + s) - (-0.5 * x[:, 0] ** 2)
    assert np.allclose(scores, expected, atol=1e-12, rtol=0)


def test_ratio_dimension_mismatch():
    f1 = flows.init_model(2, n_blocks=1, hidden_width=4, seed=0)
    f2 = flows.init_model(3, n_blocks=1, hidden_width=4, seed=0)
    with pytest.raises(DimensionError):
        ratio_score(f1, f2, np.zeros((1, 2)))
