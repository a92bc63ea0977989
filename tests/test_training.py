import json
import math

import numpy as np
import pytest

from cnflow import cli, flows
from cnflow.datasets import gen_gaussian
from cnflow.diffcore import finite_difference_grad
from cnflow.errors import DegenerateDataError
from cnflow.training import (TrainConfig, contrastive_objective, nll_objective,
                             proxy_auroc, select_epsilon, train)


def small_model(dim=1, seed=0, activation="relu", hidden=8, n_blocks=2):
    return flows.init_model(dim, n_blocks=n_blocks, hidden_width=hidden,
                            seed=seed, activation=activation)


def perturb(model, scale=0.3, seed=7):
    rng = np.random.default_rng(seed)
    for p in model.store.params.values():
        p += scale * rng.standard_normal(p.shape)


def test_nll_identity_1d_at_zero():
    model = small_model()
    loss, _ = nll_objective(model, np.array([[0.0]]))
    assert loss == pytest.approx(0.9189385332046727, abs=1e-12)


def test_nll_duplicated_batch_same_loss():
    model = small_model(dim=2, seed=1)
    perturb(model, seed=2)
    batch = np.random.default_rng(0).standard_normal((6, 2))
    loss1, _ = nll_objective(model, batch)
    loss2, _ = nll_objective(model, np.concatenate([batch, batch]))
    assert loss2 == pytest.approx(loss1, abs=1e-12)


def test_nll_decreases_during_training():
    # 50 full-batch Adam steps on standard-normal data from identity init:
    # deterministic descent toward the empirical optimum, so the loss must
    # drop in at least 45 of the 50 steps
    from cnflow.diffcore import adam_step

    model = small_model(dim=1, seed=3)
    data = np.random.default_rng(1).standard_normal((512, 1))
    losses = []
    for _ in range(51):
        loss, grads = nll_objective(model, data)
        losses.append(loss)
        adam_step(model.store, grads, 1e-3)
    drops = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
    assert drops >= 45


def test_contrastive_fully_saturated_equals_nll_gradients():
    model = small_model(dim=2, seed=5)
    perturb(model, seed=6)
    rng = np.random.default_rng(2)
    pos = rng.standard_normal((8, 2))
    neg = rng.standard_normal((8, 2)) + 10.0  # far away: nll >> tau
    tau = 0.0
    loss_c, grads_c = contrastive_objective(model, pos, neg, tau)
    loss_n, grads_n = nll_objective(model, pos)
    assert loss_c == pytest.approx(loss_n - tau, abs=1e-12)
    for name in grads_n:
        assert np.array_equal(grads_c[name], grads_n[name])


def test_contrastive_identical_batches_infinite_tau_zero_loss():
    model = small_model(dim=2, seed=7)
    perturb(model, seed=8)
    batch = np.random.default_rng(3).standard_normal((10, 2))
    loss, grads = contrastive_objective(model, batch, batch, tau=1e100)
    assert loss == pytest.approx(0.0, abs=1e-9)
    for g in grads.values():
        assert np.max(np.abs(g)) < 1e-9


def test_contrastive_gradient_matches_finite_differences():
    model = small_model(dim=2, seed=9, activation="softplus")
    perturb(model, seed=10)
    rng = np.random.default_rng(4)
    pos = rng.standard_normal((5, 2))
    neg = rng.standard_normal((6, 2)) * 2.0
    # pick tau so the clamp genuinely straddles the contrastive batch but
    # no sample sits exactly on the kink
    nlls = -flows.log_prob(model, neg)
    tau = float(np.median(nlls)) + 0.05
    assert np.min(np.abs(nlls - tau)) > 1e-3
    loss, grads = contrastive_objective(model, pos, neg, tau)
    assert any(nlls < tau) and any(nlls > tau)

    def loss_fn():
        return contrastive_objective(model, pos, neg, tau)[0]

    fd = finite_difference_grad(loss_fn, model.store, h=1e-5)
    for name in grads:
        denom = np.maximum(np.abs(fd[name]), 1e-8)
        assert np.max(np.abs(grads[name] - fd[name]) / denom) < 1e-5, name


def test_contrastive_requires_matching_dims():
    model = small_model(dim=2, seed=11)
    with pytest.raises(Exception):
        contrastive_objective(model, np.zeros((2, 2)), np.zeros((2, 3)), 0.0)


def test_train_zero_epochs_returns_input_model():
    model = small_model(dim=1, seed=12)
    before = {k: v.copy() for k, v in model.store.params.items()}
    cfg = TrainConfig(max_epochs=0, objective="nll", seed=0)
    model, history = train(model, gen_gaussian([0.0], 1.0, 100, seed=0), None, cfg)
    for name, val in before.items():
        assert np.array_equal(model.store.params[name], val)
    assert history.train_loss == []


def test_train_learns_shifted_gaussian_mode():
    inl = gen_gaussian([3.0], 1.0, 4000, seed=5)
    model = small_model(dim=1, seed=13)
    cfg = TrainConfig(batch_size=512, lr=1e-2, max_epochs=120, patience=1000,
                      val_fraction=0.0, objective="nll", seed=1)
    model, _ = train(model, inl, None, cfg)
    grid = np.linspace(-2.0, 8.0, 2001)
    dens = np.exp(flows.log_prob(model, grid[:, None]))
    mode = grid[int(np.argmax(dens))]
    assert abs(mode - 3.0) < 0.1


def test_train_determinism():
    inl = gen_gaussian([0.0, 0.0], 1.0, 600, seed=6)
    con = gen_gaussian([1.0, 1.0], 2.0, 600, seed=7)
    cfg = TrainConfig(batch_size=128, max_epochs=4, clamp_tau=6.0,
                      objective="contrastive", seed=42)
    m1, h1 = train(flows.init_model(2, 2, 8, seed=3), inl, con, cfg)
    m2, h2 = train(flows.init_model(2, 2, 8, seed=3), inl, con, cfg)
    for name in m1.store.params:
        assert np.array_equal(m1.store.params[name], m2.store.params[name])
    assert h1.train_loss == h2.train_loss
    assert h1.proxy_auroc == h2.proxy_auroc


def test_saturated_contrastive_training_bit_identical_to_nll():
    # with tau below every attainable contrastive NLL, the clamp never
    # activates and the parameter trajectory must match plain NLL training
    inl = gen_gaussian([0.0], 1.0, 800, seed=8)
    con = gen_gaussian([1.0], 2.0, 800, seed=9)
    tau = -5.0  # 1-d log densities never exceed -0.9, so nll > 0.9 > tau... (saturated)
    cfg_c = TrainConfig(batch_size=128, max_epochs=6, clamp_tau=tau,
                        objective="contrastive", seed=11, patience=3)
    cfg_n = TrainConfig(batch_size=128, max_epochs=6, clamp_tau=tau,
                        objective="nll", seed=11, patience=3)
    mc, _ = train(flows.init_model(1, 3, 8, seed=4), inl, con, cfg_c)
    mn, _ = train(flows.init_model(1, 3, 8, seed=4), inl, con, cfg_n)
    for name in mc.store.params:
        assert np.array_equal(mc.store.params[name], mn.store.params[name]), name


def test_cf_ft_runs_both_phases():
    inl = gen_gaussian([0.0], 1.0, 400, seed=10)
    con = gen_gaussian([1.0], 2.0, 400, seed=11)
    cfg = TrainConfig(batch_size=128, max_epochs=3, finetune_epochs=2,
                      clamp_tau=6.0, objective="cf_ft", seed=12)
    model, history = train(flows.init_model(1, 2, 8, seed=5), inl, con, cfg)
    assert len(history.train_loss) == 3 + 2
    assert history.best_epoch < 3


def test_train_requires_contrastive_for_cf():
    cfg = TrainConfig(objective="contrastive")
    with pytest.raises(DegenerateDataError):
        train(small_model(), gen_gaussian([0.0], 1.0, 10, seed=0), None, cfg)


def test_proxy_auroc_separated_and_identical():
    model = small_model(dim=1, seed=14)
    near = np.zeros((50, 1))
    far = np.full((50, 1), 30.0)
    assert proxy_auroc(model, near, far) == 1.0
    assert proxy_auroc(model, near, near.copy()) == 0.5


def test_proxy_auroc_fixture():
    model = small_model(dim=1, seed=15)
    # craft points whose outlier scores are {1,3} vs {2,4} via known density
    # ordering: score is monotone in |x| for the identity model
    s = lambda v: np.array([[v]])
    x_in = np.array([[0.1], [0.9]])
    x_out = np.array([[0.5], [1.5]])
    assert proxy_auroc(model, x_in, x_out) == 0.75


def test_select_epsilon_constant_densities():
    model = small_model(dim=1, seed=16)
    # identity model: log p(x) = -x^2/2 - log sqrt(2 pi); constant batch
    val = np.full((20, 1), 1.0)
    logp = flows.log_prob(model, val)[0]
    tau = select_epsilon(model, val, quantile=0.10, offset=2.3)
    assert tau == pytest.approx(-(logp + 2.3), abs=1e-12)
    tau0 = select_epsilon(model, val, quantile=0.10, offset=0.0)
    assert tau0 == pytest.approx(-logp, abs=1e-12)


def test_history_json_schema(tmp_path):
    inl = gen_gaussian([0.0], 1.0, 300, seed=17)
    con = gen_gaussian([1.0], 2.0, 300, seed=18)
    cfg = TrainConfig(batch_size=128, max_epochs=3, clamp_tau=6.0,
                      objective="contrastive", seed=13)
    _, history = train(flows.init_model(1, 2, 8, seed=6), inl, con, cfg)
    path = tmp_path / "history.json"
    cli._write_json(path, history.to_json_dict())
    payload = json.loads(path.read_text())
    assert list(payload.keys()) == ["epoch", "train_loss", "proxy_auroc",
                                    "best_epoch", "stopped_early"]
    assert payload["epoch"] == [0, 1, 2]
    assert len(payload["train_loss"]) == 3
    assert all(p is None or 0.0 <= p <= 1.0 for p in payload["proxy_auroc"])


def test_select_epsilon_below_oracle_density_maximum():
    # with a zero offset the selected bound sits below the peak of the
    # analytic truncated difference density (the default ln 10 offset
    # exceeds the whole 1-d log-density spread and would not)
    from cnflow import oracle

    inl = gen_gaussian([0.0], 1.0, 4000, seed=20)
    model = small_model(dim=1, seed=21, n_blocks=4)
    cfg = TrainConfig(batch_size=512, lr=1e-2, max_epochs=60, patience=1000,
                      val_fraction=0.0, objective="nll", seed=4)
    model, _ = train(model, inl, None, cfg)
    val = gen_gaussian([0.0], 1.0, 1000, seed=22)
    tau = select_epsilon(model, val, quantile=0.10, offset=0.0)
    eps = -tau
    p = oracle.GaussianSpec([0.0], [1.0])
    q = oracle.GaussianSpec([1.0], [2.0])
    pbar = oracle.positive_difference(p, q, oracle.grid_1d(-6.0, 6.0, 4001))
    assert eps < math.log(pbar.values.max())
