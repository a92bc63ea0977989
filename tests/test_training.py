import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnflow import cli, flows, methods, training
from cnflow.diffcore import adam_step
from cnflow.datasets import FeatureSet, gen_gaussian, load_features, save_features
from cnflow.errors import DegenerateDataError, DimensionError, NumericError
from cnflow.training import (FINETUNE_EPOCHS, TrainConfig, contrastive_objective, nll_objective,
                             proxy_auroc, select_epsilon, train)
from helpers import finite_difference_grad, two_pass_contrastive


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


@pytest.mark.parametrize("objective", ["nll", "contrastive"])
def test_a_held_gradient_is_not_changed_by_the_next_call(objective):
    # each call returns a gradient of its own: a store-owned buffer reused
    # across calls would rewrite the one held here
    model = small_model(dim=3, seed=12, hidden=6)
    perturb(model, seed=13)
    rng = np.random.default_rng(14)

    def call():
        pos, neg = rng.standard_normal((7, 3)), 2.0 * rng.standard_normal((5, 3))
        if objective == "nll":
            return nll_objective(model, pos)[1]
        tau = float(np.median(-flows.log_prob(model, neg)))
        return contrastive_objective(model, pos, neg, tau)[1]

    held = call()
    before = {name: g.copy() for name, g in held.items()}
    fresh = call()
    assert not np.shares_memory(held.flat, fresh.flat)
    for name, g in held.items():
        assert np.array_equal(g, before[name]), name
        assert not np.array_equal(fresh[name], g) or not g.any(), name


def test_contrastive_training_holds_one_gradient_and_one_snapshot():
    # traced peak of a contrastive fit of a 2.2 M parameter model (D=16,
    # width 512), clamp active on about half the contrastive rows, above
    # the built model: one parameter snapshot, one gradient and the cached
    # activations of a batch, under 3 x 8 bytes per parameter (a gradient
    # per batch and a fresh snapshot per improving epoch read 4.3x)
    rng = np.random.default_rng(0)
    inliers, contrastive = rng.standard_normal((640, 16)), 1.5 * rng.standard_normal((640, 16))
    model = small_model(dim=16, seed=1, hidden=512, n_blocks=8)
    n_params = model.store.n_params()
    assert n_params > 2_000_000
    tau = float(np.median(-flows.log_prob(model, contrastive)))
    cfg = TrainConfig(batch_size=64, max_epochs=2, patience=2, clamp_tau=tau,
                      val_fraction=0.2, seed=0)
    tracemalloc.start()
    try:
        train(model, inliers, contrastive, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the two Adam moments, which the fit allocates at its first step and
    # releases when it returns, are not its working memory
    assert peak - 2 * 8 * n_params < 3 * 8 * n_params


def holds_no_moments(store):
    return "m" not in vars(store) and "v" not in vars(store) and store.step == 0


@pytest.mark.parametrize("objective", ["nll", "contrastive", "cf_ft"])
def test_a_fit_releases_its_moments_when_it_returns(objective):
    rng = np.random.default_rng(0)
    model = small_model(dim=2, seed=1)
    cfg = TrainConfig(batch_size=8, max_epochs=2, objective=objective, clamp_tau=4.0)
    train(model, rng.standard_normal((20, 2)), 1.5 * rng.standard_normal((20, 2)), cfg)
    assert holds_no_moments(model.store)


def test_a_fit_releases_its_moments_when_it_raises(monkeypatch):
    # the second step raises, after the first has allocated the moments
    real_step = training.adam_step
    allocated = []

    def failing_step(store, grads, lr):
        real_step(store, grads, lr)
        allocated.append("m" in vars(store) and "v" in vars(store))
        if store.step == 2:
            raise NumericError("second step")

    monkeypatch.setattr(training, "adam_step", failing_step)
    model = small_model(dim=2, seed=1)
    cfg = TrainConfig(batch_size=4, max_epochs=1, objective="nll")
    with pytest.raises(NumericError, match="second step"):
        train(model, np.random.default_rng(0).standard_normal((12, 2)), cfg=cfg)
    assert allocated == [True, True]
    assert holds_no_moments(model.store)


def test_a_second_fit_starts_adam_afresh():
    # a second train call on a fitted model steps like the same call on a
    # new model that holds the fitted parameters
    rng = np.random.default_rng(2)
    first, second = rng.standard_normal((40, 3)), rng.standard_normal((40, 3)) + 0.5
    cfg = TrainConfig(batch_size=8, max_epochs=3, objective="nll", val_fraction=0.0)
    fitted = small_model(dim=3, seed=4)
    train(fitted, first, cfg=cfg)
    fresh = small_model(dim=3, seed=4)
    fresh.store.params.flat[...] = fitted.store.params.flat
    train(fitted, second, cfg=replace(cfg, seed=1))
    train(fresh, second, cfg=replace(cfg, seed=1))
    assert fitted.store.params.flat.tobytes() == fresh.store.params.flat.tobytes()


def test_a_fit_starts_adam_afresh_after_a_direct_step():
    # one adam_step on a model's store outside any fit: a train call then
    # steps like the same call on a new model that holds its parameters
    rng = np.random.default_rng(3)
    x = rng.standard_normal((40, 3))
    stepped = small_model(dim=3, seed=4)
    adam_step(stepped.store, nll_objective(stepped, x)[1], 1e-2)
    fresh = small_model(dim=3, seed=4)
    fresh.store.params.flat[...] = stepped.store.params.flat
    cfg = TrainConfig(batch_size=8, max_epochs=1, objective="nll", val_fraction=0.0)
    train(stepped, x, cfg=cfg)
    train(fresh, x, cfg=cfg)
    assert stepped.store.params.flat.tobytes() == fresh.store.params.flat.tobytes()


def test_flow_ratio_holds_no_moments_of_its_first_flow_while_the_second_fits():
    # traced peak of a flow_ratio fit of two 2.2 M parameter flows (D=16,
    # width 512), in units of 8 bytes per parameter: both flows'
    # parameters, the second's moments, gradient and snapshot, and a
    # batch's activations read 6.3; the first flow's moments, kept through
    # the second fit, added 2.0
    rng = np.random.default_rng(0)
    inliers, contrastive = rng.standard_normal((128, 16)), 1.5 * rng.standard_normal((128, 16))
    flow_config = flows.FlowConfig(hidden_width=512)
    n_params = flows.build_model(16, flow_config).store.n_params()
    assert n_params > 2_000_000
    cfg = TrainConfig(batch_size=64, max_epochs=1, val_fraction=0.25)
    tracemalloc.start()
    try:
        methods.fit_method("flow_ratio", inliers, contrastive, cfg, seed=0,
                           flow_config=flow_config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 7.3 * 8 * n_params


def test_train_gathers_batches_without_copying_its_training_rows(monkeypatch):
    # a fit copies only its validation rows (0.1 of each set) and keeps
    # the split's row indices (8 bytes against 256 per row); copying every
    # row into its train/validation split traced above 1.0x the rows'
    # bytes.  The proxy AUROC's log_prob runs on one worker, whose
    # workspace of up to 2047 rows is the rest of the peak (about 0.07x)
    monkeypatch.setattr(flows, "blas_threads", lambda: 1)
    rng = np.random.default_rng(0)
    inliers, contrastive = rng.standard_normal((60_000, 32)), rng.standard_normal((60_000, 32))
    before = inliers.copy(), contrastive.copy()
    model = small_model(dim=32, seed=1, hidden=4, n_blocks=2)
    cfg = TrainConfig(max_epochs=1, val_fraction=0.1, clamp_tau=40.0, seed=0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        train(model, inliers, contrastive, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak < 0.3 * (inliers.nbytes + contrastive.nbytes)
    # the fit never writes into the caller's arrays
    assert np.array_equal(inliers, before[0]) and np.array_equal(contrastive, before[1])


@pytest.mark.parametrize("objective", ["nll", "contrastive", "cf_ft"])
@pytest.mark.parametrize("val_fraction", [0.0, 0.25])
@pytest.mark.parametrize("own_val", [False, True])
def test_index_gathered_batches_match_batches_of_copied_splits(objective, val_fraction, own_val,
                                                               monkeypatch):
    # the batches a fit gathers through its split's row indices are the
    # rows, in the order, that slicing a copy of each split gives
    rng = np.random.default_rng(1)
    inliers, contrastive = rng.standard_normal((70, 3)), 1.5 * rng.standard_normal((45, 3))
    val_c = 1.5 * rng.standard_normal((20, 3)) if own_val else None
    cfg = TrainConfig(batch_size=16, max_epochs=2, val_fraction=val_fraction, seed=3,
                      objective=objective, clamp_tau=4.0)
    seen = []

    gather = training._gather

    def record(data, rows, out):
        batch = gather(data, rows, out)
        seen.append(batch.copy())
        return batch

    monkeypatch.setattr(training, "_gather", record)
    train(small_model(dim=3, seed=4), inliers, contrastive, cfg, val_c)
    streams = [np.random.default_rng(s) for s in np.random.SeedSequence(3).spawn(6)]

    def split(data, rng_split):
        n_val = int(round(val_fraction * data.shape[0]))
        perm = rng_split.permutation(data.shape[0])
        return data[perm[:data.shape[0] - n_val]]

    train_in = split(inliers, streams[0])
    train_c = contrastive if own_val else split(contrastive, streams[1])
    want = []
    phases = [(objective != "contrastive", streams[2], streams[3], 2)]
    if objective == "cf_ft":
        phases.append((False, streams[4], streams[5], FINETUNE_EPOCHS))
    for nll, shuffle_in, shuffle_c, epochs in phases:
        steps_in = -(-train_in.shape[0] // 16)
        steps_c = -(-train_c.shape[0] // 16)
        steps = steps_in if nll else max(steps_in, steps_c)
        for _ in range(epochs):
            perm_in = shuffle_in.permutation(train_in.shape[0])
            perm_c = None if nll else shuffle_c.permutation(train_c.shape[0])
            for step in range(steps):
                lo = (step % steps_in) * 16
                want.append(train_in[perm_in[lo:lo + 16]])
                if not nll:
                    lo = (step % steps_c) * 16
                    want.append(train_c[perm_c[lo:lo + 16]])
    assert len(seen) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(seen, want))


def test_contrastive_requires_matching_dims():
    model = small_model(dim=2, seed=11)
    with pytest.raises(Exception):
        contrastive_objective(model, np.zeros((2, 2)), np.zeros((2, 3)), 0.0)


def _tau_leaving(active, model, neg):
    """A clamp threshold that leaves none, some or all rows of neg active."""
    nll_neg = -flows.log_prob(model, neg)
    return {"none": nll_neg.min() - 1.0, "some": float(np.median(nll_neg)),
            "all": nll_neg.max() + 1.0}[active]


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(1, 6), hidden=st.sampled_from([1, 3, 8, 17]),
       n_blocks=st.integers(1, 3), n_pos=st.integers(1, 300), n_neg=st.integers(1, 2047),
       active=st.sampled_from(["none", "some", "all"]), seed=st.integers(0, 10_000))
def test_contrastive_matches_two_pass_reference(dim, hidden, n_blocks, n_pos, n_neg,
                                                active, seed):
    # below 2048 rows log_prob runs the batch in one row block, so the one
    # forward pass gives the bits of the two-pass reference
    model = small_model(dim=dim, seed=seed, hidden=hidden, n_blocks=n_blocks)
    perturb(model, seed=seed)
    rng = np.random.default_rng(seed)
    pos = rng.standard_normal((n_pos, dim))
    neg = 2.0 * rng.standard_normal((n_neg, dim))
    tau = _tau_leaving(active, model, neg)
    loss, grads = contrastive_objective(model, pos, neg, tau)
    want_loss, want_grads = two_pass_contrastive(model, pos, neg, tau)
    assert np.array_equal(loss, want_loss)
    assert grads.keys() == want_grads.keys()
    for name in grads:
        assert np.array_equal(grads[name], want_grads[name]), name
    if active == "none":
        # criterion 2: a saturated batch gives the plain NLL gradients
        loss_n, grads_n = nll_objective(model, pos)
        assert loss == pytest.approx(loss_n - tau, rel=1e-12, abs=1e-12)
        for name in grads_n:
            assert np.array_equal(grads[name], grads_n[name]), name


@pytest.mark.parametrize("active", ["none", "some", "all"])
def test_contrastive_runs_each_batch_forward_once(monkeypatch, active):
    model = small_model(dim=3, seed=2, n_blocks=3)
    perturb(model, seed=4)
    rng = np.random.default_rng(5)
    pos, neg = rng.standard_normal((7, 3)), 2.0 * rng.standard_normal((11, 3))
    tau = _tau_leaving(active, model, neg)
    rows = []
    forward = flows.mlp_forward

    def counting(store, spec, x, *args, **kwargs):
        rows.append(np.shape(x)[0])
        return forward(store, spec, x, *args, **kwargs)

    monkeypatch.setattr(flows, "mlp_forward", counting)
    contrastive_objective(model, pos, neg, tau)
    assert sum(rows) == model.n_blocks * (7 + 11)


@settings(max_examples=30, deadline=None)
@given(dim=st.integers(1, 5), hidden=st.sampled_from([1, 4, 17]), n_blocks=st.integers(1, 3),
       rows=st.integers(1, 40), short=st.integers(1, 40),
       objective=st.sampled_from(["nll", "none", "some", "all"]),
       activation=st.sampled_from(["relu", "softplus"]), seed=st.integers(0, 10_000))
def test_steps_in_one_warm_workspace_match_fresh_workspaces(dim, hidden, n_blocks, rows, short,
                                                            objective, activation, seed):
    # a fit runs every step in one workspace of `rows` rows, its last
    # batch often shorter; each step must give the bits of a step run in
    # a workspace of its own
    model = small_model(dim=dim, seed=seed, hidden=hidden, n_blocks=n_blocks,
                        activation=activation)
    perturb(model, seed=seed)
    rng = np.random.default_rng(seed)
    workspace = flows.Workspace(model, rows, cached=True)
    for n in (rows, min(short, rows), rows):
        pos, neg = rng.standard_normal((n, dim)), 2.0 * rng.standard_normal((rows, dim))
        if objective == "nll":
            want = nll_objective(model, pos)
            got = nll_objective(model, pos, workspace=workspace)
        else:
            tau = _tau_leaving(objective, model, neg)
            want = contrastive_objective(model, pos, neg, tau)
            got = contrastive_objective(model, pos, neg, tau, workspace=workspace)
        assert np.array_equal(got[0], want[0])
        assert not np.shares_memory(got[1].flat, want[1].flat)
        assert np.array_equal(got[1].flat, want[1].flat)
        # the parameters move between steps, as in a fit
        adam_step(model.store, got[1], 1e-2)


def test_a_warm_contrastive_step_allocates_no_batch_by_width_array():
    # after one warm-up step, a step in the same workspace (clamp active
    # on some rows) allocates its gradient (80 KB) and arrays of batch x D
    # only: its traced peak stays under one batch x width array (256 KB),
    # where allocating passes took the 2 x 2 hidden activations at least
    batch, width = 512, 64
    model = small_model(dim=8, seed=3, hidden=width, n_blocks=2)
    perturb(model, scale=0.1, seed=4)
    rng = np.random.default_rng(5)
    pos, neg = rng.standard_normal((batch, 8)), 2.0 * rng.standard_normal((batch, 8))
    tau = _tau_leaving("some", model, neg)
    workspace = flows.Workspace(model, batch, cached=True)

    def step():
        loss, grads = contrastive_objective(model, pos, neg, tau, workspace=workspace)
        adam_step(model.store, grads, 1e-3)
        return grads

    step()
    tracemalloc.start()
    try:
        grads = step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grads.flat.nbytes < 100_000
    assert peak < batch * width * 8


def test_contrastive_overflowing_negative_row_raises():
    # z = x under the initial model, finite, but z * z overflows; the clamp
    # must not hide the infinite NLL as tau
    model = flows.init_model(2, 2, 5)
    pos = np.random.default_rng(0).standard_normal((4, 2))
    with pytest.raises(NumericError, match="non-finite negative log-likelihood"):
        contrastive_objective(model, pos, np.array([[1e308, 1e308]]), 0.0)


def _csv_rows(tmp_path, n, value):
    """n 2-d rows of `value` in each column, read from a CSV feature file."""
    path = tmp_path / "rows.csv"
    save_features(FeatureSet(np.full((n, 2), value)), path)
    return load_features(path)


# each NLL below is finite but their sum is not, and neither the overflow
# nor a non-finite gradient of the backward pass may warn first
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_an_overflowing_nll_mean_raises_without_a_warning(tmp_path):
    # ||z||^2 / 2 = 1e306 per row under the initial model, 256 rows
    model = flows.init_model(2, 2, 5)
    with pytest.raises(NumericError, match="^NLL loss is non-finite$"):
        nll_objective(model, _csv_rows(tmp_path, 256, 1e153))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("value, tau", [(1e153, 1e308), (1.0, -1e308)])
def test_an_overflowing_clamped_mean_raises_without_a_warning(tmp_path, value, tau):
    # 256 clamped NLLs of 1e306 each, all below the clamp, so the backward
    # pass runs over them too; or 256 clamped at tau = -1e308
    model = flows.init_model(2, 2, 5)
    pos = np.random.default_rng(0).standard_normal((4, 2))
    with pytest.raises(NumericError, match="^contrastive loss is non-finite$"):
        contrastive_objective(model, pos, _csv_rows(tmp_path, 256, value), tau)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("mean", ["epoch loss", "mean validation log density"])
def test_an_overflowing_mean_of_train_raises_without_a_warning(monkeypatch, mean):
    inl = gen_gaussian([0.0, 0.0], 1.0, 40, seed=1)
    if mean == "epoch loss":
        # one contrastive row clamped at -1e308 makes each step's loss
        # about 1e308, so the mean of two steps overflows
        con = np.zeros((1, 2))
        cfg = TrainConfig(batch_size=20, max_epochs=1, clamp_tau=-1e308, val_fraction=0.0)
    else:
        con = None
        cfg = TrainConfig(batch_size=20, max_epochs=1, val_fraction=0.25, objective="nll")
        monkeypatch.setattr(training, "log_prob", lambda model, x: np.full(x.shape[0], -1e308))
    with pytest.raises(NumericError, match=f"^{mean} is non-finite$"):
        train(flows.init_model(2, 2, 5), inl, con, cfg)


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


def test_early_stopping_restores_the_best_epoch_parameters():
    # a run that stopped past its best epoch ends with that epoch's
    # parameters, the bits of a rerun that stops at it
    inl = gen_gaussian([0.0, 0.0], 1.0, 400, seed=23)
    con = gen_gaussian([1.0, 1.0], 2.0, 400, seed=24)
    cfg = TrainConfig(batch_size=64, lr=1e-2, max_epochs=30, patience=2, clamp_tau=6.0,
                      val_fraction=0.2, seed=0)
    model, history = train(flows.init_model(2, 2, 8, seed=7), inl, con, cfg)
    assert history.stopped_early and history.best_epoch < len(history.train_loss) - 1
    rerun, rerun_history = train(flows.init_model(2, 2, 8, seed=7), inl, con,
                                 replace(cfg, max_epochs=history.best_epoch + 1))
    assert rerun_history.best_epoch == history.best_epoch
    assert np.array_equal(model.store.params.flat, rerun.store.params.flat)


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
    cfg = TrainConfig(batch_size=128, max_epochs=3, clamp_tau=6.0, objective="cf_ft", seed=12)
    model, history = train(flows.init_model(1, 2, 8, seed=5), inl, con, cfg)
    assert len(history.train_loss) == 3 + 2
    assert history.best_epoch < 3


def test_cf_ft_without_nll_epochs_takes_the_last_finetune_epoch():
    inl = gen_gaussian([0.0], 1.0, 400, seed=10)
    con = gen_gaussian([1.0], 2.0, 400, seed=11)
    cfg = TrainConfig(batch_size=128, max_epochs=0, clamp_tau=6.0, objective="cf_ft", seed=12)
    _, history = train(flows.init_model(1, 2, 8, seed=5), inl, con, cfg)
    assert len(history.train_loss) == FINETUNE_EPOCHS
    assert history.best_epoch == FINETUNE_EPOCHS - 1


def test_nll_training_validates_against_a_given_contrastive_set():
    inl = gen_gaussian([0.0], 1.0, 400, seed=10)
    val_c = gen_gaussian([1.0], 2.0, 100, seed=11)
    cfg = TrainConfig(batch_size=128, max_epochs=3, objective="nll", seed=12)
    _, history = train(flows.init_model(1, 2, 8, seed=5), inl, None, cfg,
                       val_contrastive_set=val_c)
    assert len(history.proxy_auroc) == 3
    assert all(auroc is not None for auroc in history.proxy_auroc)


def test_train_checks_the_validation_contrastive_dimension_before_any_epoch():
    cfg = TrainConfig(objective="nll", max_epochs=0)
    with pytest.raises(DimensionError):
        train(small_model(), gen_gaussian([0.0], 1.0, 10, seed=0), None, cfg,
              val_contrastive_set=gen_gaussian([0.0, 0.0], 1.0, 10, seed=1))


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
