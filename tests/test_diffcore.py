import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnflow.diffcore import (MlpSpec, ParamStore, adam_step, as_batch,
                             finite_difference_grad, init_mlp_params,
                             mlp_backward, mlp_forward)
from cnflow.errors import DimensionError, NumericError


def make_store(spec, seed=0, zero_last=False, prefix=""):
    store = ParamStore()
    for name, value in init_mlp_params(spec, np.random.default_rng(seed), zero_last).items():
        store.register(prefix + name, value)
    return store


def test_zero_weight_network_outputs_zero():
    spec = MlpSpec(3, 2, hidden_width=4, n_hidden_layers=1)
    store = make_store(spec)
    for name in store.params:
        store.params[name][...] = 0.0
    y, _ = mlp_forward(store, spec, np.random.default_rng(1).standard_normal((5, 3)))
    assert np.array_equal(y, np.zeros((5, 2)))


def test_identity_linear_layer():
    spec = MlpSpec(3, 3, hidden_width=4, n_hidden_layers=0)
    store = make_store(spec)
    store.params["w0"][...] = np.eye(3)
    store.params["b0"][...] = 0.0
    x = np.random.default_rng(2).standard_normal((4, 3))
    y, _ = mlp_forward(store, spec, x)
    assert np.array_equal(y, x)


def test_forward_matches_hand_arithmetic():
    # 2 -> 3 -> 1 relu network checked against explicit matrix algebra
    spec = MlpSpec(2, 1, hidden_width=3, n_hidden_layers=1)
    store = make_store(spec, seed=5)
    x = np.array([[0.3, -1.2]])
    w0, b0 = store.params["w0"], store.params["b0"]
    w1, b1 = store.params["w1"], store.params["b1"]
    h = x @ w0 + b0
    expected = np.maximum(h, 0.0) @ w1 + b1
    y, _ = mlp_forward(store, spec, x)
    assert np.allclose(y, expected, atol=1e-12, rtol=0)


def test_forward_shape_mismatch():
    spec = MlpSpec(3, 1)
    store = make_store(spec)
    with pytest.raises(DimensionError):
        mlp_forward(store, spec, np.zeros((2, 4)))


@settings(max_examples=60, deadline=None)
@given(activation=st.sampled_from(["relu", "softplus"]), n_hidden=st.integers(0, 2),
       in_width=st.integers(0, 5), rows=st.integers(0, 7), spare=st.integers(0, 3),
       seed=st.integers(0, 10_000))
def test_forward_into_buffers_matches_cached_forward(activation, n_hidden, in_width, rows,
                                                     spare, seed):
    spec = MlpSpec(in_width, 3, hidden_width=4, n_hidden_layers=n_hidden, activation=activation)
    store = make_store(spec, seed=seed)
    rng = np.random.default_rng(seed)
    for p in store.params.values():
        p += rng.standard_normal(p.shape)
    x = 2.0 * rng.standard_normal((rows, in_width))
    want, cache = mlp_forward(store, spec, x)
    # buffers with more rows than x, filled with garbage
    out = [np.full((rows + spare, fan_out), np.nan) for _, fan_out in spec.layer_dims()]
    got, no_cache = mlp_forward(store, spec, x, out=out)
    assert no_cache is None and cache is not None
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(out[-1][:rows], want)


def test_backward_zero_grad_output():
    spec = MlpSpec(2, 2, hidden_width=3, n_hidden_layers=1)
    store = make_store(spec, seed=3)
    x = np.random.default_rng(4).standard_normal((6, 2))
    y, cache = mlp_forward(store, spec, x)
    grads, gx = mlp_backward(cache, np.zeros_like(y))
    assert all(np.array_equal(g, np.zeros_like(g)) for g in grads.values())
    assert np.array_equal(gx, np.zeros_like(x))


def test_backward_scalar_linear():
    # f(w) = w * x with x = 2: df/dw = 2
    spec = MlpSpec(1, 1, n_hidden_layers=0)
    store = make_store(spec)
    store.params["w0"][...] = 1.5
    store.params["b0"][...] = 0.0
    _, cache = mlp_forward(store, spec, np.array([[2.0]]))
    grads, _ = mlp_backward(cache, np.array([[1.0]]))
    assert grads["w0"][0, 0] == pytest.approx(2.0, abs=0)


def test_backward_wrong_shape():
    spec = MlpSpec(2, 2, hidden_width=3, n_hidden_layers=1)
    store = make_store(spec)
    _, cache = mlp_forward(store, spec, np.zeros((3, 2)))
    with pytest.raises(DimensionError):
        mlp_backward(cache, np.zeros((3, 1)))


def _relu_safe_setup(spec, h):
    # central differences are only valid away from the relu kink; pick a
    # seed whose hidden pre-activations keep a margin much larger than h
    rng = np.random.default_rng(10)
    for seed in range(100):
        store = make_store(spec, seed=seed)
        x = rng.standard_normal((5, spec.in_width))
        _, cache = mlp_forward(store, spec, x)
        if min(np.abs(p).min() for p in cache.pre) > 200 * h:
            return store, x
    raise AssertionError("no kink-free configuration found")


@pytest.mark.parametrize("activation", ["softplus", "relu"])
def test_backward_matches_finite_differences(activation):
    spec = MlpSpec(3, 2, hidden_width=4, n_hidden_layers=2, activation=activation)
    rng = np.random.default_rng(10)
    if activation == "relu":
        store, x = _relu_safe_setup(spec, h=1e-5)
    else:
        store = make_store(spec, seed=9)
        x = rng.standard_normal((5, 3))
    target = rng.standard_normal((5, 2))

    def loss():
        y, _ = mlp_forward(store, spec, x)
        return 0.5 * float(np.sum((y - target) ** 2))

    y, cache = mlp_forward(store, spec, x)
    grads, _ = mlp_backward(cache, y - target)
    fd = finite_difference_grad(loss, store, h=1e-5)
    for name in store.params:
        denom = np.maximum(np.abs(fd[name]), 1e-8)
        rel = np.abs(grads[name] - fd[name]) / denom
        assert rel.max() < 1e-5, f"{name}: rel err {rel.max()}"


def test_finite_difference_quadratic():
    store = ParamStore()
    store.register("theta", np.array([3.0]))
    fd = finite_difference_grad(lambda: float(store.params["theta"][0] ** 2), store, h=1e-4)
    assert fd["theta"][0] == pytest.approx(6.0, abs=1e-6)


def test_finite_difference_constant():
    store = ParamStore()
    store.register("theta", np.arange(4.0))
    fd = finite_difference_grad(lambda: 7.5, store, h=1e-4)
    assert np.array_equal(fd["theta"], np.zeros(4))


def test_adam_first_step_magnitude():
    store = ParamStore()
    store.register("p", np.array([1.0]))
    adam_step(store, {"p": np.ones(1)}, lr=1e-3)
    # bias-corrected first step is lr * g / (|g| + eps)
    assert store.params["p"][0] == pytest.approx(1.0 - 1e-3, abs=1e-9)
    assert store.step == 1


def test_adam_zero_grad_fixed_point():
    store = ParamStore()
    store.register("p", np.array([0.7, -0.3]))
    before = store.params["p"].copy()
    adam_step(store, {"p": np.zeros(2)}, lr=1e-3)
    assert np.max(np.abs(store.params["p"] - before)) < 1e-3 * 1e-6


def test_adam_nan_grad_leaves_params_unchanged():
    store = ParamStore()
    store.register("p", np.array([1.0]))
    store.register("q", np.array([2.0]))
    with pytest.raises(NumericError):
        adam_step(store, {"p": np.ones(1), "q": np.array([np.nan])}, lr=1e-3)
    assert store.params["p"][0] == 1.0
    assert store.params["q"][0] == 2.0
    assert store.step == 0


@settings(max_examples=40, deadline=None)
@given(shapes=st.lists(st.lists(st.integers(0, 3), max_size=2), min_size=1, max_size=3),
       steps=st.integers(1, 5), lr=st.floats(1e-4, 0.5), seed=st.integers(0, 2**32 - 1))
def test_adam_matches_scalar_resimulation(shapes, steps, lr, seed):
    # Adam steps on sum (theta - 1)^2 over arrays of random shapes match an
    # independent per-coordinate scalar re-simulation of the update rule,
    # and the caller's gradient arrays are only read
    rng = np.random.default_rng(seed)
    b1, b2, eps = 0.9, 0.999, 1e-8
    store = ParamStore()
    for k, shape in enumerate(shapes):
        store.register(f"p{k}", rng.uniform(-2.0, 2.0, size=shape))
    # per coordinate: [theta, m, v]
    ref = {name: [[float(x), 0.0, 0.0] for x in p.ravel()] for name, p in store.params.items()}
    for t in range(1, steps + 1):
        grads = {name: 2.0 * (p - 1.0) for name, p in store.params.items()}
        before = {name: g.copy() for name, g in grads.items()}
        adam_step(store, grads, lr=lr, beta1=b1, beta2=b2, eps=eps)
        assert store.step == t
        for name, coords in ref.items():
            assert np.array_equal(grads[name], before[name])
            for coord in coords:
                theta, m, v = coord
                g = 2.0 * (theta - 1.0)
                m = b1 * m + (1 - b1) * g
                v = b2 * v + (1 - b2) * g * g
                theta -= lr * (m / (1 - b1 ** t)) / (math.sqrt(v / (1 - b2 ** t)) + eps)
                coord[:] = [theta, m, v]
            np.testing.assert_allclose(store.params[name].ravel(), [c[0] for c in coords],
                                       rtol=0, atol=1e-12)


def test_deterministic_init():
    spec = MlpSpec(4, 3, hidden_width=8)
    a = init_mlp_params(spec, np.random.default_rng(42))
    b = init_mlp_params(spec, np.random.default_rng(42))
    for name in a:
        assert np.array_equal(a[name], b[name])


def test_as_batch_promotes_vectors():
    out = as_batch([1.0, 2.0], cols=2)
    assert out.shape == (1, 2)
    with pytest.raises(DimensionError):
        as_batch(np.zeros((2, 2, 2)))
