import math
import sys
import threading
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnflow import diffcore
from cnflow.datasets import FeatureSet
from cnflow.diffcore import (MlpSpec, ParamStore, adam_step, as_batch, init_mlp_params,
                             mlp_backward, mlp_forward)
from cnflow.errors import DegenerateDataError, DimensionError, NumericError
from helpers import finite_difference_grad, per_name_adam_step, store_of


def grad_of(store, arrays):
    """A gradient in the store's layout holding the named arrays."""
    grads = store.new_grad()
    for name, value in arrays.items():
        grads[name][...] = value
    return grads


def make_store(spec, seed=0, zero_last=False, prefix=""):
    params = init_mlp_params(spec, np.random.default_rng(seed), zero_last)
    return store_of({prefix + name: value for name, value in params.items()})


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
    got, kept = mlp_forward(store, spec, x, out=out)
    assert got.shape == want.shape and np.array_equal(got, want)
    assert np.array_equal(out[-1][:rows], want)
    # the cache keeps the hidden activations in the given arrays
    for a, buf, b in zip(kept.inputs[1:], out, cache.inputs[1:]):
        assert np.shares_memory(a, buf) or not a.size
        assert np.array_equal(a, b)


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


def _pre_activations(store, spec, x):
    """Pre-activation of each hidden layer, by the forward arithmetic."""
    pre, a = [], x
    for layer in range(spec.n_hidden_layers):
        h = a @ store.params[f"w{layer}"]
        h += store.params[f"b{layer}"]
        pre.append(h)
        a = np.maximum(h, 0.0) if spec.activation == "relu" else np.logaddexp(0.0, h)
    return pre


def _relu_safe_setup(spec, h):
    # central differences are only valid away from the relu kink; pick a
    # seed whose hidden pre-activations keep a margin much larger than h
    rng = np.random.default_rng(10)
    for seed in range(100):
        store = make_store(spec, seed=seed)
        x = rng.standard_normal((5, spec.in_width))
        if min(np.abs(p).min() for p in _pre_activations(store, spec, x)) > 200 * h:
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


def test_relu_mask_from_the_output_is_the_mask_from_the_pre_activation():
    h = np.array([-np.inf, -1.0, -5e-324, -0.0, 0.0, 5e-324, 1.0, np.inf, np.nan])
    assert np.array_equal(np.maximum(h, 0.0) > 0.0, h > 0.0)


@settings(max_examples=30, deadline=None)
@given(n_hidden=st.integers(1, 3), rows=st.integers(1, 9), seed=st.integers(0, 10_000))
def test_relu_backward_is_bitwise_the_pre_activation_mask_backward(n_hidden, rows, seed):
    # the cache keeps each hidden activation once, as max(h, 0); backward
    # through it must give the bits of backward through masks of h itself
    spec = MlpSpec(3, 2, hidden_width=6, n_hidden_layers=n_hidden)
    store = make_store(spec, seed=seed)
    rng = np.random.default_rng(seed)
    for p in store.params.values():
        p += rng.standard_normal(p.shape)
    # integer-valued rows put some pre-activations exactly on the kink
    x = rng.integers(-1, 2, size=(rows, 3)).astype(float)
    store.params["b0"][...] = 0.0
    y, cache = mlp_forward(store, spec, x)
    grad_out = rng.standard_normal(y.shape)
    pre = _pre_activations(store, spec, x)
    for layer, h in enumerate(pre):
        assert np.array_equal(cache.inputs[layer + 1] > 0.0, h > 0.0)
    # the backward pass consumes the cache's activations
    grads, gx = mlp_backward(cache, grad_out)
    g, inputs = grad_out, [x] + [np.maximum(h, 0.0) for h in pre]
    for layer in range(n_hidden, -1, -1):
        assert np.array_equal(grads[f"w{layer}"], inputs[layer].T @ g)
        assert np.array_equal(grads[f"b{layer}"], g.sum(axis=0))
        g = g @ store.params[f"w{layer}"].T
        if layer > 0:
            g = g * (pre[layer - 1] > 0.0)
    assert np.array_equal(gx, g)


def test_finite_difference_quadratic():
    store = store_of({"theta": np.array([3.0])})
    fd = finite_difference_grad(lambda: float(store.params["theta"][0] ** 2), store, h=1e-4)
    assert fd["theta"][0] == pytest.approx(6.0, abs=1e-6)


def test_finite_difference_constant():
    store = store_of({"theta": np.arange(4.0)})
    fd = finite_difference_grad(lambda: 7.5, store, h=1e-4)
    assert np.array_equal(fd["theta"], np.zeros(4))


def test_adam_first_step_magnitude():
    store = store_of({"p": np.array([1.0])})
    adam_step(store, grad_of(store, {"p": np.ones(1)}), lr=1e-3)
    # bias-corrected first step is lr * g / (|g| + eps)
    assert store.params["p"][0] == pytest.approx(1.0 - 1e-3, abs=1e-9)
    assert store.step == 1


def test_adam_zero_grad_fixed_point():
    store = store_of({"p": np.array([0.7, -0.3])})
    before = store.params["p"].copy()
    adam_step(store, grad_of(store, {"p": np.zeros(2)}), lr=1e-3)
    assert np.max(np.abs(store.params["p"] - before)) < 1e-3 * 1e-6


def test_adam_nan_grad_leaves_params_unchanged():
    store = store_of({"p": np.array([1.0]), "q": np.array([2.0])})
    with pytest.raises(NumericError, match="gradient for 'q'; parameters unchanged"):
        adam_step(store, grad_of(store, {"p": np.ones(1), "q": np.array([np.nan])}), lr=1e-3)
    assert store.params["p"][0] == 1.0
    assert store.params["q"][0] == 2.0
    assert store.step == 0


@pytest.mark.parametrize("bad", [np.inf, 2.0 ** 511 * (1 + 2 ** -52), -1e160])
def test_adam_refuses_an_overlarge_gradient_and_changes_nothing(bad):
    # a finite gradient whose square overflows would make v infinite and
    # freeze its parameter; the step refuses it as it refuses a NaN
    store = store_of({"p": np.array([1.0, -1.0]), "q": np.array([2.0])})
    adam_step(store, grad_of(store, {"p": [0.5, -0.5], "q": [1.0]}), lr=1e-3)
    before = [getattr(store, kind).flat.copy() for kind in ("params", "m", "v")]
    with pytest.raises(NumericError, match="gradient for 'p'; parameters unchanged"):
        adam_step(store, grad_of(store, {"p": [0.5, bad], "q": [1.0]}), lr=1e-3)
    for kind, flat in zip(("params", "m", "v"), before):
        assert getattr(store, kind).flat.tobytes() == flat.tobytes()
    assert store.step == 1


@settings(max_examples=80, deadline=None)
@given(grads=st.lists(st.lists(st.floats(-1e300, 1e300), min_size=3, max_size=3),
                      min_size=1, max_size=6),
       lr=st.floats(1e-6, 1.0), seed=st.integers(0, 2**32 - 1))
def test_accepted_adam_steps_keep_the_store_finite(grads, lr, seed):
    # a gradient with every entry within +-2**511, tiny, huge or 0, is
    # accepted and leaves the moments and parameters finite, without a
    # numpy warning; any other is refused and changes nothing
    store = store_of({"p": np.random.default_rng(seed).uniform(-2.0, 2.0, size=3)})
    for g in grads:
        before = [kind.flat.copy() for kind in (store.params, store.m, store.v)]
        step = store.step
        if max(map(abs, g)) <= 2.0 ** 511:
            adam_step(store, grad_of(store, {"p": g}), lr=lr)
            assert store.step == step + 1
        else:
            with pytest.raises(NumericError, match="overlarge gradient for 'p'"):
                adam_step(store, grad_of(store, {"p": g}), lr=lr)
            assert store.step == step
            for kind, flat in zip((store.params, store.m, store.v), before):
                assert kind.flat.tobytes() == flat.tobytes()
        for kind in (store.params, store.m, store.v):
            assert np.all(np.isfinite(kind.flat))


def test_reset_optimizer_releases_the_moments():
    # the next step allocates zero moments, as a new store's first step does
    store = store_of({"p": np.array([1.0, 2.0])})
    fresh = store_of({"p": np.array([1.0, 2.0])})
    grads = grad_of(store, {"p": [0.3, -0.7]})
    adam_step(store, grads, lr=1e-2)
    store.params.flat[...] = fresh.params.flat
    store.reset_optimizer()
    assert "m" not in vars(store) and "v" not in vars(store) and store.step == 0
    adam_step(store, grads, lr=1e-2)
    adam_step(fresh, grads, lr=1e-2)
    for kind in ("params", "m", "v"):
        assert getattr(store, kind).flat.tobytes() == getattr(fresh, kind).flat.tobytes()


@settings(max_examples=40, deadline=None)
@given(shapes=st.lists(st.lists(st.integers(0, 3), max_size=2), min_size=1, max_size=3),
       steps=st.integers(1, 5), lr=st.floats(1e-4, 0.5), seed=st.integers(0, 2**32 - 1))
def test_adam_matches_scalar_resimulation(shapes, steps, lr, seed):
    # Adam steps on sum (theta - 1)^2 over arrays of random shapes match an
    # independent per-coordinate scalar re-simulation of the update rule,
    # and the caller's gradient arrays are only read
    rng = np.random.default_rng(seed)
    b1, b2, eps = 0.9, 0.999, 1e-8  # diffcore's Adam constants
    store = store_of({f"p{k}": rng.uniform(-2.0, 2.0, size=shape)
                      for k, shape in enumerate(shapes)})
    # per coordinate: [theta, m, v]
    ref = {name: [[float(x), 0.0, 0.0] for x in p.ravel()] for name, p in store.params.items()}
    for t in range(1, steps + 1):
        grads = grad_of(store, {name: 2.0 * (p - 1.0) for name, p in store.params.items()})
        before = {name: g.copy() for name, g in grads.items()}
        adam_step(store, grads, lr=lr)
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


@settings(max_examples=40, deadline=None)
@given(shapes=st.lists(st.lists(st.integers(0, 4), max_size=3), max_size=4),
       big=st.booleans(), steps=st.integers(1, 3),
       lr=st.floats(1e-4, 0.5), seed=st.integers(0, 2**32 - 1))
def test_chunked_adam_is_bitwise_the_per_name_step(shapes, big, steps, lr, seed):
    # the flat, chunked step against the per-name oracle on two stores of
    # the same parameters: empty stores, zero-size parameters and (with
    # big) a store that spans more than one chunk
    rng = np.random.default_rng(seed)
    named = {f"p{k}": tuple(shape) for k, shape in enumerate(shapes)}
    if big:
        named["big"] = (diffcore._ADAM_CHUNK + 17,)
    init = {name: rng.uniform(-2.0, 2.0, size=shape) for name, shape in named.items()}
    store, oracle = store_of(init), store_of(init)
    assert store.n_params() == sum(p.size for p in init.values())
    for t in range(1, steps + 1):
        grads = grad_of(store, {name: rng.standard_normal(shape) for name, shape in named.items()})
        adam_step(store, grads, lr=lr)
        per_name_adam_step(oracle, grads, lr=lr)
        assert store.step == oracle.step == t
        for kind in ("params", "m", "v"):
            assert getattr(store, kind).flat.tobytes() == getattr(oracle, kind).flat.tobytes()


def test_adam_on_an_empty_store_only_counts_the_step():
    store = ParamStore({})
    adam_step(store, store.new_grad(), lr=1e-3)
    adam_step(store, store.new_grad(), lr=1e-3)
    assert store.step == 2 and store.n_params() == 0


def test_adam_step_working_memory_is_two_small_chunks():
    # a step over 200000 parameters whose moments exist allocates its two
    # scratch chunks of 16384 floats (256 KiB) and, before them, the range
    # check's |g| chunk and mask; chunks of 65536 took 1 MiB
    rng = np.random.default_rng(0)
    store = store_of({"w": rng.standard_normal(200_000)})
    grads = grad_of(store, {"w": rng.standard_normal(200_000)})
    adam_step(store, grads, lr=1e-3)
    tracemalloc.start()
    try:
        adam_step(store, grads, lr=1e-3)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 2 * 16384 * 8 <= peak < 3 * 16384 * 8


def test_adam_rejects_a_gradient_of_another_layout():
    # a plain dict, or a FlatViews of another size, is not the store's
    # gradient; the step leaves the store as it was
    store = store_of({"p": np.array([1.0]), "q": np.array([2.0])})
    for grads in ({"p": np.ones(1), "q": np.ones(1)}, ParamStore({"p": (1,)}).new_grad()):
        with pytest.raises(DimensionError, match="FlatViews of the store's size"):
            adam_step(store, grads, lr=1e-3)
    assert store.params.flat.tolist() == [1.0, 2.0] and store.step == 0


def test_store_views_share_one_flat_array_per_kind():
    store = store_of({"w": np.arange(6.0).reshape(2, 3), "e": np.empty((0, 2)), "b": [7.0]})
    assert np.array_equal(store.params.flat, [0, 1, 2, 3, 4, 5, 7])
    store.params["b"][...] = 9.0
    assert store.params.flat[-1] == 9.0
    for kind in (store.m, store.v, store.new_grad()):
        assert list(kind) == ["w", "e", "b"]
        assert all(np.shares_memory(view, kind.flat) for view in kind.values() if view.size)


def test_mlp_backward_adds_into_a_given_gradient():
    spec = MlpSpec(3, 2, hidden_width=5, n_hidden_layers=2)
    store = make_store(spec, seed=4)
    rng = np.random.default_rng(5)
    x = rng.standard_normal((6, 3))
    g1, g2 = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))

    def cache():
        # a backward pass consumes its cache, so each one runs a forward pass
        return mlp_forward(store, spec, x)[1]

    first, _ = mlp_backward(cache(), g1)
    second, _ = mlp_backward(cache(), g2)
    total = store.new_grad()
    assert mlp_backward(cache(), g1, total)[0] is total
    mlp_backward(cache(), g2, total, add=True)
    for name in store.params:
        assert np.array_equal(total[name], first[name] + second[name])


def test_mlp_backward_adding_without_a_gradient_raises():
    # a new gradient is uninitialised memory, so there is nothing to add to
    spec = MlpSpec(3, 2, hidden_width=5, n_hidden_layers=1)
    store = make_store(spec, seed=6)
    _, cache = mlp_forward(store, spec, np.random.default_rng(7).standard_normal((4, 3)))
    with pytest.raises(ValueError, match="add needs the gradients"):
        mlp_backward(cache, np.ones((4, 2)), add=True)


def test_a_spent_mlp_cache_raises():
    spec = MlpSpec(3, 2, hidden_width=5, n_hidden_layers=2)
    store = make_store(spec, seed=4)
    y, cache = mlp_forward(store, spec, np.ones((4, 3)))
    mlp_backward(cache, np.ones_like(y))
    with pytest.raises(RuntimeError, match="one backward pass"):
        mlp_backward(cache, np.ones_like(y))


@settings(max_examples=40, deadline=None)
@given(activation=st.sampled_from(["relu", "softplus"]), n_hidden=st.integers(0, 3),
       in_width=st.integers(0, 4), rows=st.integers(1, 9), spare=st.integers(0, 3),
       add=st.booleans(), seed=st.integers(0, 10_000))
def test_backward_in_given_memory_is_bitwise_the_allocating_backward(
        activation, n_hidden, in_width, rows, spare, add, seed):
    # a forward pass into given arrays and a backward pass with a kept
    # scratch and a given input gradient array, both with spare rows of
    # garbage, give the bits of the passes that allocate their own arrays
    spec = MlpSpec(in_width, 3, hidden_width=4, n_hidden_layers=n_hidden, activation=activation)
    store = make_store(spec, seed=seed)
    rng = np.random.default_rng(seed)
    for p in store.params.values():
        p += rng.standard_normal(p.shape)
    x = rng.standard_normal((rows, in_width))
    grad_out = rng.standard_normal((rows, 3))
    start = grad_of(store, {name: rng.standard_normal(p.shape)
                            for name, p in store.params.items()})
    want = grad_of(store, start)
    _, cache = mlp_forward(store, spec, x)
    _, want_gx = mlp_backward(cache, grad_out, want, add)
    out = [np.full((rows + spare, fan_out), np.nan) for _, fan_out in spec.layer_dims()]
    scratch = diffcore.MlpScratch(spec, rows + spare)
    scratch.mask.fill(True)
    scratch.weight_grad.fill(np.nan)
    gx_buf = np.full((rows + spare, in_width), np.nan)
    got = grad_of(store, start)
    _, kept = mlp_forward(store, spec, x, out=out)
    _, gx = mlp_backward(kept, grad_out, got, add, scratch, gx_buf[:rows])
    assert np.shares_memory(gx, gx_buf) or not gx.size
    assert np.array_equal(gx, want_gx)
    for name in store.params:
        assert np.array_equal(got[name], want[name]), name


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


# --- run_tasks ---------------------------------------------------------------

@pytest.mark.parametrize("workers, n_tasks", [(1, 7), (2, 7), (3, 7), (4, 7), (4, 2)])
def test_run_tasks_returns_results_in_task_order_from_worker_i_mod_w(workers, n_tasks):
    # the later a task, the sooner it ends, so tasks end out of order
    threads = {}

    def task(i):
        threads[i] = threading.get_ident()
        time.sleep(0.003 * (n_tasks - i))
        return i * i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        got = diffcore.run_tasks([partial(task, i) for i in range(n_tasks)], workers)
    finally:
        sys.setswitchinterval(interval)
    assert got == [i * i for i in range(n_tasks)]
    # task i ran on worker i mod W, and worker 0 is the calling thread
    w = min(workers, n_tasks)
    for i in range(n_tasks):
        assert threads[i] == threads[i % w]
        assert (threads[i] == threading.get_ident()) == (i % w == 0)


def test_one_worker_runs_every_task_in_the_calling_thread_and_leaves_blas_alone():
    blas = diffcore.blas_threads()
    seen = []

    def task(i):
        seen.append((threading.get_ident(), diffcore.blas_threads(),
                     diffcore._BLAS_LOCK.locked()))
        return i

    assert diffcore.run_tasks([partial(task, i) for i in range(3)]) == [0, 1, 2]
    assert seen == [(threading.get_ident(), blas, False)] * 3
    assert diffcore.run_tasks([]) == []


@pytest.mark.parametrize("workers", [1, 2, 3, 4])
def test_run_tasks_raises_the_lowest_failing_task_once_every_worker_stopped(workers):
    # tasks 1, 2 and 4 of 6 fail, and task 1 fails last in time; a task that
    # succeeds finishes late, so a raise before its worker stopped shows
    failing = (1, 2, 4)
    ran, finished = [], []

    def task(i):
        ran.append(i)
        if i == 1:
            time.sleep(0.05)
        if i in failing:
            raise ValueError(f"task {i}")
        time.sleep(0.02)
        finished.append(i)

    with pytest.raises(ValueError, match="^task 1$"):
        diffcore.run_tasks([partial(task, i) for i in range(6)], workers)
    # each worker ran its tasks up to its first failure, and no further
    expected = []
    for k in range(workers):
        for i in range(k, 6, workers):
            expected.append(i)
            if i in failing:
                break
    assert sorted(ran) == sorted(expected)
    assert sorted(finished) == [i for i in sorted(expected) if i not in failing]


def test_run_tasks_restores_the_blas_thread_count_after_a_raise():
    blas = diffcore.blas_threads()
    seen = []

    def task(i):
        seen.append(diffcore.blas_threads())
        raise RuntimeError(f"task {i}")

    with pytest.raises(RuntimeError, match="^task 0$"):
        diffcore.run_tasks([partial(task, i) for i in range(4)], 2)
    assert seen == [1, 1]
    assert diffcore.blas_threads() == blas
    assert not diffcore._BLAS_LOCK.locked()


@pytest.mark.parametrize("shape", [(1, 1), (2, 3), (7, 1), (3, 5), (4, 7)])
def test_the_chunked_finiteness_check_sees_every_entry(monkeypatch, shape):
    # chunks of 7 entries: sizes below, at and between multiples of a chunk;
    # FeatureSet and as_batch raise on a bad entry in any chunk
    monkeypatch.setattr(diffcore, "_FINITE_CHUNK", 7)
    ones = np.ones(shape)
    assert diffcore.all_finite(ones)
    assert diffcore.require_finite(ones, LookupError, "where") is ones
    for i in range(math.prod(shape)):
        for bad in (np.nan, np.inf, -np.inf):
            a = np.ones(shape)
            a.flat[i] = bad
            assert not diffcore.all_finite(a)
            with pytest.raises(LookupError, match="^where$"):
                diffcore.require_finite(a, LookupError, "where")
            with pytest.raises(NumericError, match="input batch contains non-finite values"):
                as_batch(a)
            with pytest.raises(DegenerateDataError, match="contains non-finite entries"):
                FeatureSet(a)


@pytest.mark.parametrize("value, finite", [(0.0, True), (-1e308, True), (np.float64(2.0), True),
                                           (math.inf, False), (np.nan, False),
                                           (np.float64(-np.inf), False)])
def test_the_finiteness_check_takes_a_scalar(value, finite):
    assert diffcore.all_finite(value) is finite
