import math
import sys
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnflow import diffcore, flows
from cnflow.diffcore import finite_difference_grad
from cnflow.errors import FormatError, NumericError
from cnflow.training import nll_objective

LOG_2PI = math.log(2.0 * math.pi)


def small_model(dim=2, n_blocks=2, hidden=4, seed=0, activation="relu", alpha=3.0):
    return flows.init_model(dim, n_blocks=n_blocks, hidden_width=hidden,
                            clamp_alpha=alpha, seed=seed, activation=activation)


def perturb(model, scale=0.3, seed=7):
    rng = np.random.default_rng(seed)
    for p in model.store.params.values():
        p += scale * rng.standard_normal(p.shape)


def raw_for_logscale(target, alpha):
    # invert the soft clamp: s_eff = alpha * tanh(raw / alpha)
    return alpha * math.atanh(target / alpha)


# --- initialization -------------------------------------------------------

def test_identity_init_is_permutation_only():
    model = small_model(dim=4, n_blocks=3, seed=1)
    x = np.random.default_rng(0).standard_normal((6, 4))
    z, logdet = flows.forward_latent(model, x)
    assert np.array_equal(logdet, np.zeros(6))
    perm = np.arange(4)
    for block in model.blocks:
        perm = perm[block.perm]
    assert np.array_equal(z, x[:, perm])


def test_same_seed_bit_identical():
    a = flows.init_model(3, n_blocks=4, hidden_width=16, seed=9)
    b = flows.init_model(3, n_blocks=4, hidden_width=16, seed=9)
    for name in a.store.params:
        assert np.array_equal(a.store.params[name], b.store.params[name])
    for ba, bb in zip(a.blocks, b.blocks):
        assert np.array_equal(ba.perm, bb.perm)


def test_parameter_count_matches_hand_formula():
    # D=2: conditioner width 1, transformed width 1, subnet 1->512->512->2
    model = flows.init_model(2, n_blocks=8, hidden_width=512, seed=0)
    per_block = (1 * 512 + 512) + (512 * 512 + 512) + (512 * 2 + 2)
    assert flows.parameter_count(model) == 8 * per_block


def test_dim1_blocks_are_constants():
    model = flows.init_model(1, n_blocks=8, hidden_width=64, seed=0)
    assert flows.parameter_count(model) == 8 * 2
    z, logdet = flows.forward_latent(model, np.array([[0.5]]))
    assert z[0, 0] == 0.5 and logdet[0] == 0.0


# --- forward / log density ------------------------------------------------

def test_constant_logscale_logdet():
    # hand-set raw log-scale so the clamped value is exactly log 2 on the
    # single transformed dimension
    model = small_model(dim=2, n_blocks=1, seed=3)
    raw = raw_for_logscale(math.log(2.0), model.config.clamp_alpha)
    model.store.params["blk0.b2"][...] = np.array([raw, 0.0])
    _, logdet = flows.forward_latent(model, np.random.default_rng(1).standard_normal((5, 2)))
    assert np.allclose(logdet, math.log(2.0), atol=1e-12, rtol=0)


def test_log_prob_identity_1d_at_zero():
    model = flows.init_model(1, n_blocks=2, seed=0)
    assert flows.log_prob(model, [[0.0]])[0] == pytest.approx(-0.9189385332046727, abs=1e-12)


def test_log_prob_identity_2d_at_origin():
    model = small_model(dim=2, seed=0)
    assert flows.log_prob(model, [[0.0, 0.0]])[0] == pytest.approx(-LOG_2PI, abs=1e-12)


def test_logdet_matches_numeric_jacobian():
    model = small_model(dim=2, n_blocks=3, hidden=6, seed=5, activation="softplus")
    perturb(model)
    x0 = np.array([0.37, -0.81])
    h = 1e-6
    jac = np.zeros((2, 2))
    for j in range(2):
        xp, xm = x0.copy(), x0.copy()
        xp[j] += h
        xm[j] -= h
        zp, _ = flows.forward_latent(model, xp[None, :])
        zm, _ = flows.forward_latent(model, xm[None, :])
        jac[:, j] = (zp[0] - zm[0]) / (2 * h)
    _, logdet = flows.forward_latent(model, x0[None, :])
    numeric = math.log(abs(np.linalg.det(jac)))
    assert abs(logdet[0] - numeric) / max(abs(numeric), 1.0) < 1e-4


def test_logdet_matches_numeric_jacobian_3d():
    model = small_model(dim=3, n_blocks=2, hidden=5, seed=11, activation="softplus")
    perturb(model, scale=0.2)
    x0 = np.array([0.1, 0.6, -0.4])
    h = 1e-6
    jac = np.zeros((3, 3))
    for j in range(3):
        xp, xm = x0.copy(), x0.copy()
        xp[j] += h
        xm[j] -= h
        jac[:, j] = (flows.forward_latent(model, xp[None, :])[0][0]
                     - flows.forward_latent(model, xm[None, :])[0][0]) / (2 * h)
    _, logdet = flows.forward_latent(model, x0[None, :])
    numeric = math.log(abs(np.linalg.det(jac)))
    assert abs(logdet[0] - numeric) / max(abs(numeric), 1.0) < 1e-4


def test_quadrature_normalization_1d():
    model = flows.init_model(1, n_blocks=4, seed=2)
    perturb(model, scale=0.4, seed=3)
    grid = np.linspace(-8.0, 8.0, 4001)
    density = np.exp(flows.log_prob(model, grid[:, None]))
    assert np.trapezoid(density, grid) == pytest.approx(1.0, abs=0.01)


def test_quadrature_normalization_2d():
    model = small_model(dim=2, n_blocks=3, hidden=8, seed=4)
    perturb(model, scale=0.2, seed=5)
    axis = np.linspace(-9.0, 9.0, 241)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    vals = np.exp(flows.log_prob(model, pts)).reshape(241, 241)
    integral = np.trapezoid(np.trapezoid(vals, axis, axis=1), axis)
    assert integral == pytest.approx(1.0, abs=0.02)


def test_non_finite_input_raises():
    model = small_model()
    with pytest.raises(NumericError):
        flows.forward_latent(model, np.array([[np.nan, 0.0]]))


def test_non_finite_intermediate_names_block():
    model = small_model(dim=2, n_blocks=3, seed=0)
    model.store.params["blk1.b2"][...] = np.array([0.0, np.inf])
    with pytest.raises(NumericError, match="block 1"):
        flows.forward_latent(model, np.array([[1.0, 1.0]]))


# --- row blocks -------------------------------------------------------------

B = flows._BLOCK_ROWS


def forward_only_outputs(model, x):
    z, logdet = flows.forward_latent(model, x)
    x_back, inv_logdet = flows.inverse(model, x, return_logdet=True)
    return flows.log_prob(model, x), z, logdet, x_back, inv_logdet


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([0, 1, B - 1, B, B + 1, 3 * B + 5]), st.integers(min_value=1, max_value=4),
       st.integers(min_value=0, max_value=10_000))
def test_row_blocks_match_one_whole_batch_pass(n, dim, seed):
    model = small_model(dim=dim, n_blocks=2, hidden=5, seed=seed)
    perturb(model, seed=seed)
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, dim))
    blocked = forward_only_outputs(model, x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows, "_BLOCK_ROWS", n + 1)
        whole = forward_only_outputs(model, x)
    for got, want in zip(blocked, whole):
        assert got.shape[0] == n and np.array_equal(got, want)
    # each call has its own workspace: a call on other rows leaves nothing
    # behind that the next call reads
    y = 3.0 * rng.standard_normal((n, dim))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows, "_BLOCK_ROWS", n + 1)
        whole_y = forward_only_outputs(model, y)
    for got, want in zip(forward_only_outputs(model, y), whole_y):
        assert np.array_equal(got, want)
    for got, want in zip(forward_only_outputs(model, x), blocked):
        assert np.array_equal(got, want)
    # a row's result does not depend on the other rows; a one-row call
    # takes BLAS's matrix-vector kernel, so it may differ in the last ulp
    for i in rng.choice(n, size=min(n, 4), replace=False):
        for got, want in zip(blocked, forward_only_outputs(model, x[i])):
            np.testing.assert_allclose(want, got[i:i + 1], rtol=1e-12, atol=1e-12)


def test_short_tail_joins_the_last_block():
    # a matmul of a few rows may take another BLAS kernel, so the last
    # block takes the remainder rather than running a short block
    model = flows.init_model(128, n_blocks=1, hidden_width=512, seed=4)
    perturb(model, scale=0.05, seed=5)
    x = np.random.default_rng(6).standard_normal((B + 1, 128))
    blocked = flows.log_prob(model, x)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows, "_BLOCK_ROWS", B + 2)
        assert np.array_equal(blocked, flows.log_prob(model, x))


def test_empty_batch_gives_empty_outputs():
    model = small_model(dim=3)
    z, logdet = flows.forward_latent(model, np.zeros((0, 3)))
    assert flows.log_prob(model, np.zeros((0, 3))).shape == (0,)
    assert z.shape == (0, 3) and logdet.shape == (0,)
    assert flows.inverse(model, np.zeros((0, 3))).shape == (0, 3)


@pytest.mark.parametrize("fn", [flows.log_prob, flows.forward_latent, flows.inverse])
def test_non_finite_row_in_a_later_block_raises(fn):
    model = small_model(dim=2)
    perturb(model)
    x = np.zeros((2 * B + 3, 2))
    x[B + 5, 1] = np.nan
    with pytest.raises(NumericError, match="input batch"):
        fn(model, x)


def log_prob_peak_in_block_activations():
    """tracemalloc peak of log_prob on 8192x8 rows under a width-256 model,
    in hidden activations of one row block."""
    model = flows.init_model(8, n_blocks=2, hidden_width=256, seed=0)
    x = np.random.default_rng(0).standard_normal((8 * B, 8))
    flows.log_prob(model, x[:4])
    tracemalloc.start()
    try:
        flows.log_prob(model, x)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak / (B * 256 * 8)


def test_log_prob_peak_memory_is_bounded_by_one_block(monkeypatch):
    # a whole-batch pass peaks at about 66 hidden activations of one block,
    # a blocked pass on one worker at about 2.2
    monkeypatch.setattr(flows, "blas_threads", lambda: 1)
    assert log_prob_peak_in_block_activations() < 4


def test_log_prob_peak_memory_is_one_block_per_worker(monkeypatch):
    monkeypatch.setattr(flows, "blas_threads", lambda: 2)
    assert log_prob_peak_in_block_activations() < 2 * 2.5


# --- parallel row blocks ----------------------------------------------------

@pytest.mark.parametrize("n_workers", [1, 2, 3, 4])
@settings(max_examples=6, deadline=None)
@given(n=st.sampled_from([B + 1, 2 * B, 3 * B + 5, 5 * B]),
       dim=st.integers(min_value=1, max_value=4), seed=st.integers(min_value=0, max_value=10_000))
def test_parallel_row_blocks_match_one_worker(n_workers, n, dim, seed):
    model = small_model(dim=dim, n_blocks=2, hidden=5, seed=seed)
    perturb(model, seed=seed)
    x = np.random.default_rng(seed).standard_normal((n, dim))
    threads = diffcore.blas_threads()
    interval = sys.getswitchinterval()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(flows, "blas_threads", lambda: 1)
        serial = forward_only_outputs(model, x)
        mp.setattr(flows, "blas_threads", lambda: n_workers)
        if n_workers == 4:
            # more workers than cores, with a thread switch at every chance
            sys.setswitchinterval(1e-6)
        try:
            parallel = forward_only_outputs(model, x)
            assert diffcore.blas_threads() == threads
            last = len(model.blocks[1].subnet.layer_dims()) - 1
            model.store.params[f"blk1.b{last}"][...] = np.nan
            with pytest.raises(NumericError, match="block 1"):
                flows.log_prob(model, x)
            assert diffcore.blas_threads() == threads
        finally:
            sys.setswitchinterval(interval)
    for got, want in zip(parallel, serial):
        assert np.array_equal(got, want)


@pytest.mark.parametrize("n_workers", [2, 3, 4])
def test_the_first_failing_row_block_is_the_one_raised(monkeypatch, n_workers):
    # blocks 1, 2 and 4 of 5 raise, and block 1 raises last in time
    monkeypatch.setattr(flows, "blas_threads", lambda: n_workers)
    model = small_model(dim=2)
    x = np.zeros((5 * B, 2))
    x[:, 0] = np.arange(5 * B) // B
    ran, blas_in_step = [], []

    def step(model, rows, out, ws):
        block = int(rows[0, 0])
        ran.append(block)
        blas_in_step.append(diffcore.blas_threads())
        if block == 1:
            time.sleep(0.05)
        if block in (1, 2, 4):
            raise ValueError(f"block {block}")

    threads = diffcore.blas_threads()
    with pytest.raises(ValueError, match="^block 1$"):
        flows._by_row_blocks(model, x, step, np.empty(5 * B))
    assert diffcore.blas_threads() == threads
    assert set(blas_in_step) == {1}
    # every worker ran its blocks up to its first failure before the raise
    expected = []
    for k in range(n_workers):
        for block in range(k, 5, n_workers):
            expected.append(block)
            if block in (1, 2, 4):
                break
    assert sorted(ran) == sorted(expected)


# --- inversion / sampling ---------------------------------------------------

def test_inverse_of_identity_model_is_inverse_permutation():
    model = small_model(dim=4, n_blocks=3, seed=6)
    z = np.random.default_rng(2).standard_normal((5, 4))
    x = flows.inverse(model, z)
    z2, _ = flows.forward_latent(model, x)
    assert np.allclose(z2, z, atol=1e-12, rtol=0)


def test_roundtrip_random_model():
    model = small_model(dim=3, n_blocks=4, hidden=8, seed=8)
    perturb(model, scale=0.5, seed=9)
    x = np.random.default_rng(3).standard_normal((50, 3))
    z, _ = flows.forward_latent(model, x)
    x2 = flows.inverse(model, z)
    assert np.max(np.abs(x2 - x)) < 1e-8
    z3, _ = flows.forward_latent(model, flows.inverse(model, z))
    assert np.max(np.abs(z3 - z)) < 1e-8


def test_hand_inverted_affine_block():
    # one block, constant s and t: inverse must match the closed form
    model = small_model(dim=2, n_blocks=1, seed=3)
    raw = raw_for_logscale(0.4, model.config.clamp_alpha)
    model.store.params["blk0.b2"][...] = np.array([raw, 0.7])
    z = np.array([[0.3, -1.1]])
    x = flows.inverse(model, z)
    cond, trans = z[0, 0], z[0, 1]
    back = (trans - 0.7) * math.exp(-0.4)
    expected = np.empty(2)
    expected[model.blocks[0].perm] = [cond, back]
    assert np.allclose(x[0], expected, atol=1e-12, rtol=0)


def test_logdet_antisymmetry():
    model = small_model(dim=3, n_blocks=3, hidden=6, seed=10)
    perturb(model, scale=0.4, seed=11)
    x = np.random.default_rng(4).standard_normal((20, 3))
    z, ld_forward = flows.forward_latent(model, x)
    _, ld_inverse = flows.inverse(model, z, return_logdet=True)
    assert np.max(np.abs(ld_forward + ld_inverse)) < 1e-9


def test_sampling_identity_model_standard_normal():
    model = small_model(dim=2, n_blocks=2, seed=12)
    n = 20000
    samples = flows.sample(model, n, seed=0)
    assert np.max(np.abs(samples.mean(axis=0))) < 4.0 / math.sqrt(n)
    assert np.max(np.abs(samples.std(axis=0) - 1.0)) < 0.05


def test_sampling_deterministic():
    model = small_model(dim=2, seed=13)
    assert np.array_equal(flows.sample(model, 10, seed=5), flows.sample(model, 10, seed=5))


def test_soft_clamp_bounds_logscale():
    # even absurd raw outputs keep the effective log-scale strictly inside
    # (-alpha, alpha); tanh saturates to 1.0 in float64 beyond |raw/alpha|
    # of ~19, so probe the widest range where strictness is representable
    alpha = 3.0
    raw = np.linspace(-50.0, 50.0, 1001)
    s_eff = alpha * np.tanh(raw / alpha)
    assert np.all(s_eff < alpha) and np.all(s_eff > -alpha)


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=5), st.integers(min_value=0, max_value=10_000))
def test_invertibility_property(dim, seed):
    model = flows.init_model(dim, n_blocks=2, hidden_width=4, seed=seed)
    perturb(model, scale=0.3, seed=seed + 1)
    x = np.random.default_rng(seed).standard_normal((8, dim))
    z, _ = flows.forward_latent(model, x)
    assert np.max(np.abs(flows.inverse(model, z) - x)) < 1e-8


# --- gradients --------------------------------------------------------------

def test_nll_gradient_matches_finite_differences():
    model = small_model(dim=2, n_blocks=2, hidden=4, seed=14, activation="softplus")
    perturb(model, scale=0.3, seed=15)
    batch = np.random.default_rng(5).standard_normal((4, 2))
    loss, grads = nll_objective(model, batch)
    fd = finite_difference_grad(lambda: nll_objective(model, batch)[0],
                                model.store, h=1e-5)
    for name in grads:
        denom = np.maximum(np.abs(fd[name]), 1e-8)
        assert np.max(np.abs(grads[name] - fd[name]) / denom) < 1e-5, name


def test_nll_gradient_dim1_matches_finite_differences():
    model = flows.init_model(1, n_blocks=4, seed=16)
    perturb(model, scale=0.5, seed=17)
    batch = np.random.default_rng(6).standard_normal((4, 1))
    loss, grads = nll_objective(model, batch)
    fd = finite_difference_grad(lambda: nll_objective(model, batch)[0],
                                model.store, h=1e-5)
    for name in grads:
        denom = np.maximum(np.abs(fd[name]), 1e-8)
        # dim-1 blocks carry an empty (0, 2) weight next to their bias
        assert np.max(np.abs(grads[name] - fd[name]) / denom, initial=0.0) < 1e-5, name


def test_repeated_sample_gradient_equals_single():
    model = small_model(dim=2, n_blocks=2, hidden=4, seed=18)
    perturb(model, scale=0.2, seed=19)
    x = np.array([[0.4, -0.6]])
    batch = np.repeat(x, 5, axis=0)
    loss1, grads1 = nll_objective(model, x)
    loss5, grads5 = nll_objective(model, batch)
    assert loss5 == pytest.approx(loss1, abs=1e-12)
    for name in grads1:
        assert np.allclose(grads1[name], grads5[name], atol=1e-12, rtol=0)


def test_scale_gradient_near_zero_for_matched_data():
    # identity model on a large standardized batch: the constant-scale
    # gradients of a 1-D flow sit at the NLL optimum
    model = flows.init_model(1, n_blocks=2, seed=20)
    rng = np.random.default_rng(7)
    x = rng.standard_normal((40000, 1))
    x = (x - x.mean()) / x.std()
    _, grads = nll_objective(model, x)
    for name, g in grads.items():
        assert np.max(np.abs(g), initial=0.0) < 1e-10, name


# --- serialization ----------------------------------------------------------

def test_save_load_roundtrip(tmp_path):
    model = small_model(dim=3, n_blocks=2, hidden=8, seed=21)
    perturb(model, scale=0.4, seed=22)
    path = tmp_path / "model.cflw"
    flows.save_model(model, path)
    loaded = flows.load_model(path)
    x = np.random.default_rng(8).standard_normal((10, 3))
    assert np.array_equal(flows.log_prob(model, x), flows.log_prob(loaded, x))
    for name in model.store.params:
        assert np.array_equal(model.store.params[name], loaded.store.params[name])


def test_load_reads_the_payload_without_a_random_init(tmp_path, monkeypatch):
    model = small_model(dim=5, n_blocks=3, hidden=6, seed=27)
    perturb(model, seed=28)
    path = tmp_path / "model.cflw"
    flows.save_model(model, path)

    def no_init(*args, **kwargs):
        raise AssertionError("load_model drew a random model")

    monkeypatch.setattr(flows, "build_model", no_init)
    monkeypatch.setattr(flows, "init_mlp_params", no_init)
    loaded = flows.load_model(path)
    for block, want in zip(loaded.blocks, model.blocks):
        assert np.array_equal(block.perm, want.perm)
    for name, p in loaded.store.params.items():
        assert np.array_equal(p, model.store.params[name])
        assert p.dtype == np.float64 and p.flags.writeable and p.flags.aligned


def test_save_load_dim1(tmp_path):
    model = flows.init_model(1, n_blocks=3, seed=23)
    perturb(model, seed=24)
    path = tmp_path / "m1.cflw"
    flows.save_model(model, path)
    loaded = flows.load_model(path)
    x = np.random.default_rng(9).standard_normal((5, 1))
    assert np.array_equal(flows.log_prob(model, x), flows.log_prob(loaded, x))


def test_save_rejects_nondefault_subnet(tmp_path):
    model = small_model(activation="softplus")
    with pytest.raises(ValueError):
        flows.save_model(model, tmp_path / "bad.cflw")


def test_load_rejects_bad_magic(tmp_path):
    path = tmp_path / "junk.cflw"
    path.write_bytes(b"NOPE" + bytes(40))
    with pytest.raises(FormatError):
        flows.load_model(path)


def test_load_rejects_truncation(tmp_path):
    model = small_model(dim=2, n_blocks=2, hidden=4, seed=25)
    path = tmp_path / "model.cflw"
    flows.save_model(model, path)
    data = path.read_bytes()
    path.write_bytes(data[:len(data) - 8])
    with pytest.raises(FormatError):
        flows.load_model(path)


def test_file_layout_header(tmp_path):
    model = small_model(dim=2, n_blocks=2, hidden=4, seed=26, alpha=2.5)
    path = tmp_path / "model.cflw"
    flows.save_model(model, path)
    blob = path.read_bytes()
    assert blob[:4] == b"CFLW"
    import struct
    magic, version, dim, n_blocks, hidden, alpha = struct.unpack("<4sHIHId", blob[:24])
    assert (version, dim, n_blocks, hidden, alpha) == (1, 2, 2, 4, 2.5)


def test_sampling_after_training_matches_data_mean():
    from cnflow.datasets import gen_gaussian
    from cnflow.training import TrainConfig, train

    inl = gen_gaussian([5.0], 1.0, 4000, seed=30)
    model = flows.init_model(1, n_blocks=8, hidden_width=8, seed=31)
    cfg = TrainConfig(batch_size=512, lr=1e-2, max_epochs=120, patience=1000,
                      val_fraction=0.0, objective="nll", seed=2)
    model, _ = train(model, inl, None, cfg)
    samples = flows.sample(model, 10_000, seed=3)
    assert abs(samples.mean() - 5.0) < 0.2
