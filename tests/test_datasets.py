import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnflow import datasets
from cnflow.datasets import (LABEL_CONTRASTIVE, LABEL_INLIER, FeatureSet,
                             MixSpec, cluster_benchmark, gen_gaussian,
                             hypersphere_normalize, load_features,
                             mix_datasets, permute_marginals, save_features,
                             split)
from cnflow.errors import (DegenerateDataError, DimensionError, FormatError)
from cnflow.oracle import GaussianSpec


def test_gen_gaussian_statistics():
    fs = gen_gaussian([0.0], 1.0, 100_000, seed=0)
    assert abs(fs.data.mean()) < 0.02
    assert abs(fs.data.std() - 1.0) < 0.02


def test_gen_gaussian_seeded():
    a = gen_gaussian([1.0, 2.0], [0.5, 2.0], 100, seed=3)
    b = gen_gaussian([1.0, 2.0], [0.5, 2.0], 100, seed=3)
    assert np.array_equal(a.data, b.data)
    # the exact operations, so callers that seed their inputs keep their bits
    z = np.random.default_rng(3).standard_normal((100, 2))
    assert np.array_equal(a.data, z * np.array([0.5, 2.0]) + np.array([1.0, 2.0]))
    cov = np.array([[1.0, 0.3], [0.3, 2.0]])
    c = gen_gaussian([1.0, 2.0], cov, 100, seed=3)
    assert np.array_equal(c.data, z @ np.linalg.cholesky(cov).T + np.array([1.0, 2.0]))


def test_gen_gaussian_covariance():
    cov = np.diag([1.0, 4.0])
    fs = gen_gaussian([0.0, 0.0], cov, 50_000, seed=1)
    sample_cov = np.cov(fs.data.T)
    assert np.all(np.abs(sample_cov - cov) < 0.05 * 4.0)


def test_gen_gaussian_non_pd_covariance():
    # a bad scale fails as it does for GaussianSpec: not positive definite,
    # a zero sd, a wrong-length sd vector, a non-square covariance, 3-D
    for scale, error in ((np.array([[1.0, 2.0], [2.0, 1.0]]), ValueError),
                         ([1.0, 0.0], ValueError), ([1.0, 1.0, 1.0], DimensionError),
                         (np.ones((2, 3)), DimensionError), (np.ones((2, 2, 2)), DimensionError)):
        for make in (GaussianSpec, lambda m, s: gen_gaussian(m, s, 10, seed=0)):
            with pytest.raises(error) as info:
                make([0.0, 0.0], scale)
            assert info.type is error


def test_mix_mu_one_all_broad():
    broad = gen_gaussian([0.0], 1.0, 200, seed=0)
    other = gen_gaussian([5.0], 1.0, 200, seed=1)
    mixed = mix_datasets(MixSpec(broad, other, 1.0, 150, seed=2))
    assert mixed.n == 150
    assert np.all(mixed.labels == LABEL_CONTRASTIVE)


def test_mix_mu_zero_all_other():
    broad = gen_gaussian([0.0], 1.0, 200, seed=0)
    other = gen_gaussian([5.0], 1.0, 200, seed=1)
    mixed = mix_datasets(MixSpec(broad, other, 0.0, 150, seed=2))
    assert np.all(mixed.labels == LABEL_INLIER)


def test_mix_half_counts():
    broad = gen_gaussian([0.0], 1.0, 200, seed=0)
    other = gen_gaussian([5.0], 1.0, 200, seed=1)
    mixed = mix_datasets(MixSpec(broad, other, 0.5, 100, seed=2))
    assert int((mixed.labels == LABEL_CONTRASTIVE).sum()) == 50
    assert int((mixed.labels != LABEL_CONTRASTIVE).sum()) == 50


def test_mix_counts_on_mu_grid():
    broad = gen_gaussian([0.0], 1.0, 400, seed=0)
    other = gen_gaussian([5.0], 1.0, 400, seed=1)
    total = 200
    for mu in np.arange(0.0, 1.0001, 0.05):
        mixed = mix_datasets(MixSpec(broad, other, float(mu), total, seed=3))
        assert int((mixed.labels == LABEL_CONTRASTIVE).sum()) == round(mu * total)


def test_mix_dimension_mismatch():
    broad = gen_gaussian([0.0], 1.0, 10, seed=0)
    other = gen_gaussian([0.0, 0.0], 1.0, 10, seed=1)
    with pytest.raises(DimensionError):
        mix_datasets(MixSpec(broad, other, 0.5, 10, seed=2))


def test_hypersphere_unit_rows():
    fs = FeatureSet(np.array([[3.0, 4.0]]))
    out = hypersphere_normalize(fs, noise_sigma=0.0)
    assert np.allclose(out.data, [[0.6, 0.8]], atol=1e-15, rtol=0)


def test_hypersphere_idempotent_without_noise():
    fs = gen_gaussian([0.0] * 4, 1.0, 50, seed=4)
    once = hypersphere_normalize(fs, noise_sigma=0.0)
    twice = hypersphere_normalize(once, noise_sigma=0.0)
    assert np.allclose(once.data, twice.data, atol=1e-15, rtol=0)


def test_hypersphere_zero_row_listed():
    fs = FeatureSet(np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(DegenerateDataError, match=r"\[1\]"):
        hypersphere_normalize(fs)


def test_hypersphere_noise_norm_concentration():
    # sigma 0.01 in 128-d: perturbed norms stay within 5% for 99% of rows
    fs = gen_gaussian([0.0] * 128, 1.0, 2000, seed=5)
    out = hypersphere_normalize(fs, noise_sigma=0.01, seed=6)
    norms = np.linalg.norm(out.data, axis=1)
    frac = np.mean((norms > 0.95) & (norms < 1.05))
    assert frac > 0.99


def test_permute_marginals_preserves_columns():
    fs = gen_gaussian([0.0, 1.0, 2.0], [1.0, 2.0, 0.5], 500, seed=7)
    out = permute_marginals(fs, seed=8)
    for j in range(3):
        assert np.array_equal(np.sort(out.data[:, j]), np.sort(fs.data[:, j]))


def test_permute_marginals_constant_column_unchanged():
    fs = FeatureSet(np.column_stack([np.full(20, 3.0), np.arange(20.0)]))
    out = permute_marginals(fs, seed=9)
    assert np.array_equal(out.data[:, 0], fs.data[:, 0])


def test_permute_marginals_single_row_unchanged():
    fs = FeatureSet(np.array([[1.0, 2.0, 3.0]]))
    out = permute_marginals(fs, seed=10)
    assert np.array_equal(out.data, fs.data)


def test_permute_marginals_2x2_enumeration():
    fs = FeatureSet(np.array([[1.0, 10.0], [2.0, 20.0]]))
    allowed = set()
    for c0 in ([1.0, 2.0], [2.0, 1.0]):
        for c1 in ([10.0, 20.0], [20.0, 10.0]):
            allowed.add(tuple(np.column_stack([c0, c1]).ravel()))
    out = permute_marginals(fs, seed=11)
    assert tuple(out.data.ravel()) in allowed
    assert np.allclose(out.data.sum(axis=0), fs.data.sum(axis=0), atol=0, rtol=0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=1, max_value=6),
       st.integers(min_value=0, max_value=10_000))
def test_permute_marginals_multiset_property(n, d, seed):
    fs = gen_gaussian([0.0] * d, 1.0, n, seed=seed)
    out = permute_marginals(fs, seed=seed + 1)
    again = permute_marginals(out, seed=seed + 2)
    for j in range(d):
        assert np.array_equal(np.sort(out.data[:, j]), np.sort(fs.data[:, j]))
        assert np.array_equal(np.sort(again.data[:, j]), np.sort(fs.data[:, j]))


def test_split_sizes_and_union():
    fs = gen_gaussian([0.0], 1.0, 10, seed=12)
    tr, va, te = split(fs, (0.8, 0.1, 0.1), seed=13)
    assert (tr.n, va.n, te.n) == (8, 1, 1)
    union = np.sort(np.concatenate([tr.data, va.data, te.data]).ravel())
    assert np.array_equal(union, np.sort(fs.data.ravel()))


def test_split_seed_stable():
    fs = gen_gaussian([0.0], 1.0, 100, seed=14)
    a = split(fs, (0.5, 0.5), seed=15)
    b = split(fs, (0.5, 0.5), seed=15)
    for x, y in zip(a, b):
        assert np.array_equal(x.data, y.data)


def test_split_rejects_excess_fractions():
    fs = gen_gaussian([0.0], 1.0, 10, seed=16)
    with pytest.raises(ValueError):
        split(fs, (0.8, 0.3), seed=0)


def test_binary_roundtrip_bit_identical(tmp_path):
    rng = np.random.default_rng(17)
    # float32-representable payload so the 32-bit wire format is lossless
    data = rng.standard_normal((20, 5)).astype(np.float32).astype(np.float64)
    labels = rng.integers(0, 3, 20).astype(np.int8)
    fs = FeatureSet(data, labels)
    path = tmp_path / "feats.cftr"
    save_features(fs, path, format="binary")
    loaded = load_features(path, format="binary")
    assert np.array_equal(loaded.data, fs.data)
    assert np.array_equal(loaded.labels, fs.labels)
    # second save writes the identical byte stream
    path2 = tmp_path / "feats2.cftr"
    save_features(loaded, path2, format="binary")
    assert path.read_bytes() == path2.read_bytes()


def test_binary_empty_payload(tmp_path):
    fs = FeatureSet(np.zeros((0, 7)))
    path = tmp_path / "empty.cftr"
    save_features(fs, path)
    loaded = load_features(path)
    assert loaded.n == 0 and loaded.dim == 7


def test_binary_truncation_detected(tmp_path):
    fs = FeatureSet(np.ones((4, 3)))
    path = tmp_path / "t.cftr"
    save_features(fs, path)
    path.write_bytes(path.read_bytes()[:-5])
    with pytest.raises(FormatError):
        load_features(path)


def _float32_payload_set(rng, n, dim, labelled):
    """A FeatureSet of finite float32 values of every kind (random bit
    patterns: subnormals, -0.0, huge and tiny), which the binary format
    stores exactly, and the bytes of its payload."""
    bits = rng.integers(0, 2 ** 32, n * dim, dtype=np.uint32)
    bits[(bits >> 23 & 0xFF) == 0xFF] &= 0xBFFFFFFF  # no inf or nan
    values = bits.view("<f4").reshape(n, dim)
    labels = rng.integers(0, 3, n).astype(np.int8) if labelled else None
    return FeatureSet(values.astype(np.float64), labels), values.tobytes()


@pytest.mark.parametrize("labelled", [False, True])
@pytest.mark.parametrize("n, dim", [(7, 2), (5, 3), (9, 10), (1, 23)])
def test_chunked_binary_load_is_bitwise_one_conversion(tmp_path, monkeypatch, n, dim, labelled):
    # chunks of 7 values: n * D a multiple of the chunk (14), not one (15,
    # 90) and rows wider than one chunk (10, 23)
    monkeypatch.setattr(datasets, "_LOAD_CHUNK", 7)
    fs, payload = _float32_payload_set(np.random.default_rng(n * dim), n, dim, labelled)
    path = tmp_path / "chunks.cftr"
    save_features(fs, path)
    loaded = load_features(path)
    want = np.frombuffer(payload, dtype="<f4").reshape(n, dim).astype(np.float64)
    assert loaded.data.dtype == np.float64 and loaded.data.shape == (n, dim)
    assert np.array_equal(loaded.data.view(np.uint64), want.view(np.uint64))
    if labelled:
        assert np.array_equal(loaded.labels, fs.labels)
    else:
        assert loaded.labels is None


@pytest.mark.parametrize("cut", [1, 4 * 3 + 1, 4 * 6 * 3 + 2])
def test_a_file_shorter_than_its_checked_size_raises_format_error(tmp_path, monkeypatch, cut):
    # a file that shrinks after its size is checked: cut inside its labels,
    # inside its last payload chunk or inside an earlier one
    monkeypatch.setattr(datasets, "_LOAD_CHUNK", 4)
    path = tmp_path / "short.cftr"
    save_features(FeatureSet(np.ones((6, 3)), np.zeros(6, dtype=np.int8)), path)
    size = path.stat().st_size
    path.write_bytes(path.read_bytes()[:-cut])
    with pytest.raises(FormatError, match="ended inside its (labels|payload)"), \
            monkeypatch.context() as mp:
        mp.setattr(datasets.os, "fstat", lambda fd: SimpleNamespace(st_size=size))
        load_features(path)


def test_a_binary_load_holds_little_beyond_its_rows(tmp_path):
    # tracemalloc peak of loading a 16384 x 128 labelled file, in its
    # float64 rows: the payload is read through one bounded buffer and
    # finiteness is checked chunk by chunk (reading the payload whole, then
    # converting it and checking it with a whole-size mask, peaks at 1.6x)
    n, dim = 16384, 128
    rng = np.random.default_rng(0)
    path = tmp_path / "large.cftr"
    save_features(FeatureSet(rng.standard_normal((n, dim)), rng.integers(0, 3, n)), path)
    tracemalloc.start()
    try:
        loaded = load_features(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.data.shape == (n, dim)
    assert peak <= 1.05 * loaded.data.nbytes


def test_binary_bad_magic(tmp_path):
    path = tmp_path / "bad.cftr"
    path.write_bytes(b"XXXX" + bytes(32))
    with pytest.raises(FormatError):
        load_features(path)


def test_csv_fixture_with_labels(tmp_path):
    d = 128
    header = ",".join(f"f{j}" for j in range(d)) + ",label"
    rows = [",".join(str(float(j + i)) for j in range(d)) + f",{i % 3}" for i in range(3)]
    path = tmp_path / "feats.csv"
    path.write_text(header + "\n" + "\n".join(rows) + "\n")
    fs = load_features(path)
    assert fs.n == 3 and fs.dim == 128
    assert fs.labels.tolist() == [0, 1, 2]
    assert fs.data[1, 0] == 1.0


def test_csv_roundtrip(tmp_path):
    fs = gen_gaussian([0.0, 1.0], [1.0, 3.0], 25, seed=18)
    path = tmp_path / "r.csv"
    save_features(fs, path, format="csv")
    loaded = load_features(path, format="csv")
    # %.17g prints doubles exactly
    assert np.array_equal(loaded.data, fs.data)


def test_csv_bytes_are_pinned(tmp_path):
    # 17 significant digits, no shortest-repr rounding; -0.0 keeps its sign
    data = [[0.1, 1e-05], [-0.0, 1e300], [3.0, -2.5]]
    save_features(FeatureSet(np.array(data), [0, 2, 1]), tmp_path / "l.csv")
    assert (tmp_path / "l.csv").read_bytes() == (
        b"f0,f1,label\n"
        b"0.10000000000000001,1.0000000000000001e-05,0\n"
        b"-0,1.0000000000000001e+300,2\n"
        b"3,-2.5,1\n")
    save_features(FeatureSet(np.array(data)), tmp_path / "u.csv")
    assert (tmp_path / "u.csv").read_bytes() == (
        b"f0,f1\n0.10000000000000001,1.0000000000000001e-05\n-0,1.0000000000000001e+300\n3,-2.5\n")


def test_csv_malformed_row(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("f0,f1\n1.0,2.0\n3.0\n")
    with pytest.raises(FormatError):
        load_features(path)


def test_cluster_benchmark_shapes():
    bench = cluster_benchmark(dim=8, seed=0, n_train=100, n_test=30, n_pool=200)
    assert bench.inlier_train.dim == 8
    assert bench.inlier_train.n == 100
    assert bench.broad_pool.n == 200
    assert bench.inlier_extra is bench.inlier_train
    # all cluster centers sit at the same radius so the untrained model
    # carries no norm signal
    for fs in (bench.inlier_test, bench.hard_test):
        assert abs(np.linalg.norm(fs.data.mean(axis=0)) - 2.0) < 0.2


@settings(max_examples=50, deadline=None)
@given(code=st.integers(-300, 300))
def test_label_codes_outside_0_1_2_rejected(tmp_path_factory, code):
    # both loaders accept exactly the documented label codes 0, 1, 2
    root = tmp_path_factory.mktemp("labels")
    paths = [root / "l.csv"]
    paths[0].write_text(f"f0,label\n1.0,{code}\n")
    if 0 <= code <= 255:
        paths.append(root / "l.cftr")
        save_features(FeatureSet(np.ones((1, 1)), [0]), paths[1])
        paths[1].write_bytes(paths[1].read_bytes()[:-1] + bytes([code]))
    for path in paths:
        if code in (0, 1, 2):
            assert load_features(path).labels.tolist() == [code]
        else:
            with pytest.raises(FormatError):
                load_features(path)
