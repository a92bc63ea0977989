"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The expensive experiment runs are shared through module-scoped fixtures;
run with `pytest tests/test_acceptance.py -s` to see the per-criterion
lines as they complete.
"""

import itertools
import time
from functools import partial

import numpy as np
import pytest

from cnflow import cli, datasets, flows, metrics, oracle, training
from cnflow.datasets import gen_gaussian, hypersphere_normalize, save_features
from cnflow.training import TrainConfig, train
from helpers import finite_difference_grad, roc_area


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


# ---------------------------------------------------------------------------
# shared runs

@pytest.fixture(scope="module")
def toy1d_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy1d")
    cfg = cli.load_config("toy1d", None, {"out": str(out), "seed": 0})
    start = time.perf_counter()
    result = cli.run_toy1d(cfg)
    result["runtime_s"] = time.perf_counter() - start
    return result


@pytest.fixture(scope="module")
def mu_sweep_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("musweep")
    cfg = cli.load_config("mu-sweep", None, {"out": str(out), "seed": 0})
    cfg["methods"] = ["cf", "flow_ratio"]
    rows = cli.run_mu_sweep(cfg)
    return {(r["method"], r["mu"]): r for r in rows}


@pytest.fixture(scope="module")
def informed_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("informed")
    cfg = cli.load_config("informed", None, {"out": str(out), "seed": 0})
    rows = cli.run_mu_sweep(cfg)
    return {(r["method"], r["mu"]): r for r in rows}


@pytest.fixture(scope="module")
def toy2d_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("toy2d")
    cfg = cli.load_config("toy2d", None, {"out": str(out), "seed": 0})
    return cli.run_toy2d(cfg)


# ---------------------------------------------------------------------------
# criteria

def test_criterion_1_toy1d_density_match(toy1d_run):
    tv = toy1d_run["tv"]
    runtime = toy1d_run["runtime_s"]
    ok = tv < 0.1 and runtime < 180.0
    _report("criterion 1 (1-D toy TV < 0.1, runtime < 3 min)", ok,
            f"tv={tv:.4f}, runtime={runtime:.1f}s")
    assert tv < 0.1
    assert runtime < 180.0


def test_criterion_2_clamp_saturation_matches_nll():
    # epsilon = 0 sits above every attainable 1-D log density, so the
    # contrastive run must follow the NLL-only trajectory bit for bit
    p = oracle.GaussianSpec([0.0], [1.0])
    q = oracle.GaussianSpec([1.0], [2.0])
    grid = oracle.grid_1d(-6.0, 6.0, 4001)
    pbar = oracle.positive_difference(p, q, grid)
    p_grid = oracle.GridDensity(grid, np.exp(oracle.gaussian_logpdf(p, oracle.grid_points(grid))))

    inl = gen_gaussian([0.0], 1.0, 8000, seed=101)
    con = gen_gaussian([1.0], 2.0, 8000, seed=202)
    kwargs = dict(batch_size=512, lr=1e-3, max_epochs=25, patience=8,
                  val_fraction=0.1, seed=3)
    cf_model = flows.init_model(1, n_blocks=8, hidden_width=64, seed=9)
    nll_model = flows.init_model(1, n_blocks=8, hidden_width=64, seed=9)
    train(cf_model, inl, con, TrainConfig(objective="contrastive", clamp_tau=0.0, **kwargs))
    train(nll_model, inl, con, TrainConfig(objective="nll", clamp_tau=0.0, **kwargs))

    identical = all(np.array_equal(cf_model.store.params[k], nll_model.store.params[k])
                    for k in cf_model.store.params)
    learned = oracle.model_density_on_grid(partial(flows.log_prob, cf_model), grid)
    tv_p = oracle.tv_distance(learned, p_grid)
    tv_pbar = oracle.tv_distance(learned, pbar)
    ok = identical and tv_p < tv_pbar
    _report("criterion 2 (clamp saturation = NLL training)", ok,
            f"bit_identical={identical}, tv_p={tv_p:.4f} < tv_pbar={tv_pbar:.4f}")
    assert identical
    assert tv_p < tv_pbar


def test_criterion_3_degenerate_contrastive(mu_sweep_run):
    cf = mu_sweep_run[("cf", 0.0)]["auroc_hard"]
    ratio = mu_sweep_run[("flow_ratio", 0.0)]["auroc_hard"]
    ok = 45.0 <= cf <= 55.0 and 45.0 <= ratio <= 55.0
    _report("criterion 3 (mu=0 AUROC ~ 50)", ok,
            f"cf={cf:.1f}, ratio={ratio:.1f}, bound=[45, 55]")
    assert 45.0 <= cf <= 55.0
    assert 45.0 <= ratio <= 55.0


def test_criterion_4_mixture_stability(mu_sweep_run):
    mus = (0.25, 0.5, 0.75, 1.0)
    cf_vals = [mu_sweep_run[("cf", mu)]["auroc_hard"] for mu in mus]
    spread = max(cf_vals) - min(cf_vals)
    ratio_at_quarter = mu_sweep_run[("flow_ratio", 0.25)]["auroc_hard"]
    ok = spread < 3.0
    _report("criterion 4 (CF stable over mu > 0)", ok,
            f"cf={[round(v, 1) for v in cf_vals]}, spread={spread:.2f} < 3, "
            f"ratio(mu=0.25)={ratio_at_quarter:.1f} [reported]")
    assert spread < 3.0


def test_criterion_5_mixture_invariance_analytic():
    p = oracle.GaussianSpec([0.0], [1.0])
    q = oracle.GaussianSpec([1.0], [2.0])
    devs = {mu: oracle.mixture_invariance_check(p, q, mu)
            for mu in (0.1, 0.25, 0.5, 0.9, 1.0)}
    worst = max(devs.values())
    ok = worst < 1e-10
    _report("criterion 5 (analytic mixture invariance)", ok,
            f"max deviation={worst:.2e} < 1e-10")
    assert worst < 1e-10


def test_criterion_6_toy2d_corner(toy2d_run):
    corner = toy2d_run["cf_corner"]
    center = toy2d_run["cf_center"]
    p01 = toy2d_run["cf_inlier_p01"]
    ok = corner < center and corner < p01
    _report("criterion 6 (2-D toy corner density)", ok,
            f"cf_corner={corner:.3e} < cf_center={center:.3e}, < inlier p01={p01:.3e}; "
            f"ratio_corner={toy2d_run['ratio_corner']:.3e} [logged]")
    assert corner < center
    assert corner < p01


def test_criterion_7_property_suites():
    # gradient exactness (softplus)
    model = flows.init_model(2, n_blocks=2, hidden_width=4, seed=14, activation="softplus")
    rng = np.random.default_rng(15)
    for p in model.store.params.values():
        p += 0.3 * rng.standard_normal(p.shape)
    batch = rng.standard_normal((4, 2))
    _, grads = training.nll_objective(model, batch)
    fd = finite_difference_grad(lambda: training.nll_objective(model, batch)[0],
                                model.store, h=1e-5)
    grad_err = max(np.max(np.abs(grads[k] - fd[k]) / np.maximum(np.abs(fd[k]), 1e-8))
                   for k in grads)

    # invertibility
    inv_model = flows.init_model(3, n_blocks=4, hidden_width=8, seed=8)
    for p in inv_model.store.params.values():
        p += 0.5 * rng.standard_normal(p.shape)
    x = rng.standard_normal((100, 3))
    z, _ = flows.forward_latent(inv_model, x)
    inv_err = float(np.max(np.abs(flows.inverse(inv_model, z) - x)))

    # quadrature normalization 1-D / 2-D
    m1 = flows.init_model(1, n_blocks=4, seed=2)
    rng1 = np.random.default_rng(3)
    for p in m1.store.params.values():
        p += 0.4 * rng1.standard_normal(p.shape)
    g1 = np.linspace(-8.0, 8.0, 4001)
    int1 = float(np.trapezoid(np.exp(flows.log_prob(m1, g1[:, None])), g1))
    m2 = flows.init_model(2, n_blocks=3, hidden_width=8, seed=4)
    rng2 = np.random.default_rng(5)
    for p in m2.store.params.values():
        p += 0.2 * rng2.standard_normal(p.shape)
    axis = np.linspace(-9.0, 9.0, 241)
    xx, yy = np.meshgrid(axis, axis, indexing="ij")
    vals = np.exp(flows.log_prob(m2, np.column_stack([xx.ravel(), yy.ravel()])))
    int2 = float(np.trapezoid(np.trapezoid(vals.reshape(241, 241), axis, axis=1), axis))

    # AUROC pairwise equality at n = 10^4 and ROC area identity
    s_in = np.round(rng.standard_normal(10_000), 2)
    s_out = np.round(rng.standard_normal(10_000) + 0.3, 2)
    a = metrics.auroc(s_in, s_out)
    wins = (s_out[:, None] > s_in[None, :]).sum()
    ties = (s_out[:, None] == s_in[None, :]).sum()
    pairwise = (wins + 0.5 * ties) / 1e8
    area = roc_area(metrics.roc_curve(s_in, s_out))

    # Wilcoxon vs exact enumeration for n <= 10
    wil_err = 0.0
    for seed in range(5):
        r = np.random.default_rng(seed)
        n = int(r.integers(3, 11))
        diffs = r.standard_normal(n) + 0.3
        ranks = _naive_ranks(np.abs(diffs[diffs != 0]))
        d = diffs[diffs != 0]
        w_obs = ranks[d > 0].sum()
        count = sum(1 for signs in itertools.product([0, 1], repeat=len(d))
                    if sum(rr for s, rr in zip(signs, ranks) if s) >= w_obs)
        exact = count / 2 ** len(d)
        wil_err = max(wil_err, abs(metrics.wilcoxon_signed_rank(diffs, np.zeros(n)) - exact))

    checks = {
        "grad rel err < 1e-5": grad_err < 1e-5,
        "invertibility < 1e-8": inv_err < 1e-8,
        "1-D quadrature within 1%": abs(int1 - 1.0) < 0.01,
        "2-D quadrature within 2%": abs(int2 - 1.0) < 0.02,
        "auroc = pairwise": abs(a - pairwise) < 1e-12,
        "roc area = auroc": abs(area - a) < 1e-12,
        "wilcoxon exact n<=10": wil_err == 0.0,
    }
    ok = all(checks.values())
    _report("criterion 7 (property suites)", ok,
            "; ".join(f"{name}={'ok' if good else 'BAD'}" for name, good in checks.items()))
    assert ok, checks


def _naive_ranks(values):
    values = np.asarray(values, dtype=float)
    sorted_vals = np.sort(values)
    ranks = np.empty(len(values))
    for i, v in enumerate(values):
        ranks[i] = (np.flatnonzero(sorted_vals == v) + 1).mean()
    return ranks


def test_criterion_8_feature_pipeline(tmp_path):
    # desk-scale stand-in for the image benchmarks: 128-d clusters on the
    # hypersphere, moved through the binary feature files and the full
    # train/score/eval pipeline
    d = 128
    e = np.eye(d)
    raw = {
        "inlier_train": gen_gaussian(e[0], 0.2, 1500, seed=50),
        "inlier_test": gen_gaussian(e[0], 0.2, 400, seed=51),
        "outlier_test": gen_gaussian(e[1], 0.2, 400, seed=52),
        "broad": gen_gaussian(np.zeros(d), 1.0, 1500, seed=53),
    }
    sets = {name: hypersphere_normalize(fs, noise_sigma=0.01, seed=60 + i)
            for i, (name, fs) in enumerate(raw.items())}
    paths = {}
    for name, fs in sets.items():
        paths[name] = tmp_path / f"{name}.cftr"
        save_features(fs, paths[name])

    def pipeline(method_objective, seed):
        import json
        cfg_path = tmp_path / f"train_{method_objective}.json"
        cfg_path.write_text(json.dumps({
            "data_path": str(paths["inlier_train"]),
            "contrastive_path": str(paths["broad"]),
            "objective": method_objective,
            "model": {"n_blocks": 4, "hidden_width": 128},
            "train": {"batch_size": 256, "max_epochs": 12, "patience": 8,
                      "val_fraction": 0.1, "clamp_tau": 0.0},
        }))
        out = tmp_path / f"run_{method_objective}"
        assert cli.main(["train", "--out", str(out), "--seed", str(seed),
                         "--config", str(cfg_path)]) == 0
        scores = {}
        for side in ("inlier_test", "outlier_test"):
            score_cfg = tmp_path / f"score_{method_objective}_{side}.json"
            score_cfg.write_text(json.dumps({
                "model_path": str(out / "model.cflw"),
                "data_path": str(paths[side]),
            }))
            assert cli.main(["score", "--out", str(out / side),
                             "--config", str(score_cfg)]) == 0
            scores[side] = out / side / "scores.csv"
        import numpy as np
        vals = {side: np.array([float(v) for v in
                                p.read_text().strip().splitlines()[1:]])
                for side, p in scores.items()}
        return metrics.auroc(vals["inlier_test"], vals["outlier_test"])

    auroc_cf = pipeline("contrastive", seed=7)
    auroc_nll = pipeline("nll", seed=7)
    ok = auroc_cf >= auroc_nll - 0.01
    _report("criterion 8 (128-d feature-file pipeline)", ok,
            f"cf={100 * auroc_cf:.1f}, nll_flow={100 * auroc_nll:.1f}, "
            f"bound: cf >= nll - 1 point")
    assert ok


def test_criterion_9_informed_non_degradation(informed_run):
    at_half = informed_run[("cf", 0.5)]["auroc_hard"]
    at_one = informed_run[("cf", 1.0)]["auroc_hard"]
    ok = at_half >= at_one
    _report("criterion 9 (informed contrastive helps)", ok,
            f"cf(mu=0.5)={at_half:.1f} >= cf(mu=1.0)={at_one:.1f}")
    assert at_half >= at_one
