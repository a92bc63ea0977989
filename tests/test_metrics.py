import itertools
import math
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cnflow import cli, datasets, flows
from cnflow.errors import DegenerateDataError, NumericError
from cnflow.metrics import (ScoreReport, auroc, histogram, outlier_score, roc_curve,
                            wilcoxon_signed_rank)
from helpers import roc_area


def pairwise_auroc(s_in, s_out):
    # brute-force oracle: fraction of (outlier, inlier) pairs won, ties half
    wins = ties = 0
    for o in s_out:
        for i in s_in:
            if o > i:
                wins += 1
            elif o == i:
                ties += 1
    return (wins + 0.5 * ties) / (len(s_in) * len(s_out))


def test_auroc_fixture():
    assert auroc([1.0, 3.0], [2.0, 4.0]) == pytest.approx(0.75, abs=0)
    assert pairwise_auroc([1.0, 3.0], [2.0, 4.0]) == 0.75


def test_auroc_separated():
    assert auroc([0.0, 0.1], [5.0, 6.0]) == 1.0


def test_auroc_all_ties():
    assert auroc([1.0, 1.0, 1.0], [1.0, 1.0]) == 0.5


def test_auroc_empty_raises():
    with pytest.raises(DegenerateDataError):
        auroc([], [1.0])


def test_auroc_matches_pairwise_oracle_random():
    rng = np.random.default_rng(0)
    for trial in range(20):
        n_in = int(rng.integers(1, 40))
        n_out = int(rng.integers(1, 40))
        # integer scores force plenty of ties
        s_in = rng.integers(0, 6, n_in).astype(float)
        s_out = rng.integers(0, 6, n_out).astype(float)
        assert auroc(s_in, s_out) == pytest.approx(pairwise_auroc(s_in, s_out), abs=1e-12)


def test_auroc_matches_pairwise_oracle_large():
    rng = np.random.default_rng(1)
    s_in = np.round(rng.standard_normal(10_000), 2)
    s_out = np.round(rng.standard_normal(10_000) + 0.3, 2)
    ours = auroc(s_in, s_out)
    # vectorized pairwise count
    wins = (s_out[:, None] > s_in[None, :]).sum()
    ties = (s_out[:, None] == s_in[None, :]).sum()
    ref = (wins + 0.5 * ties) / (s_in.size * s_out.size)
    assert ours == pytest.approx(ref, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=25),
       st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=25))
def test_auroc_pairwise_property(s_in, s_out):
    s_in = np.array(s_in, dtype=float)
    s_out = np.array(s_out, dtype=float)
    assert auroc(s_in, s_out) == pytest.approx(pairwise_auroc(s_in, s_out), abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=20),
       st.lists(st.floats(min_value=-10, max_value=10, allow_nan=False), min_size=1, max_size=20))
def test_auroc_complement_property(s_in, s_out):
    assert auroc(s_in, s_out) + auroc(s_out, s_in) == pytest.approx(1.0, abs=1e-12)


def test_auroc_monotone_invariance():
    rng = np.random.default_rng(2)
    s_in = rng.standard_normal(200)
    s_out = rng.standard_normal(150) + 0.5
    base = auroc(s_in, s_out)
    for transform in (lambda s: 3.0 * s + 7.0, np.exp, lambda s: s ** 3):
        assert auroc(transform(s_in), transform(s_out)) == pytest.approx(base, abs=1e-12)


def test_roc_curve_fixture_endpoints():
    pts = roc_curve([1.0, 3.0], [2.0, 4.0])
    assert tuple(pts[0]) == (0.0, 0.0)
    assert tuple(pts[-1]) == (1.0, 1.0)
    assert roc_area(pts) == pytest.approx(0.75, abs=1e-12)


def test_roc_curve_single_sample_three_points():
    pts = roc_curve([1.0], [2.0])
    assert pts.shape == (3, 2)
    assert tuple(pts[1]) == (0.0, 1.0)  # staircase through the perfect corner


def test_roc_monotone_and_area_equals_auroc():
    rng = np.random.default_rng(3)
    for trial in range(10):
        s_in = np.round(rng.standard_normal(500), 1)
        s_out = np.round(rng.standard_normal(400) + 0.4, 1)
        pts = roc_curve(s_in, s_out)
        assert np.all(np.diff(pts[:, 0]) >= 0)
        assert np.all(np.diff(pts[:, 1]) >= 0)
        assert roc_area(pts) == pytest.approx(auroc(s_in, s_out), abs=1e-12)


def test_roc_area_equals_auroc_large():
    rng = np.random.default_rng(4)
    s_in = rng.standard_normal(10_000)
    s_out = rng.standard_normal(10_000) + 0.2
    assert roc_area(roc_curve(s_in, s_out)) == pytest.approx(auroc(s_in, s_out), abs=1e-12)


def test_histogram_single_bin():
    edges, counts = histogram([0.5, 0.6, 0.7], 1, (0.0, 1.0))
    assert counts.tolist() == [3]
    assert edges.tolist() == [0.0, 1.0]


def test_histogram_empty_input():
    _, counts = histogram([], 4, (0.0, 1.0))
    assert counts.tolist() == [0, 0, 0, 0]


def test_histogram_hand_counted_fixture():
    scores = [0.0, 0.05, 0.1, 0.1, 0.35, 0.5, 0.55, 0.9, 1.0, 0.99]
    edges, counts = histogram(scores, 5, (0.0, 1.0))
    # bins [0,.2) [.2,.4) [.4,.6) [.6,.8) [.8,1.0]
    assert counts.tolist() == [4, 1, 2, 0, 3]
    assert counts.sum() == len(scores)


def test_histogram_clips_out_of_range():
    # -5 clips into the first bin, 99 into the last; 0.5 starts bin two
    edges, counts = histogram([-5.0, 0.5, 99.0], 2, (0.0, 1.0))
    assert counts.sum() == 3
    assert counts.tolist() == [1, 2]


def test_histogram_invalid_range():
    with pytest.raises(ValueError):
        histogram([1.0], 3, (2.0, 2.0))


@pytest.mark.filterwarnings("error")
def test_a_range_wider_than_the_largest_float_raises_without_a_warning():
    # finite ends whose difference overflows: numpy's bin edges would warn
    with pytest.raises(ValueError, match="wider than the largest float"):
        histogram([0.0], 50, (-1e308, 1e308))
    with pytest.raises(ValueError, match="wider than the largest float"):
        ScoreReport("m", [1e308, -1e308], [0.5, 1.0])
    edges, counts = histogram([0.0], 2, (-8e307, 8e307))
    assert counts.tolist() == [0, 1] and np.all(np.isfinite(edges))


@settings(max_examples=40, deadline=None)
@given(st.lists(st.floats(min_value=-100, max_value=100, allow_nan=False), max_size=60),
       st.integers(min_value=1, max_value=12))
def test_histogram_conservation_property(scores, n_bins):
    _, counts = histogram(scores, n_bins, (-10.0, 10.0))
    assert counts.sum() == len(scores)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), n=st.integers(1, 8),
       bad=st.sampled_from([math.nan, math.inf, -math.inf]))
def test_a_non_finite_score_is_refused_at_every_position(data, n, bad):
    # NaN and +-inf have no rank, threshold or bin: each metric raises
    # NumericError, whichever argument holds one and wherever it is, where
    # auroc([nan, 1.0], [2.0]) once gave 0.5 and histogram dropped the NaN
    finite = st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)
    clean = [data.draw(finite), data.draw(finite)]
    for side, pos in itertools.product(range(2), range(n)):
        pair = [list(clean[0]), list(clean[1])]
        pair[side][pos] = bad
        for metric in (auroc, roc_curve, wilcoxon_signed_rank, partial(ScoreReport, "m")):
            with pytest.raises(NumericError, match="non-finite"):
                metric(*pair)
        with pytest.raises(NumericError, match="non-finite"):
            histogram(pair[side], 4, (0.0, 2.0))


# --- Wilcoxon signed-rank ----------------------------------------------------

def exact_enumeration_p(d):
    # independent oracle: enumerate all sign patterns of the rank vector
    d = np.asarray(d, dtype=float)
    d = d[d != 0]
    n = len(d)
    order = np.argsort(np.argsort(np.abs(d)))
    # average ranks computed naively
    ranks = np.zeros(n)
    sorted_abs = np.sort(np.abs(d))
    for i, v in enumerate(np.abs(d)):
        matches = np.flatnonzero(sorted_abs == v) + 1
        ranks[i] = matches.mean()
    w_obs = ranks[d > 0].sum()
    count = 0
    for signs in itertools.product([0, 1], repeat=n):
        w = sum(r for s, r in zip(signs, ranks) if s)
        if w >= w_obs:
            count += 1
    return count / 2 ** n


def test_wilcoxon_equal_pairs_returns_one():
    a = np.arange(8.0)
    assert wilcoxon_signed_rank(a, a.copy()) == 1.0


def test_wilcoxon_uniformly_greater_ten_pairs():
    a = np.arange(10.0) + 1.0
    b = np.arange(10.0)
    p = wilcoxon_signed_rank(a, b)
    assert p == pytest.approx(1.0 / 1024.0, abs=0)
    assert p < 0.01


@pytest.mark.parametrize("seed", range(8))
def test_wilcoxon_matches_exact_enumeration(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 11))
    a = rng.standard_normal(n)
    b = a - rng.normal(0.2, 1.0, n)
    assert wilcoxon_signed_rank(a, b) == pytest.approx(exact_enumeration_p(a - b), abs=1e-12)


def test_wilcoxon_with_tied_magnitudes():
    a = np.array([3.0, 1.0, 4.0, 1.5, 2.0, 5.0])
    b = np.array([1.0, 3.0, 1.0, 0.5, 1.0, 1.0])  # diffs: 2,-2,3,1,1,4
    assert wilcoxon_signed_rank(a, b) == pytest.approx(exact_enumeration_p(a - b), abs=1e-12)


def test_wilcoxon_normal_approximation_calibration():
    # symmetric null: p-values should be roughly uniform; check mean and
    # a central coverage band over repetitions
    rng = np.random.default_rng(5)
    ps = []
    for _ in range(300):
        d = rng.standard_normal(40)
        ps.append(wilcoxon_signed_rank(d, np.zeros(40)))
    ps = np.array(ps)
    assert abs(ps.mean() - 0.5) < 0.06
    assert abs((ps < 0.25).mean() - 0.25) < 0.08


def test_wilcoxon_one_sided_direction():
    rng = np.random.default_rng(6)
    a = rng.standard_normal(30) + 1.0
    b = rng.standard_normal(30)
    assert wilcoxon_signed_rank(a, b) < 0.01
    assert wilcoxon_signed_rank(b, a) > 0.9


# --- outlier scores / reports -------------------------------------------------

def test_outlier_score_identity_model():
    model = flows.init_model(1, n_blocks=2, seed=0)
    assert outlier_score(model, [[0.0]])[0] == pytest.approx(0.9189385332046727, abs=1e-12)


def test_outlier_score_monotone_in_density():
    # halving the density raises the score by exactly log 2
    model = flows.init_model(1, n_blocks=2, seed=0)
    s = outlier_score(model, [[0.0], [math.sqrt(2.0 * math.log(2.0))]])
    assert s[1] - s[0] == pytest.approx(math.log(2.0), abs=1e-12)


def test_score_report_fields(tmp_path):
    rng = np.random.default_rng(7)
    report = ScoreReport("demo", rng.standard_normal(100), rng.standard_normal(80) + 1.0)
    d = report.to_json_dict()
    assert 0.0 <= d["auroc"] <= 1.0
    assert d["histogram"]["count_inlier"] == list(report.hist_inlier)
    assert sum(d["histogram"]["count_inlier"]) == 100
    assert sum(d["histogram"]["count_outlier"]) == 80
    path = tmp_path / "report.json"
    cli._write_json(path, report.to_json_dict())
    assert path.exists()
    datasets.write_csv(tmp_path / "roc.csv", ["fpr", "tpr"], report.roc)
    header = (tmp_path / "roc.csv").read_text().splitlines()[0]
    assert header == "fpr,tpr"
