import math

import numpy as np
import pytest
import scipy.stats

from cnflow import cli
from cnflow.errors import DimensionError, GridError
from cnflow.oracle import (BOUNDARY_MASS_TOL, GaussianSpec, GridDensity, default_grid,
                           density_values, gaussian_logpdf, grid_1d, grid_2d,
                           grid_points, mixture_invariance_check, positive_difference,
                           tv_distance)
from helpers import difference_support_1d

P = GaussianSpec([0.0], [1.0])
Q = GaussianSpec([1.0], [2.0])


def test_logpdf_standard_normal_at_zero():
    assert gaussian_logpdf(P, [[0.0]])[0] == pytest.approx(-0.9189385332046727, abs=1e-12)


def test_logpdf_shifted_scaled():
    # N(1, sd 2) at its mean: -log(2) below the standard normal peak
    val = gaussian_logpdf(Q, [[1.0]])[0]
    assert val == pytest.approx(-0.9189385332046727 - math.log(2.0), abs=1e-12)


def test_logpdf_matches_scipy_full_covariance():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    cov = a @ a.T + 3.0 * np.eye(3)
    mean = rng.standard_normal(3)
    spec = GaussianSpec(mean, cov)
    x = rng.standard_normal((20, 3))
    ours = gaussian_logpdf(spec, x)
    ref = scipy.stats.multivariate_normal(mean, cov).logpdf(x)
    assert np.allclose(ours, ref, atol=1e-10, rtol=0)


def test_logpdf_quadrature_normalized():
    # a random 1-D spec: its pdf renormalized by quadrature must reproduce
    # the closed form to ~1e-10 relative
    spec = GaussianSpec([0.7], [1.3])
    grid = grid_1d(0.7 - 12, 0.7 + 12, 40001)
    pdf = np.exp(gaussian_logpdf(spec, grid[0][:, None]))
    integral = np.trapezoid(pdf, grid[0])
    renorm = pdf / integral
    rel = np.abs(renorm - pdf) / pdf.max()
    assert rel.max() < 1e-10


def test_logpdf_dim_mismatch():
    with pytest.raises(DimensionError):
        gaussian_logpdf(P, np.zeros((2, 3)))


def test_positive_difference_normalizes():
    grid = default_grid(P, Q)
    pbar = positive_difference(P, Q, grid)
    assert pbar.integral() == pytest.approx(1.0, abs=1e-6)
    assert np.all(pbar.values >= 0.0)


def test_positive_difference_zero_weight_mixture_is_p():
    grid = grid_1d(-8.0, 8.0, 8001)
    pbar = positive_difference(P, [(0.0, Q)], grid)
    p_vals = np.exp(gaussian_logpdf(P, grid[0][:, None]))
    assert np.allclose(pbar.values, p_vals, atol=1e-9, rtol=0)


def test_positive_difference_identical_specs_rejected():
    grid = grid_1d(-8.0, 8.0, 1001)
    with pytest.raises(ValueError):
        positive_difference(P, GaussianSpec([0.0], [1.0]), grid)


def test_positive_difference_grid_too_small():
    with pytest.raises(GridError):
        positive_difference(P, Q, grid_1d(-0.5, 0.5, 101))


def test_positive_difference_is_positive_exactly_on_the_analytic_support():
    # toy1d's pair on its grid: p > q on one interval, whose closed-form
    # ends may fall up to one grid step either side of a sign change
    grid = grid_1d(-6.0, 6.0, 4001)
    ((lo, hi),) = difference_support_1d(P, Q)
    x = grid[0]
    step = x[1] - x[0]
    positive = positive_difference(P, Q, grid).values > 0.0
    assert np.all(positive[(x > lo + step) & (x < hi - step)])
    assert not np.any(positive[(x < lo - step) | (x > hi + step)])
    assert positive.sum() >= (hi - lo) / step - 2


def test_support_endpoints_match_quadratic_roots():
    # equating the log densities of N(0,1) and N(1, sd 2) gives
    # 3x^2 + 2x - (1 + 8 ln 2) = 0
    intervals = difference_support_1d(P, Q)
    assert len(intervals) == 1
    lo, hi = intervals[0]
    disc = math.sqrt(4.0 + 12.0 * (1.0 + 8.0 * math.log(2.0)))
    assert lo == pytest.approx((-2.0 - disc) / 6.0, abs=1e-12)
    assert hi == pytest.approx((-2.0 + disc) / 6.0, abs=1e-12)
    assert lo == pytest.approx(-1.8476, abs=1e-3)
    assert hi == pytest.approx(1.1809, abs=1e-3)


def test_support_endpoints_evaluate_back_to_equal_densities():
    intervals = difference_support_1d(P, Q)
    for endpoint in np.array(intervals).ravel():
        if math.isfinite(endpoint):
            lp = gaussian_logpdf(P, [[endpoint]])[0]
            lq = gaussian_logpdf(Q, [[endpoint]])[0]
            assert abs(lp - lq) < 1e-9


def test_support_equal_variances_half_line():
    a = GaussianSpec([0.0], [1.0])
    b = GaussianSpec([2.0], [1.0])
    intervals = difference_support_1d(a, b)
    assert intervals == [(-math.inf, pytest.approx(1.0, abs=1e-12))]


def test_support_p_broader_two_sided():
    a = GaussianSpec([0.0], [2.0])
    b = GaussianSpec([0.3], [1.0])
    intervals = difference_support_1d(a, b)
    assert len(intervals) == 2
    assert intervals[0][0] == -math.inf and intervals[1][1] == math.inf
    # p must indeed win in the far tails
    for x in (-30.0, 30.0):
        assert gaussian_logpdf(a, [[x]])[0] > gaussian_logpdf(b, [[x]])[0]


def test_support_identical_error():
    with pytest.raises(ValueError):
        difference_support_1d(P, GaussianSpec([0.0], [1.0]))


def test_tv_identical_is_zero():
    grid = grid_1d(-8.0, 8.0, 2001)
    pbar = positive_difference(P, Q, grid)
    assert tv_distance(pbar, pbar) == 0.0


def test_tv_disjoint_boxes_is_one():
    axis = np.linspace(0.0, 10.0, 10001)
    a = np.where((axis >= 1.0) & (axis <= 2.0), 1.0, 0.0)
    b = np.where((axis >= 5.0) & (axis <= 6.0), 1.0, 0.0)
    tv = tv_distance(GridDensity((axis,), a), GridDensity((axis,), b))
    # trapezoid rule smears the box edges by one cell
    assert tv == pytest.approx(1.0, abs=2e-3)


def test_tv_close_gaussians_matches_fine_reference():
    # reference computed on a 10x finer grid
    a = GaussianSpec([0.0], [1.0])
    b = GaussianSpec([0.1], [1.0])
    coarse = grid_1d(-9.0, 9.0, 4001)
    fine = grid_1d(-9.0, 9.0, 40001)

    def tv_on(grid):
        pa = np.exp(gaussian_logpdf(a, grid[0][:, None]))
        pb = np.exp(gaussian_logpdf(b, grid[0][:, None]))
        return tv_distance(GridDensity(grid, pa), GridDensity(grid, pb))

    assert tv_on(coarse) == pytest.approx(tv_on(fine), abs=1e-4)


def test_tv_grid_mismatch():
    g1 = grid_1d(-1.0, 1.0, 11)
    g2 = grid_1d(-1.0, 1.0, 21)
    with pytest.raises(GridError):
        tv_distance(GridDensity(g1, np.zeros(11)), GridDensity(g2, np.zeros(21)))


@pytest.mark.parametrize("mu", [0.1, 0.25, 0.5, 0.9, 1.0])
def test_mixture_invariance(mu):
    # contaminating the contrastive source with inlier mass rescales the
    # positive part by mu, so the normalized target is pointwise unchanged
    assert mixture_invariance_check(P, Q, mu) < 1e-10


def test_mixture_invariance_mu_one_exact():
    assert mixture_invariance_check(P, Q, 1.0) == 0.0


def test_mixture_invariance_rejects_mu_zero():
    with pytest.raises(ValueError):
        mixture_invariance_check(P, Q, 0.0)


def test_density_values_mixture():
    grid = grid_1d(-8.0, 8.0, 101)
    pts = grid[0][:, None]
    mix = [(0.3, P), (0.7, Q)]
    vals = density_values(mix, pts)
    ref = 0.3 * np.exp(gaussian_logpdf(P, pts)) + 0.7 * np.exp(gaussian_logpdf(Q, pts))
    assert np.allclose(vals, ref, atol=1e-14, rtol=0)


def test_grid_2d_integral():
    spec = GaussianSpec([0.0, 0.0], [1.0, 1.0])
    grid = grid_2d(-7.0, 7.0, 301)
    xx, yy = np.meshgrid(grid[0], grid[1], indexing="ij")
    pts = np.column_stack([xx.ravel(), yy.ravel()])
    vals = np.exp(gaussian_logpdf(spec, pts)).reshape(301, 301)
    assert GridDensity(grid, vals).integral() == pytest.approx(1.0, abs=1e-4)


def test_grid_density_csv_roundtrip(tmp_path):
    grid = grid_1d(-2.0, 2.0, 11)
    gd = GridDensity(grid, np.linspace(0, 1, 11))
    path = tmp_path / "density.csv"
    cli._write_density(path, gd)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "x,density"
    assert len(rows) == 12
    x0, d0 = rows[1].split(",")
    assert float(x0) == -2.0 and float(d0) == 0.0


# the 1-D and 2-D lattice formulas that grid_points, GridDensity.integral and
# the boundary test of positive_difference each once spelled out
def _axis_points(axes):
    if len(axes) == 1:
        return axes[0][:, None]
    xx, yy = np.meshgrid(axes[0], axes[1], indexing="ij")
    return np.column_stack([xx.ravel(), yy.ravel()])


def _axis_integral(values, axes):
    if len(axes) == 1:
        return float(np.trapezoid(values, axes[0]))
    return float(np.trapezoid(np.trapezoid(values, axes[1], axis=1), axes[0]))


def _axis_boundary(raw):
    if raw.ndim == 1:
        return max(raw[0], raw[-1])
    return max(raw[0, :].max(), raw[-1, :].max(), raw[:, 0].max(), raw[:, -1].max())


@pytest.mark.parametrize("ndim", [1, 2])
@pytest.mark.parametrize("seed", range(12))
def test_lattice_rules_are_bitwise_the_one_and_two_axis_formulas(ndim, seed):
    # uneven random axes of 2-11 points, spans from inside to outside the
    # region where p > q, so both outcomes of the boundary test occur
    rng = np.random.default_rng(seed)
    axes = tuple(np.sort(rng.uniform(-1.0, 1.0, rng.integers(2, 12))) * rng.uniform(0.5, 6.0)
                 for _ in range(ndim))
    values = rng.random([len(a) for a in axes])
    assert grid_points(axes).tobytes() == _axis_points(axes).tobytes()
    assert GridDensity(axes, values).integral() == _axis_integral(values, axes)
    p, q = GaussianSpec(np.zeros(ndim), 1.0), GaussianSpec(np.ones(ndim), 2.0)
    pts = _axis_points(axes)
    raw = np.maximum(density_values(p, pts) - density_values(q, pts), 0.0).reshape(values.shape)
    if raw.max() <= 0.0:
        with pytest.raises(ValueError, match="positive part of p - q is empty"):
            positive_difference(p, q, axes)
    elif _axis_boundary(raw) >= BOUNDARY_MASS_TOL * raw.max():
        with pytest.raises(GridError, match="grid too small"):
            positive_difference(p, q, axes)
    else:
        got = positive_difference(p, q, axes).values
        assert got.tobytes() == (raw / _axis_integral(raw, axes)).tobytes()
