"""Analytic ground truth for the toy experiments.

Gaussian (and Gaussian-mixture) densities, the normalized positive
difference between an inlier and a contrastive density, and
trapezoid-quadrature utilities (normalization checks, total-variation
distance, model densities on grids).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence, Union

import numpy as np

from .diffcore import as_batch
from .errors import DimensionError, GridError

Array = np.ndarray

LOG_2PI = math.log(2.0 * math.pi)

# default quadrature resolution: at least 4001 points per axis over +-8 sd
DEFAULT_GRID_POINTS = 4001
DEFAULT_GRID_SPAN_SDS = 8.0


@dataclass
class GaussianSpec:
    """Gaussian with per-dimension std-devs or a full covariance matrix."""

    mean: Array
    scale: Array  # (D,) std-devs or (D, D) covariance

    def __post_init__(self):
        self.mean = np.atleast_1d(np.asarray(self.mean, dtype=np.float64))
        self.scale = np.asarray(self.scale, dtype=np.float64)
        if self.scale.ndim == 0:
            self.scale = np.full(self.mean.shape, float(self.scale))
        d = self.mean.shape[0]
        if self.scale.ndim == 1:
            if self.scale.shape[0] != d:
                raise DimensionError("scale length != mean length")
            if np.any(self.scale <= 0):
                raise ValueError("std-devs must be positive")
        elif self.scale.ndim == 2:
            if self.scale.shape != (d, d):
                raise DimensionError("covariance shape != (D, D)")
            try:
                np.linalg.cholesky(self.scale)
            except np.linalg.LinAlgError:
                raise ValueError("covariance is not positive definite") from None
        else:
            raise DimensionError("scale must be a vector of sds or a covariance matrix")

    @property
    def dim(self) -> int:
        return self.mean.shape[0]

    @property
    def is_diagonal(self) -> bool:
        return self.scale.ndim == 1

    def max_sd(self) -> float:
        if self.is_diagonal:
            return float(self.scale.max())
        return float(np.sqrt(np.linalg.eigvalsh(self.scale).max()))


# a density source: one Gaussian or a weighted mixture of Gaussians
MixtureSpec = Sequence[tuple[float, GaussianSpec]]
DensitySpec = Union[GaussianSpec, MixtureSpec]


def gaussian_logpdf(spec: GaussianSpec, x) -> Array:
    """Exact log density at the rows of x."""
    delta = as_batch(x, spec.dim) - spec.mean
    if spec.is_diagonal:
        quad = np.sum((delta / spec.scale) ** 2, axis=1)
        logdet = 2.0 * np.sum(np.log(spec.scale))
    else:
        chol = np.linalg.cholesky(spec.scale)
        y = np.linalg.solve(chol, delta.T)
        quad = np.sum(y * y, axis=0)
        logdet = 2.0 * np.sum(np.log(np.diag(chol)))
    return -0.5 * (quad + logdet + spec.dim * LOG_2PI)


def density_values(source: DensitySpec, x) -> Array:
    """Pdf values of a Gaussian or weighted Gaussian mixture."""
    if isinstance(source, GaussianSpec):
        return np.exp(gaussian_logpdf(source, x))
    total = np.zeros(as_batch(x).shape[0])
    for weight, spec in source:
        if weight < 0:
            raise ValueError("mixture weights must be non-negative")
        total += weight * np.exp(gaussian_logpdf(spec, x))
    return total


def _components(source: DensitySpec) -> list[GaussianSpec]:
    if isinstance(source, GaussianSpec):
        return [source]
    return [spec for _, spec in source]


@dataclass
class GridDensity:
    """Density values on a regular 1-D or 2-D lattice."""

    axes: tuple[Array, ...]
    values: Array

    def __post_init__(self):
        self.axes = tuple(np.asarray(a, dtype=np.float64) for a in self.axes)
        self.values = np.asarray(self.values, dtype=np.float64)
        expected = tuple(len(a) for a in self.axes)
        if self.values.shape != expected:
            raise GridError(f"values shape {self.values.shape} != grid shape {expected}")
        if len(self.axes) not in (1, 2):
            raise GridError("only 1-D and 2-D grids are supported")

    @property
    def ndim(self) -> int:
        return len(self.axes)

    def integral(self) -> float:
        """Trapezoid rule along the last axis, then along each axis before it."""
        values = self.values
        for axis in reversed(self.axes):
            values = np.trapezoid(values, axis, axis=-1)
        return float(values)


def grid_points(axes: tuple[Array, ...]) -> Array:
    """Lattice points of a grid as an (n, D) array, row-major over the
    first axis (the order of values.ravel())."""
    return np.column_stack([a.ravel() for a in np.meshgrid(*axes, indexing="ij")])


def grid_1d(lo: float, hi: float, n: int = DEFAULT_GRID_POINTS) -> tuple[Array]:
    if not (hi > lo) or n < 2:
        raise GridError("need hi > lo and at least 2 points")
    return (np.linspace(lo, hi, n),)


def grid_2d(lo: float, hi: float, n: int) -> tuple[Array, Array]:
    (axis,) = grid_1d(lo, hi, n)
    return (axis, axis.copy())


def default_grid(p: DensitySpec, q: DensitySpec,
                 n: int = DEFAULT_GRID_POINTS,
                 span_sds: float = DEFAULT_GRID_SPAN_SDS) -> tuple[Array, ...]:
    """1-D grid covering every component mean +- span_sds * its sd."""
    comps = _components(p) + _components(q)
    if any(c.dim != 1 for c in comps):
        raise DimensionError("default_grid only builds 1-D grids")
    lo = min(float(c.mean[0]) - span_sds * c.max_sd() for c in comps)
    hi = max(float(c.mean[0]) + span_sds * c.max_sd() for c in comps)
    return grid_1d(lo, hi, n)


def _lattice_values(source: DensitySpec, axes: tuple[Array, ...]) -> Array:
    return density_values(source, grid_points(axes)).reshape([len(a) for a in axes])


BOUNDARY_MASS_TOL = 1e-8


def positive_difference(p: DensitySpec, q: DensitySpec,
                        grid: tuple[Array, ...] | None = None) -> GridDensity:
    """Normalized positive part of p - q on a grid.

    values = max(p - q, 0) / C with C the trapezoid integral of the
    positive part.  The grid must cover the region where p > q: the
    boundary values of the raw positive part must be below 1e-8 of its
    maximum, otherwise the grid is rejected.
    """
    if grid is None:
        grid = default_grid(p, q)
    raw = np.maximum(_lattice_values(p, grid) - _lattice_values(q, grid), 0.0)
    peak = float(raw.max())
    if peak <= 0.0:
        raise ValueError("positive part of p - q is empty (p <= q on the whole grid)")
    # the largest value on the grid's faces: the first and last index of each axis
    boundary = max(np.take(raw, [0, -1], axis=k).max() for k in range(raw.ndim))
    if boundary >= BOUNDARY_MASS_TOL * peak:
        raise GridError("grid too small: positive difference does not vanish at the boundary")
    gd = GridDensity(grid, raw)
    c = gd.integral()
    return GridDensity(grid, raw / c)


def tv_distance(a: GridDensity, b: GridDensity) -> float:
    """Half the trapezoid integral of |a - b| over a shared grid."""
    if a.ndim != b.ndim or any(not np.array_equal(x, y) for x, y in zip(a.axes, b.axes)):
        raise GridError("total variation needs identical grids")
    return 0.5 * GridDensity(a.axes, np.abs(a.values - b.values)).integral()


def model_density_on_grid(log_density: Callable[[Array], Array],
                          grid: tuple[Array, ...]) -> GridDensity:
    """exp(log_density) of a model on a 1-D or 2-D grid; log_density maps
    an (n, D) batch to n log densities (e.g. partial(flows.log_prob, model))."""
    values = np.exp(log_density(grid_points(grid)))
    return GridDensity(grid, values.reshape([len(a) for a in grid]))


def mixture_invariance_check(p: GaussianSpec, q: GaussianSpec, mu: float,
                             grid: tuple[Array, ...] | None = None) -> float:
    """Max pointwise deviation between the normalized positive difference
    of (p, q) and of (p, (1-mu) p + mu q).

    The algebra predicts exact equality for any mu in (0, 1]: replacing q
    by the contaminated mixture rescales the positive part by mu, which
    the normalization removes.
    """
    if not (0.0 < mu <= 1.0):
        raise ValueError("mu must lie in (0, 1]; mu = 0 leaves the target undefined")
    if grid is None:
        grid = default_grid(p, q)
    base = positive_difference(p, q, grid)
    contaminated = positive_difference(p, [(1.0 - mu, p), (mu, q)], grid)
    return float(np.max(np.abs(base.values - contaminated.values)))
