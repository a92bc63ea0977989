"""Feature sets: synthetic generators, mixtures, normalization, file I/O.

The FeatureSet is the data currency of the whole package: an (n, D)
float64 matrix with optional per-sample labels.

Binary feature file ("CFTR"), little-endian:
  magic "CFTR" | version u16 | D u32 | n u64 | flags u8 (bit0 = labels)
  n*D float32 row-major | n label bytes if flagged
Label codes: 0 inlier, 1 outlier, 2 contrastive.
"""

from __future__ import annotations

import csv
import os
import struct
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .diffcore import all_finite, require_finite
from .errors import DegenerateDataError, DimensionError, FormatError
from .oracle import GaussianSpec

Array = np.ndarray

LABEL_INLIER = 0
LABEL_OUTLIER = 1
LABEL_CONTRASTIVE = 2
LABEL_CODES = (LABEL_INLIER, LABEL_OUTLIER, LABEL_CONTRASTIVE)

_MAGIC = b"CFTR"
_VERSION = 1
_HEADER = struct.Struct("<4sHIQB")


@dataclass
class FeatureSet:
    data: Array
    labels: Array | None = None

    def __post_init__(self):
        self.data = np.ascontiguousarray(self.data, dtype=np.float64)
        if self.data.ndim != 2:
            raise DimensionError("FeatureSet data must be 2-D (n, D)")
        if not all_finite(self.data):
            raise DegenerateDataError("FeatureSet data contains non-finite entries")
        if self.labels is not None:
            self.labels = np.asarray(self.labels, dtype=np.int8)
            if self.labels.shape != (self.data.shape[0],):
                raise DimensionError("label vector length != number of samples")

    @property
    def n(self) -> int:
        return self.data.shape[0]

    @property
    def dim(self) -> int:
        return self.data.shape[1]

    def take(self, idx) -> "FeatureSet":
        labels = None if self.labels is None else self.labels[idx]
        return FeatureSet(self.data[idx], labels)


def gen_gaussian(mean, scale, n: int, seed: int) -> FeatureSet:
    """Seeded Gaussian sample; scale is a scalar/vector of sds or a covariance."""
    if n < 1:
        raise ValueError("n must be >= 1")
    spec = GaussianSpec(mean, scale)
    z = np.random.default_rng(seed).standard_normal((n, spec.dim))
    if spec.is_diagonal:
        return FeatureSet(z * spec.scale + spec.mean)
    return FeatureSet(z @ np.linalg.cholesky(spec.scale).T + spec.mean)


@dataclass
class MixSpec:
    """Contrastive mixture: fraction mu from the broad source, rest from other."""

    broad: FeatureSet
    other: FeatureSet
    mu: float
    total: int
    seed: int

    def __post_init__(self):
        if not (0.0 <= self.mu <= 1.0):
            raise ValueError("mu must lie in [0, 1]")
        if self.total < 1:
            raise ValueError("total must be >= 1")


def mix_datasets(spec: MixSpec) -> FeatureSet:
    """round(mu * total) broad samples plus the remainder from the other
    source, shuffled by seed.  Broad rows are labeled contrastive; other
    rows keep their own labels (inlier when unlabeled)."""
    broad, other = spec.broad, spec.other
    if broad.n == 0 or other.n == 0:
        raise DegenerateDataError("mixture sources must be non-empty")
    if broad.dim != other.dim:
        raise DimensionError("mixture sources disagree on dimension")
    n_broad = int(round(spec.mu * spec.total))
    n_other = spec.total - n_broad
    rng = np.random.default_rng(spec.seed)
    parts, labels = [], []
    if n_broad > 0:
        if n_broad > broad.n:
            raise DegenerateDataError(f"broad source has {broad.n} samples, need {n_broad}")
        idx = rng.choice(broad.n, size=n_broad, replace=False)
        parts.append(broad.data[idx])
        labels.append(np.full(n_broad, LABEL_CONTRASTIVE, dtype=np.int8))
    if n_other > 0:
        if n_other > other.n:
            raise DegenerateDataError(f"other source has {other.n} samples, need {n_other}")
        idx = rng.choice(other.n, size=n_other, replace=False)
        parts.append(other.data[idx])
        if other.labels is not None:
            labels.append(other.labels[idx])
        else:
            labels.append(np.full(n_other, LABEL_INLIER, dtype=np.int8))
    data = np.concatenate(parts, axis=0)
    lab = np.concatenate(labels)
    perm = rng.permutation(spec.total)
    return FeatureSet(data[perm], lab[perm])


def hypersphere_normalize(fs: FeatureSet, noise_sigma: float = 0.01, seed: int = 0) -> FeatureSet:
    """Scale every row to unit L2 norm, then add iid Gaussian noise."""
    norms = np.linalg.norm(fs.data, axis=1)
    zero_rows = np.flatnonzero(norms == 0.0)
    if zero_rows.size:
        raise DegenerateDataError(f"zero-norm rows cannot be normalized: {zero_rows.tolist()}")
    data = fs.data / norms[:, None]
    if noise_sigma > 0.0:
        rng = np.random.default_rng(seed)
        data = data + noise_sigma * rng.standard_normal(data.shape)
    return FeatureSet(data, fs.labels)


def permute_marginals(fs: FeatureSet, seed: int) -> FeatureSet:
    """Independently permute every column, destroying joint correlations
    while preserving each column's multiset exactly."""
    if fs.n < 1:
        raise DegenerateDataError("need at least one sample")
    rng = np.random.default_rng(seed)
    data = np.empty_like(fs.data)
    for j in range(fs.dim):
        data[:, j] = fs.data[rng.permutation(fs.n), j]
    return FeatureSet(data)


def split(fs: FeatureSet, fractions: Sequence[float], seed: int) -> tuple[FeatureSet, ...]:
    """Disjoint seeded-shuffle splits; boundary at round(cumfrac * n)."""
    fractions = [float(f) for f in fractions]
    if any(f <= 0 for f in fractions):
        raise ValueError("fractions must be positive")
    if sum(fractions) > 1.0 + 1e-9:
        raise ValueError("fractions sum exceeds 1")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(fs.n)
    bounds = [0] + [int(round(c * fs.n)) for c in np.cumsum(fractions)]
    return tuple(fs.take(perm[bounds[i]:bounds[i + 1]]) for i in range(len(fractions)))


def save_features(fs: FeatureSet, path, format: str | None = None) -> None:
    fmt = _resolve_format(path, format)
    if fmt == "binary":
        # checked before the file is opened, so a refused save leaves an
        # existing file as it was
        for chunk in _float32_chunks(fs.data):
            require_finite(chunk, DegenerateDataError, "feature values lie beyond the float32 "
                           f"range +-{np.finfo(np.float32).max:.8g} of a binary feature file")
        flags = 1 if fs.labels is not None else 0
        with open(path, "wb") as fh:
            fh.write(_HEADER.pack(_MAGIC, _VERSION, fs.dim, fs.n, flags))
            for chunk in _float32_chunks(fs.data):
                fh.write(chunk)
            if fs.labels is not None:
                fh.write(fs.labels.astype(np.uint8).tobytes())
    else:
        header, rows = [f"f{j}" for j in range(fs.dim)], fs.data
        if fs.labels is not None:
            header.append("label")
            rows = ((*row, int(label)) for row, label in zip(fs.data, fs.labels))
        write_csv(path, header, rows)


def write_csv(path, header: list[str], rows) -> None:
    """Write a header line, then a line per row: a float (numpy's too)
    with 17 significant digits, enough to read back the same float, and
    any other value as str gives it, quoted if it holds a comma, a quote
    or a line break."""
    with open(path, "w", newline="") as fh:
        out = csv.writer(fh, lineterminator="\n")
        out.writerow(header)
        out.writerows([f"{v:.17g}" if isinstance(v, float) else v for v in row] for row in rows)


def load_features(path, format: str | None = None) -> FeatureSet:
    fmt = _resolve_format(path, format)
    if fmt == "binary":
        with open(path, "rb") as fh:
            head = fh.read(_HEADER.size)
            if len(head) < _HEADER.size:
                raise FormatError("truncated feature file header")
            magic, version, dim, n, flags = _HEADER.unpack(head)
            if magic != _MAGIC:
                raise FormatError(f"bad magic {magic!r}, expected {_MAGIC!r}")
            if version != _VERSION:
                raise FormatError(f"unsupported feature file version {version}")
            if dim < 1:
                raise FormatError("feature file header declares no feature columns")
            expected = _HEADER.size + 4 * dim * n + (n if flags & 1 else 0)
            size = os.fstat(fh.fileno()).st_size
            if size != expected:
                raise FormatError(f"feature file is {size} bytes, its header implies {expected}")
            data = _read_float32_rows(fh, n, dim)
            labels = None
            if flags & 1:
                labels = np.empty(n, dtype=np.uint8)
                if fh.readinto(labels) != n:
                    raise FormatError("feature file ended inside its labels")
                if np.any(labels > LABEL_CONTRASTIVE):
                    raise FormatError(f"label bytes outside the codes {LABEL_CODES}")
        return FeatureSet(data, labels)
    with open(path) as fh:
        header = fh.readline().strip()
        if not header:
            raise FormatError("empty CSV file")
        names = header.split(",")
        has_labels = names[-1] == "label"
        dim = len(names) - 1 if has_labels else len(names)
        if dim < 1:
            raise FormatError("CSV header declares no feature columns")
        rows, labels = [], []
        for line_no, line in enumerate(fh, start=2):
            line = line.strip()
            if not line:
                continue
            parts = line.split(",")
            if len(parts) != len(names):
                raise FormatError(f"line {line_no}: expected {len(names)} fields, got {len(parts)}")
            try:
                rows.append([float(v) for v in parts[:dim]])
                if has_labels:
                    labels.append(int(parts[-1]))
            except ValueError:
                raise FormatError(f"line {line_no}: non-numeric value") from None
            if has_labels and labels[-1] not in LABEL_CODES:
                raise FormatError(f"line {line_no}: label {labels[-1]} is not in {LABEL_CODES}")
        data = np.array(rows, dtype=np.float64).reshape(len(rows), dim)
        return FeatureSet(data, np.array(labels, dtype=np.int8) if has_labels else None)


# float32 values per read or write of a binary payload: the one buffer a
# load or save holds beyond the rows is 256 KiB
_LOAD_CHUNK = 65536


def _float32_chunks(data: Array):
    """The values of the C-contiguous float64 array data, row-major, cast
    to little-endian float32 in consecutive chunks of _LOAD_CHUNK values
    that share one buffer, so each chunk is valid until the next.  A value
    beyond the float32 range casts to +-inf, without numpy's warning."""
    flat = data.reshape(-1)
    buf = np.empty(min(flat.size, _LOAD_CHUNK), dtype="<f4")
    for lo in range(0, flat.size, _LOAD_CHUNK):
        chunk = buf[:min(_LOAD_CHUNK, flat.size - lo)]
        with np.errstate(over="ignore"):
            chunk[...] = flat[lo:lo + chunk.size]
        yield chunk


def _read_float32_rows(fh, n: int, dim: int) -> Array:
    """The next n x D little-endian float32 values of fh as float64 rows,
    read through one bounded buffer into the preallocated rows; the
    widening is exact, so the rows are bitwise those of
    np.frombuffer(payload, "<f4").astype(np.float64)."""
    data = np.empty((n, dim))
    flat = data.reshape(-1)
    buf = np.empty(min(flat.size, _LOAD_CHUNK), dtype="<f4")
    for lo in range(0, flat.size, _LOAD_CHUNK):
        chunk = buf[:min(_LOAD_CHUNK, flat.size - lo)]
        if fh.readinto(chunk) != chunk.nbytes:
            raise FormatError("feature file ended inside its payload")
        flat[lo:lo + chunk.size] = chunk
    return data


def _resolve_format(path, format: str | None) -> str:
    if format is not None:
        if format not in ("binary", "csv"):
            raise ValueError(f"unknown format {format!r}")
        return format
    return "csv" if str(path).endswith(".csv") else "binary"


@dataclass
class ClusterBenchmark:
    """Synthetic analog of the mixture ablations: equal-radius Gaussian
    clusters (so the degenerate contrastive case carries no norm signal),
    one hard outlier cluster near the inlier cluster, a few distant rest
    clusters, and a broad contrastive pool covering everything."""

    inlier_train: FeatureSet
    inlier_extra: FeatureSet   # contamination pool; aliases the training
                               # inliers so the degenerate mixture carries no
                               # sampling-noise signal against them
    inlier_test: FeatureSet
    hard_pool: FeatureSet      # known-outlier pool (informed setting)
    hard_test: FeatureSet
    rest_test: FeatureSet
    broad_pool: FeatureSet
    broad_val: FeatureSet      # held-out broad samples for the proxy AUROC


def cluster_benchmark(dim: int = 8, seed: int = 0, radius: float = 2.0,
                      cluster_sd: float = 0.5, hard_angle: float = 0.55,
                      broad_sd: float = 2.0, n_train: int = 2000,
                      n_test: int = 500, n_pool: int = 4000) -> ClusterBenchmark:
    if dim < 3:
        raise DimensionError("cluster benchmark needs dim >= 3")
    e = np.eye(dim)
    c_in = radius * e[0]
    c_hard = radius * (np.cos(hard_angle) * e[0] + np.sin(hard_angle) * e[1])
    rest_centers = [-radius * e[0], radius * e[2], -radius * e[2]]
    ss = np.random.SeedSequence(seed)
    seeds = [int(s.generate_state(1)[0]) for s in ss.spawn(8)]
    n_rest_each = max(n_test // len(rest_centers), 1)
    rest_parts = [
        gen_gaussian(c, cluster_sd, n_rest_each, seeds[5] + k).data
        for k, c in enumerate(rest_centers)
    ]
    rest = FeatureSet(np.concatenate(rest_parts, axis=0),
                      np.full(sum(len(p) for p in rest_parts), LABEL_OUTLIER, dtype=np.int8))
    hard_pool = gen_gaussian(c_hard, cluster_sd, n_pool, seeds[3])
    hard_pool = FeatureSet(hard_pool.data, np.full(n_pool, LABEL_OUTLIER, dtype=np.int8))
    inlier_train = gen_gaussian(c_in, cluster_sd, n_train, seeds[0])
    return ClusterBenchmark(
        inlier_train=inlier_train,
        inlier_extra=inlier_train,
        inlier_test=gen_gaussian(c_in, cluster_sd, n_test, seeds[2]),
        hard_pool=hard_pool,
        hard_test=gen_gaussian(c_hard, cluster_sd, n_test, seeds[4]),
        rest_test=rest,
        broad_pool=gen_gaussian(np.zeros(dim), broad_sd, n_pool, seeds[6]),
        broad_val=gen_gaussian(np.zeros(dim), broad_sd, n_test, seeds[7]),
    )
