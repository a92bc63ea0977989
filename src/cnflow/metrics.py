"""Outlier scoring and evaluation: AUROC, ROC curves, histograms and the
one-sided Wilcoxon signed-rank test.

AUROC is the rank-based (Mann-Whitney) statistic: the fraction of
(outlier, inlier) pairs where the outlier scores higher, ties counted
half.  Values are kept in [0, 1]; the CLI multiplies by 100 when
writing tables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateDataError, DimensionError
from .flows import log_prob

Array = np.ndarray

# brute enumeration of sign patterns is exact and cheap up to here
WILCOXON_EXACT_LIMIT = 20


def outlier_score(model, x) -> Array:
    """Negative log density under the model; higher = more outlier."""
    return -log_prob(model, x)


def _average_ranks(values: Array) -> Array:
    """1-based ranks with ties assigned the mean rank of their group."""
    values = np.asarray(values, dtype=np.float64)
    _, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    upper = np.cumsum(counts)
    start = upper - counts + 1
    return ((start + upper) / 2.0)[inverse]


def auroc(inlier_scores, outlier_scores) -> float:
    s_in = np.asarray(inlier_scores, dtype=np.float64)
    s_out = np.asarray(outlier_scores, dtype=np.float64)
    if s_in.size == 0 or s_out.size == 0:
        raise DegenerateDataError("auroc needs non-empty score sets for both classes")
    ranks = _average_ranks(np.concatenate([s_out, s_in]))
    r_out = ranks[:s_out.size].sum()
    u = r_out - s_out.size * (s_out.size + 1) / 2.0
    return float(u / (s_out.size * s_in.size))


def roc_curve(inlier_scores, outlier_scores) -> Array:
    """(fpr, tpr) points at every distinct threshold, from (0, 0) to (1, 1).

    Thresholds sweep the distinct scores in decreasing order with the
    ">= threshold means outlier" convention; the trapezoid area under the
    points equals the pairwise AUROC exactly (ties give diagonal jumps).
    """
    s_in = np.asarray(inlier_scores, dtype=np.float64)
    s_out = np.asarray(outlier_scores, dtype=np.float64)
    if s_in.size == 0 or s_out.size == 0:
        raise DegenerateDataError("roc_curve needs non-empty score sets for both classes")
    thresholds = np.unique(np.concatenate([s_in, s_out]))[::-1]
    in_sorted = np.sort(s_in)
    out_sorted = np.sort(s_out)
    fpr = (s_in.size - np.searchsorted(in_sorted, thresholds, side="left")) / s_in.size
    tpr = (s_out.size - np.searchsorted(out_sorted, thresholds, side="left")) / s_out.size
    points = np.column_stack([np.concatenate([[0.0], fpr]),
                              np.concatenate([[0.0], tpr])])
    return points


def histogram(scores, n_bins: int, value_range: tuple[float, float]) -> tuple[Array, Array]:
    """Left-closed right-open bins (last bin closed); counts always sum to
    len(scores): values outside the range are clipped into the edge bins."""
    lo, hi = float(value_range[0]), float(value_range[1])
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    if not (hi > lo):
        raise ValueError("invalid histogram range")
    scores = np.asarray(scores, dtype=np.float64)
    counts, edges = np.histogram(np.clip(scores, lo, hi), bins=n_bins, range=(lo, hi))
    return edges, counts


def wilcoxon_signed_rank(paired_a, paired_b) -> float:
    """One-sided p-value for the alternative "a > b".

    Zero differences are dropped; ties in |d| get average ranks.  Exact
    enumeration of all sign patterns is used for up to 20 non-zero pairs,
    the tie-corrected normal approximation beyond that.  All-zero
    differences return p = 1.0 (no evidence) by convention.
    """
    a = np.asarray(paired_a, dtype=np.float64)
    b = np.asarray(paired_b, dtype=np.float64)
    if a.shape != b.shape or a.ndim != 1:
        raise DimensionError("paired inputs must be equal-length vectors")
    d = a - b
    d = d[d != 0.0]
    n = d.size
    if n == 0:
        return 1.0
    ranks = _average_ranks(np.abs(d))
    w_pos = float(ranks[d > 0].sum())
    if n <= WILCOXON_EXACT_LIMIT:
        sums = np.zeros(1)
        for r in ranks:
            sums = np.concatenate([sums, sums + r])
        # ranks are multiples of 0.5, so the subset sums are exact floats
        return float(np.mean(sums >= w_pos))
    mean = n * (n + 1) / 4.0
    _, counts = np.unique(ranks, return_counts=True)
    tie_term = float(np.sum(counts.astype(np.float64) ** 3 - counts))
    var = n * (n + 1) * (2 * n + 1) / 24.0 - tie_term / 48.0
    if var <= 0:
        return 1.0 if w_pos <= mean else 0.0
    z = (w_pos - mean) / math.sqrt(var)
    return 0.5 * math.erfc(z / math.sqrt(2.0))


@dataclass
class ScoreReport:
    """Per-sample scores with labels plus the derived evaluation artifacts."""

    method: str
    inlier_scores: Array
    outlier_scores: Array
    n_bins: int = 50
    auroc: float = field(init=False)
    roc: Array = field(init=False)
    hist_edges: Array = field(init=False)
    hist_inlier: Array = field(init=False)
    hist_outlier: Array = field(init=False)

    def __post_init__(self):
        self.inlier_scores = np.asarray(self.inlier_scores, dtype=np.float64)
        self.outlier_scores = np.asarray(self.outlier_scores, dtype=np.float64)
        self.auroc = auroc(self.inlier_scores, self.outlier_scores)
        self.roc = roc_curve(self.inlier_scores, self.outlier_scores)
        combined = np.concatenate([self.inlier_scores, self.outlier_scores])
        lo, hi = float(combined.min()), float(combined.max())
        if hi <= lo:
            hi = lo + 1.0
        self.hist_edges, self.hist_inlier = histogram(self.inlier_scores, self.n_bins, (lo, hi))
        _, self.hist_outlier = histogram(self.outlier_scores, self.n_bins, (lo, hi))

    def to_json_dict(self) -> dict:
        return {
            "method": self.method,
            "auroc": self.auroc,
            "auroc_pct": 100.0 * self.auroc,
            "n_inlier": int(self.inlier_scores.size),
            "n_outlier": int(self.outlier_scores.size),
            "roc": [[float(f), float(t)] for f, t in self.roc],
            "histogram": {
                "edges": self.hist_edges.tolist(),
                "count_inlier": self.hist_inlier.tolist(),
                "count_outlier": self.hist_outlier.tolist(),
            },
            "inlier_scores": self.inlier_scores.tolist(),
            "outlier_scores": self.outlier_scores.tolist(),
        }
