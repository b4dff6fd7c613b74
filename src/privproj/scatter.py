"""Scatter-matrix computation for labeled datasets.

All three matrices are *raw sums* of outer products — never normalized by
the sample count. Regularization strengths elsewhere in the package are
scale-sensitive, so this convention is load-bearing, not cosmetic:

    s_bar = sum_i (x_i - mean)(x_i - mean)^T          (total, center-adjusted)
    s_b   = sum_c n_c (mean_c - mean)(mean_c - mean)^T (between-class)
    s_w   = sum_c sum_{i in c} (x_i - mean_c)(x_i - mean_c)^T (within-class)

Each is a Gram product made exactly symmetric by `symmetrize`, so shape,
symmetry and positive semi-definiteness hold by construction, and
`tests/test_scatter.py` pins them. The identity s_bar == s_b + s_w holds
only up to the rounding of the class means, which a large common offset
(a column near 1e12 with unit spread) makes coarse. So `ScatterSet`
checks the identity to `ADDITIVITY_RTOL`, and rejects entries that
overflowed (finite data near 1e200). numpy's overflow and invalid-value
warnings are off while the scatter is taken: either leaves a non-finite
entry, and the error that rejects it is the one report.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .data import Dataset, LabelSet
from .errors import InputError, LengthMismatch

__all__ = ["ScatterSet", "compute_scatter", "rank_bound_check"]

#: Relative tolerance for the s_bar == s_b + s_w identity.
ADDITIVITY_RTOL = 1e-9

#: Relative eigenvalue floor used when counting the numerical rank of s_b.
RANK_RTOL = 1e-12


@dataclass(frozen=True)
class ScatterSet:
    """Total/between/within scatter of one labeling, plus the mean behind them."""

    s_bar: np.ndarray
    s_b: np.ndarray
    s_w: np.ndarray
    mean: np.ndarray

    def __post_init__(self):
        for name in ("s_bar", "s_b", "s_w"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise InputError(f"{name} contains non-finite entries")
        residual = linalg.max_norm(self.s_bar - (self.s_b + self.s_w))
        if residual > ADDITIVITY_RTOL * linalg.max_norm(self.s_bar):
            raise InputError(
                f"scatter additivity violated: |s_bar - (s_b + s_w)| = {residual:g}")


@np.errstate(over="ignore", invalid="ignore")
def total_scatter(d: Dataset) -> tuple[np.ndarray, np.ndarray]:
    """(mean, s_bar): the feature mean and the center-adjusted total scatter."""
    mean = d.x.mean(axis=1)
    centered = d.x - mean[:, None]
    return mean, linalg.symmetrize(centered @ centered.T)


def class_means(d: Dataset, l: LabelSet) -> np.ndarray:
    """(m, c) matrix whose column j is the mean of class j's samples."""
    means = np.empty((d.n_features, l.class_count))
    for j in range(l.class_count):
        means[:, j] = d.x[:, l.labels == j].mean(axis=1)
    return means


@np.errstate(over="ignore", invalid="ignore")
def compute_scatter(d: Dataset, l: LabelSet) -> ScatterSet:
    """Two-pass scatter computation: means first, then deviation outer products.

    Beyond d it holds one table-sized buffer at a time, the centered table
    for s_bar and then the class-mean deviations for s_w, and a few m x m
    products (traced: 43.5 MiB for a 561 x 7352 table of 31.5 MiB, whose
    m x m matrices take 2.4 MiB each)."""
    if l.n_samples != d.n_samples:
        raise LengthMismatch(
            f"labels cover {l.n_samples} samples but dataset has {d.n_samples}")
    l.require_all_classes("compute_scatter")
    mean, s_bar = total_scatter(d)
    means = class_means(d, l)

    between = (means - mean[:, None]) * np.sqrt(l.counts())
    s_b = linalg.symmetrize(between @ between.T)

    # One table-sized buffer: the gathered class means, then the deviations.
    within = means[:, l.labels]
    np.subtract(d.x, within, out=within)
    s_w = linalg.symmetrize(within @ within.T)

    return ScatterSet(s_bar=s_bar, s_b=s_b, s_w=s_w, mean=mean)


def rank_bound_check(s: ScatterSet) -> int:
    """Numerical rank of the between-class scatter (eigenvalues above a
    dimension-scaled floor). Always at most the class count minus one."""
    norm = linalg.max_norm(s.s_b)
    if norm == 0.0:
        return 0
    values = linalg.sym_eig(s.s_b).values
    return int(np.count_nonzero(values > s.mean.shape[0] * RANK_RTOL * norm))
