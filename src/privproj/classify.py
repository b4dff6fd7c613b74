"""Deterministic classifiers for measuring accuracy on projected data.

Both classifiers are distance-based and fully tie-broken, so repeated runs
are bit-identical and results do not depend on evaluation order:

  KNN              majority vote among the k nearest training samples
                   (Euclidean); equal distances prefer the lower training
                   index, vote ties prefer the smallest class id.
  NEAREST_CENTROID 1-NN over the class means, with class j's mean as
                   training sample j; the KNN tie rules then make equal
                   distances prefer the smallest class id.

`train_eval` scores one projection on several labelings in one call (the
utility task and every privacy task). KNN finds the neighbours of each test
point once and every labeling votes over that same neighbour set;
nearest-centroid runs the same selection with k=1 over each labeling's
class means.

Neighbour search returns exactly the set the first k entries of a stable
ascending sort of the whole distance block hold: every training sample
strictly closer than the k-th smallest distance, then samples at exactly
that distance, lowest training index first. Distances are the explicit
(train - test)^2 sums over features of `_sq_distances`. Each search only
collects candidates, a superset of that set, and `_first_k` keeps the first
k by (distance, training index). One size rule picks the search:

  dense   fewer than FAST_MIN_TRAIN training samples (so nearest-centroid
          always): the whole (n_train, n_chunk) block; the entries at or
          below the k-th distance (`np.partition`), or `argmin` when k=1.
  window  1-D data: training values sorted once; the 2k sorted values
          around a test point's `searchsorted` position give its k-th
          distance E, and every value within a proven radius of sqrt(E).
  Gram    wider data: one BLAS product per chunk of |a|^2 - 2a.b + |b|^2,
          on data centred on the training mean, with a proven bound on its
          distance from the explicit sums: every pair the bound cannot
          exclude.

BLAS only chooses candidates and never decides a distance or a tie, so
neighbour sets are the same on any BLAS build and at any thread count. Test
points are processed in chunks whose (n_train, n_chunk) block holds at most
DISTANCE_BLOCK doubles. That block is the only chunk-sized array a search
holds: the dense sums and the `np.partition` for the k-th distances work on
one slice of at most PARTITION_SLICE doubles at a time, so a search peaks at
one block plus one slice (and its candidates).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass

import numpy as np

from .data import Dataset, LabelSet
from .errors import (DimensionMismatch, EmptyTrainClass, InputError,
                     LengthMismatch, is_integer)
from .scatter import class_means

__all__ = ["ClassifierSpec", "AccuracyReport", "train_eval"]

KINDS = ("KNN", "NEAREST_CENTROID")

#: Most doubles in one (n_train, n_chunk) distance block, the one array a
#: search holds at the size of the whole chunk.
DISTANCE_BLOCK = 1 << 18
#: Most doubles in one slice of that block: `_sq_distances` sums through a
#: temporary of this size, and `np.partition` copies one slice at a time to
#: find the k-th distances, so a search peaks at one block plus one slice.
PARTITION_SLICE = 1 << 14
#: Training sets at least this large take a fast path (1-D: the sorted
#: window; wider: the Gram filter); smaller ones the dense block. Measured
#: crossovers (2 vCPUs, 2030 test points): the window wins from about 32
#: (k=5) and 40 (k=1); the Gram filter from below 8 (m=29, k=5), 16 (m=2,
#: k=5) and 24 (m=29, k=1), while at m=2, k=1 the dense `argmin` stays
#: faster up to 720. Nearest-centroid (one point per class) stays dense.
FAST_MIN_TRAIN = 64


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str = "KNN"
    k_neighbors: int = 5

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown classifier kind {self.kind!r}; expected {KINDS}")
        k = self.k_neighbors
        if not (is_integer(k) and k >= 1 and k % 2 == 1):
            raise InputError(f"k_neighbors must be a positive odd integer, got {k!r}")
        object.__setattr__(self, "k_neighbors", int(k))


@dataclass(frozen=True)
class AccuracyReport:
    """Confusion rows are true classes, columns predicted classes."""

    accuracy: float
    confusion: np.ndarray
    n_test: int

    def __post_init__(self):
        confusion = np.asarray(self.confusion, dtype=np.int64)
        if confusion.ndim != 2 or confusion.shape[0] != confusion.shape[1]:
            raise InputError(f"confusion must be square, got shape {confusion.shape}")
        if int(confusion.sum()) != self.n_test:
            raise InputError("confusion entries must total n_test")
        if self.accuracy != np.trace(confusion) / self.n_test:
            raise InputError("accuracy must equal trace(confusion)/n_test")
        confusion.setflags(write=False)
        object.__setattr__(self, "confusion", confusion)


def _sq_distances(train: np.ndarray, test_chunk: np.ndarray) -> np.ndarray:
    """(n_train, n_chunk) squared Euclidean distances: (a - b) ** 2 summed
    in feature order, a slice of at most PARTITION_SLICE doubles at a time
    through one temporary."""
    n_train, n_chunk = train.shape[1], test_chunk.shape[1]
    out = np.zeros((n_train, n_chunk))
    step = max(1, PARTITION_SLICE // n_chunk)
    tmp = np.empty((min(step, n_train), n_chunk))
    for lo in range(0, n_train, step):
        part = out[lo:lo + step]
        t = tmp[:part.shape[0]]
        for row in range(train.shape[0]):
            np.subtract(train[row, lo:lo + step, None], test_chunk[row], out=t)
            np.square(t, out=t)
            part += t
    return out


def _at_or_below_kth(block: np.ndarray, k: int,
                     slack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(cols, rows): the test-point and training indices of the entries of
    block, one row per test point, that lie at or below their row's k-th
    smallest plus the row's slack, grouped by test point. `np.partition`
    copies one slice of at most PARTITION_SLICE doubles at a time."""
    step = max(1, PARTITION_SLICE // block.shape[1])
    found = []
    for lo in range(0, block.shape[0], step):
        part = block[lo:lo + step]
        limit = np.partition(part, k - 1, axis=1)[:, k - 1] + slack[lo:lo + step]
        cols, rows = np.nonzero(part <= limit[:, None])
        found.append((cols + lo, rows))
    cols, rows = zip(*found)
    return np.concatenate(cols), np.concatenate(rows)


def _first_k(x_train: np.ndarray, chunk: np.ndarray, rows: np.ndarray,
             cols: np.ndarray, k: int) -> np.ndarray:
    """(k, n_chunk) training indices, ascending: of the candidate pairs
    (rows[i], cols[i]), grouped by column in any row order, the first k of
    each column by (distance, training index). Distances are summed in
    `_sq_distances`' order, so they are the same bits. The key (column,
    distance rank, row) is unique, below 2^36 while n_train <= 2^18 (a chunk
    holds at most DISTANCE_BLOCK pairs) and below n_train^2 beyond that."""
    dist = np.zeros(rows.size)
    for row in range(x_train.shape[0]):
        dist += (x_train[row, rows] - chunk[row, cols]) ** 2
    _, rank = np.unique(dist, return_inverse=True)
    # Any sort gives the same order on a unique key; the stable merge sort
    # is faster on the column runs the candidates arrive in.
    by_col = np.argsort((cols * rank.size + rank) * x_train.shape[1] + rows,
                        kind="stable")
    counts = np.bincount(cols, minlength=chunk.shape[1])
    first = np.cumsum(counts) - counts
    return np.sort(rows[by_col[first + np.arange(k)[:, None]]], axis=0)


def _dense(x_train: np.ndarray, test_chunk: np.ndarray, k: int) -> np.ndarray:
    """The whole distance block; its candidates are the entries at or below
    each column's k-th smallest."""
    dist = _sq_distances(x_train, test_chunk)
    if k == 1:  # argmin returns the first of equal minima
        return dist.argmin(axis=0)[None]
    cols, rows = _at_or_below_kth(dist.T, k, np.zeros(dist.shape[1]))
    return _first_k(x_train, test_chunk, rows, cols, k)


def _chunked(x_test: np.ndarray, k: int, n_train: int,
             select: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """select(test_chunk) -> (k, n_chunk) neighbours, run over test chunks
    whose (n_train, n_chunk) block holds at most DISTANCE_BLOCK doubles."""
    neighbors = np.empty((k, x_test.shape[1]), dtype=np.intp)
    step = max(1, DISTANCE_BLOCK // n_train)
    for start in range(0, x_test.shape[1], step):
        neighbors[:, start:start + step] = select(x_test[:, start:start + step])
    return neighbors


def _dense_neighbors(x_train: np.ndarray, x_test: np.ndarray,
                     k: int) -> np.ndarray:
    """The reference search: the whole distance block of each chunk."""
    return _chunked(x_test, k, x_train.shape[1],
                    lambda chunk: _dense(x_train, chunk, k))


def _window_neighbors(x_train: np.ndarray, x_test: np.ndarray,
                      k: int) -> np.ndarray:
    """`_dense_neighbors` for 1-D data, from the sorted training values.

    Rounding is monotone, so along the sorted values the computed distances
    fall up to a test point t's `searchsorted` position and rise after it:
    the 2k values around it hold the k smallest, the k-th of them the k-th
    distance E. The candidates are all values in [fl(t - r), fl(t + r)] for
    r = sqrt(E) (1 + 8 eps) + 1e-161. No v at a distance e <= E lies outside:
    with u the unit roundoff and eta the smallest subnormal,
    |fl(v - t)| >= (1 - u) |v - t| and fl(x^2) >= (1 - u) x^2 - eta, so
    |v - t| <= (sqrt(E) + sqrt(eta)) (1 + 2u) <= r, and monotone rounding
    turns v <= t + r into v <= fl(t + r), and likewise below.
    """
    values = x_train[0]
    n = values.size
    order = np.argsort(values)
    ordered = values[order]
    width = min(2 * k, n)
    grow = 1 + 8 * np.finfo(np.float64).eps

    def select(chunk: np.ndarray) -> np.ndarray:
        t = chunk[0]
        first = np.clip(np.searchsorted(ordered, t) - k, 0, n - width)
        window = (ordered[first + np.arange(width)[:, None]] - t) ** 2
        r = np.sqrt(np.partition(window, k - 1, axis=0)[k - 1]) * grow + 1e-161
        lo = np.searchsorted(ordered, t - r)
        counts = np.searchsorted(ordered, t + r, side="right") - lo
        cols = np.repeat(np.arange(t.size), counts)
        pos = np.arange(cols.size) + np.repeat(lo - np.cumsum(counts) + counts,
                                               counts)
        return _first_k(x_train, chunk, order[pos], cols, k)

    return _chunked(x_test, k, n, select)


def _gram_neighbors(x_train: np.ndarray, x_test: np.ndarray,
                    k: int) -> np.ndarray:
    """`_dense_neighbors` from a certified BLAS filter.

    With a' = fl(a - mean) and b' = fl(b - mean) for a training point a and
    a test point b, BLAS gives g = |a'|^2 - 2 a'.b' + |b'|^2, each entry of
    the product an inner product summed in any order. Let e be
    `_sq_distances`' value for (a, b), u the unit roundoff and
    gamma = (m+4)u / (1 - (m+4)u). Higham's inner-product bound
    |fl(x.y) - x.y| <= gamma_m |x|.|y| (Accuracy and Stability of Numerical
    Algorithms, ch. 3) puts g within gamma_(m+1) (|a'| + |b'|)^2 of
    |a' - b'|^2; the centring moves that from |a - b|^2 by at most
    (2u + 5u^2) (|a'| + |b'|)^2; and e's feature sum lies within
    gamma_(m+2) |a - b|^2 of it. So |g - e| <= 3 gamma (|a'| + |b'|)^2.
    The slack is 4 gamma (|a'| + |b'|)^2, which also covers the norms and
    the threshold being rounded, plus a floor for gradual underflow. If e
    is at most the column's k-th e, then g <= (k-th smallest g) + 2 slack,
    so every such pair is a candidate for `_first_k`. BLAS only chooses
    candidates, so the result does not depend on it.
    """
    m, n = x_train.shape
    mean = x_train.mean(axis=1, keepdims=True)
    a = x_train - mean
    # The per-column |b'|^2 does not reorder a column and is left out:
    # h = (g - |b'|^2) / 2 = |a'|^2/2 - a'.b', so the margin of 2 slack
    # becomes one slack.
    half_sq = np.einsum("ij,ij->j", a, a) / 2
    a_norm = np.sqrt(2 * half_sq.max())
    u = np.finfo(np.float64).eps / 2
    gamma = (m + 4) * u / (1 - (m + 4) * u)
    floor = 4 * (m + 4) * np.finfo(np.float64).smallest_subnormal

    def select(chunk: np.ndarray) -> np.ndarray:
        b = chunk - mean
        reach = (a_norm + np.sqrt(np.einsum("ij,ij->j", b, b))) ** 2
        if not np.all(np.isfinite(2 * reach)):
            return _dense(x_train, chunk, k)  # distances may overflow
        h = b.T @ a
        np.subtract(half_sq, h, out=h)
        cols, rows = _at_or_below_kth(h, k, 4 * gamma * reach + floor)
        return _first_k(x_train, chunk, rows, cols, k)

    return _chunked(x_test, k, n, select)


def _neighbors(x_train: np.ndarray, x_test: np.ndarray, k: int) -> np.ndarray:
    """(k, n_test) training indices of the k nearest neighbours of each test
    point (columns of x_test), ascending. Every path returns the same set."""
    if x_train.shape[1] < FAST_MIN_TRAIN:
        return _dense_neighbors(x_train, x_test, k)
    if x_train.shape[0] == 1:
        return _window_neighbors(x_train, x_test, k)
    return _gram_neighbors(x_train, x_test, k)


def _vote(neighbors: np.ndarray, labels: np.ndarray, c: int) -> np.ndarray:
    n = neighbors.shape[1]
    counts = np.bincount((labels[neighbors] * n + np.arange(n)).ravel(),
                         minlength=c * n).reshape(c, n)
    # argmax returns the first maximum: vote ties go to the smallest class.
    return np.argmax(counts, axis=0)


def _check_labeling(train: Dataset, train_labels: LabelSet, test: Dataset,
                    test_labels: LabelSet) -> None:
    if train_labels.n_samples != train.n_samples:
        raise LengthMismatch("train labels/sample count mismatch")
    if test_labels.n_samples != test.n_samples:
        raise LengthMismatch("test labels/sample count mismatch")
    if train_labels.class_count != test_labels.class_count:
        raise InputError(
            f"class counts differ: train {train_labels.class_count}, "
            f"test {test_labels.class_count}")
    if np.any(train_labels.counts() == 0):
        raise EmptyTrainClass("a training class has no samples")


def _report(test_labels: LabelSet, predictions: np.ndarray) -> AccuracyReport:
    c, n_test = test_labels.class_count, test_labels.n_samples
    confusion = np.bincount(test_labels.labels * c + predictions,
                            minlength=c * c).reshape(c, c)
    return AccuracyReport(accuracy=float(np.trace(confusion) / n_test),
                          confusion=confusion, n_test=n_test)


def train_eval(train: Dataset, train_labels: Sequence[LabelSet], test: Dataset,
               test_labels: Sequence[LabelSet],
               spec: ClassifierSpec) -> tuple[AccuracyReport, ...]:
    """Train on `train` and score `test` once per labeling.

    train_labels[i] and test_labels[i] label the same task (for a sweep:
    the utility task, then each privacy task); report i scores task i. KNN
    neighbours are found once and shared by every labeling, so a report
    equals the one a call with that labeling alone returns.
    """
    train_labels, test_labels = tuple(train_labels), tuple(test_labels)
    if train.n_features != test.n_features:
        raise DimensionMismatch(
            f"train has {train.n_features} features, test has {test.n_features}")
    if len(train_labels) != len(test_labels):
        raise LengthMismatch(
            f"{len(train_labels)} train labelings, {len(test_labels)} test "
            f"labelings")
    if not train_labels:
        raise InputError("train_eval needs at least one labeling")
    if spec.kind == "KNN" and spec.k_neighbors > train.n_samples:
        raise InputError(
            f"k_neighbors={spec.k_neighbors} exceeds {train.n_samples} "
            f"training samples")
    for tl, sl in zip(train_labels, test_labels):
        _check_labeling(train, tl, test, sl)

    if spec.kind == "KNN":
        neighbors = _neighbors(train.x, test.x, spec.k_neighbors)
        predictions = [_vote(neighbors, tl.labels, tl.class_count)
                       for tl in train_labels]
    else:
        # Training sample j is the mean of class j, so the nearest index is
        # the predicted class and both tie rules pick the smallest class.
        predictions = [_neighbors(class_means(train, tl), test.x, 1)[0]
                       for tl in train_labels]
    return tuple(_report(sl, p) for sl, p in zip(test_labels, predictions))
