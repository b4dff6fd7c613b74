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
(train - test)^2 sums over features of `_sq_distances`, and one size rule
picks how that set is found:

  dense   fewer than FAST_MIN_TRAIN training samples (so nearest-centroid
          always): the whole (n_train, n_chunk) block, selected with
          `np.partition` at the k-th distance, or `argmin` when k=1.
  window  1-D data: training values sorted once by (value, index); each
          test point's k nearest lie among the 2k sorted values around its
          `searchsorted` position. A column whose k-th-distance ties reach
          the window's edge takes the dense block.
  Gram    wider data: one BLAS product per chunk of |a|^2 - 2a.b + |b|^2,
          on data centred on the training mean, with a proven bound on its
          distance from the explicit sums. Only the candidates the bound
          cannot exclude get their explicit sums, and the selection runs on
          those.

BLAS only chooses candidates and never decides a distance or a tie, so
neighbour sets are the same on any BLAS build and at any thread count. Test
points are processed in chunks whose (n_train, n_chunk) block holds at most
DISTANCE_BLOCK doubles.
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

#: Most doubles in one (n_train, n_chunk) distance block; the partition
#: copies the block once more.
DISTANCE_BLOCK = 1 << 18
#: Training sets at least this large take a fast path (1-D: the sorted
#: window; wider: the Gram filter); smaller ones the dense block. Measured
#: crossovers (2 vCPUs, 2030 test points, k=5): window about 48, Gram from
#: about 32 (m=29) to 110 (m=2). Nearest-centroid (one point per class)
#: stays dense.
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
    """(n_train, n_chunk) squared Euclidean distances, blocked over features."""
    n_train, n_chunk = train.shape[1], test_chunk.shape[1]
    out = np.zeros((n_train, n_chunk))
    for row in range(train.shape[0]):
        out += (train[row][:, None] - test_chunk[row][None, :]) ** 2
    return out


def _select(dist: np.ndarray, k: int) -> np.ndarray:
    """(k, n_chunk) row indices of the k smallest entries of each column,
    ascending: every entry below the column's k-th smallest value, then
    entries equal to it, lowest row first."""
    if k == 1:
        return dist.argmin(axis=0)[None]  # the first of equal minima
    kth = np.partition(dist, k - 1, axis=0)[k - 1]
    keep = dist <= kth
    # More than k entries at or below the k-th value: ties straddle it, and
    # only these columns need the lowest-index fill.
    tied_cols = np.flatnonzero(np.count_nonzero(keep, axis=0) > k)
    if tied_cols.size:
        sub, sub_kth = dist[:, tied_cols], kth[tied_cols]
        tied = sub == sub_kth
        places = k - np.count_nonzero(sub < sub_kth, axis=0)
        keep[:, tied_cols] &= ~tied | (np.cumsum(tied, axis=0) <= places)
    return np.nonzero(keep.T)[1].reshape(-1, k).T


def _dense(x_train: np.ndarray, test_chunk: np.ndarray, k: int) -> np.ndarray:
    return _select(_sq_distances(x_train, test_chunk), k)


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
    """`_dense_neighbors` for 1-D data, from a window of sorted values.

    Rounding is monotone, so along the sorted training values the computed
    distances fall up to a test point's insertion position and rise after
    it: the k nearest lie among the 2k sorted values around it. Within that
    window, ordered by training index, `_select` keeps the same set as on
    the whole block unless the points at the k-th distance reach a window
    edge that is not an end of the data; points past it may tie too, so
    such columns take the dense block.
    """
    values = x_train[0]
    n = values.size
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    width = min(2 * k, n)

    def select(chunk: np.ndarray) -> np.ndarray:
        t = chunk[0]
        first = np.clip(np.searchsorted(ordered, t) - k, 0, n - width)
        last = first + width - 1
        pos = first + np.arange(width)[:, None]
        pos = np.take_along_axis(pos, np.argsort(order[pos], axis=0), axis=0)
        dist = (ordered[pos] - t) ** 2
        picked = _select(dist, k)
        kth = np.take_along_axis(dist, picked, axis=0).max(axis=0)
        open_edge = (((first > 0) & ((ordered[first] - t) ** 2 == kth))
                     | ((last < n - 1) & ((ordered[last] - t) ** 2 == kth)))
        neighbors = order[np.take_along_axis(pos, picked, axis=0)]
        cols = np.flatnonzero(open_edge)
        if cols.size:
            neighbors[:, cols] = _dense(x_train, chunk[:, cols], k)
        return neighbors

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
    so every such pair is a candidate. Candidates get e recomputed feature
    by feature in `_sq_distances`' order, bit for bit, and the first k by
    (e, training index) are the neighbours. BLAS only chooses candidates,
    so the result does not depend on it.
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
        limit = (np.partition(h, k - 1, axis=1)[:, k - 1]
                 + 4 * gamma * reach + floor)
        cols, rows = np.nonzero(h <= limit[:, None])
        dist = np.zeros(rows.size)
        for row in range(m):
            dist += (x_train[row, rows] - chunk[row, cols]) ** 2
        # Rows ascend within each column, and the stable sort by (column,
        # distance rank) keeps that order among equal distances.
        _, rank = np.unique(dist, return_inverse=True)
        by_col = np.argsort(cols * rank.size + rank, kind="stable")
        counts = np.bincount(cols, minlength=chunk.shape[1])
        first = np.cumsum(counts) - counts
        return np.sort(rows[by_col[first + np.arange(k)[:, None]]], axis=0)

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
    counts = np.zeros((c, neighbors.shape[1]), dtype=np.int64)
    cols = np.arange(neighbors.shape[1])
    for row in labels[neighbors]:
        counts[row, cols] += 1
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
    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (test_labels.labels, predictions), 1)
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
