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

Neighbours are selected with `np.partition` at the k-th smallest distance:
every training sample strictly closer is kept, and the places left go to
the samples at exactly the k-th distance, lowest training index first. That
is the set the first k entries of a stable ascending sort hold, so both tie
rules are those of a full sort.

Distances are computed as explicit (train - test)^2 sums over features —
not via a matrix-product expansion — so results are independent of BLAS
blocking/threading. Test points are processed in chunks whose
(n_train, n_chunk) distance block holds at most DISTANCE_BLOCK doubles.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .data import Dataset, LabelSet
from .errors import DimensionMismatch, EmptyTrainClass, InputError, LengthMismatch
from .scatter import class_means

__all__ = ["ClassifierSpec", "AccuracyReport", "train_eval"]

KINDS = ("KNN", "NEAREST_CENTROID")

#: Most doubles in one (n_train, n_chunk) distance block; the partition
#: copies the block once more.
DISTANCE_BLOCK = 1 << 18


@dataclass(frozen=True)
class ClassifierSpec:
    kind: str = "KNN"
    k_neighbors: int = 5

    def __post_init__(self):
        if self.kind not in KINDS:
            raise InputError(f"unknown classifier kind {self.kind!r}; expected {KINDS}")
        k = self.k_neighbors
        if int(k) != k or k < 1 or k % 2 == 0:
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


def _chunk_size(n_train: int) -> int:
    return max(1, DISTANCE_BLOCK // n_train)


def _select(dist: np.ndarray, k: int) -> np.ndarray:
    """(k, n_chunk) row indices of the k smallest entries of each column,
    ascending: every entry below the column's k-th smallest value, then
    entries equal to it, lowest row first."""
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


def _neighbors(x_train: np.ndarray, x_test: np.ndarray, k: int) -> np.ndarray:
    """(k, n_test) training indices of the k nearest neighbours of each test
    point (columns of x_test)."""
    neighbors = np.empty((k, x_test.shape[1]), dtype=np.intp)
    step = _chunk_size(x_train.shape[1])
    for start in range(0, x_test.shape[1], step):
        dist = _sq_distances(x_train, x_test[:, start:start + step])
        neighbors[:, start:start + step] = _select(dist, k)
    return neighbors


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
