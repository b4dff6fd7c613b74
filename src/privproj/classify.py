"""Deterministic classifiers for measuring accuracy on projected data.

Both classifiers are distance-based and fully tie-broken, so repeated runs
are bit-identical and results do not depend on evaluation order:

  KNN              majority vote among the k nearest training samples
                   (Euclidean); equal distances prefer the lower training
                   index, vote ties prefer the smallest class id.
  NEAREST_CENTROID 1-NN over the class means, with class j's mean as
                   training sample j; the KNN tie rules then make equal
                   distances prefer the smallest class id.

Distances are computed as explicit (train - test)^2 sums over feature
blocks — not via a matrix-product expansion — so results are independent
of BLAS blocking/threading.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, LabelSet
from .errors import DimensionMismatch, EmptyTrainClass, InputError, LengthMismatch
from .scatter import class_means

__all__ = ["ClassifierSpec", "AccuracyReport", "train_eval"]

KINDS = ("KNN", "NEAREST_CENTROID")

#: Test columns are processed in chunks capped at roughly this many doubles.
CHUNK_BUDGET = 4_000_000


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


def _chunk_size(m: int, n_train: int) -> int:
    return max(1, CHUNK_BUDGET // max(m * n_train, 1))


def _predict_knn(x_train: np.ndarray, labels: np.ndarray, c: int,
                 x_test: np.ndarray, k: int) -> np.ndarray:
    predictions = np.empty(x_test.shape[1], dtype=np.int64)
    step = _chunk_size(x_train.shape[0], x_train.shape[1])
    for start in range(0, x_test.shape[1], step):
        chunk = x_test[:, start:start + step]
        dist = _sq_distances(x_train, chunk)
        # Stable ascending sort: equal distances keep the lower train index.
        neighbors = np.argsort(dist, axis=0, kind="stable")[:k]
        votes = labels[neighbors]
        counts = np.zeros((c, chunk.shape[1]), dtype=np.int64)
        cols = np.arange(chunk.shape[1])
        for row in votes:
            counts[row, cols] += 1
        # argmax returns the first maximum: vote ties go to the smallest class.
        predictions[start:start + step] = np.argmax(counts, axis=0)
    return predictions


def train_eval(train: Dataset, train_labels: LabelSet, test: Dataset,
               test_labels: LabelSet, spec: ClassifierSpec) -> AccuracyReport:
    if train.n_features != test.n_features:
        raise DimensionMismatch(
            f"train has {train.n_features} features, test has {test.n_features}")
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

    c = train_labels.class_count
    if spec.kind == "KNN":
        if spec.k_neighbors > train.n_samples:
            raise InputError(
                f"k_neighbors={spec.k_neighbors} exceeds {train.n_samples} "
                f"training samples")
        predictions = _predict_knn(train.x, train_labels.labels, c, test.x,
                                   spec.k_neighbors)
    else:
        # Training sample j is the mean of class j, so both tie rules pick
        # the smallest class.
        predictions = _predict_knn(class_means(train, train_labels),
                                   np.arange(c), c, test.x, 1)

    confusion = np.zeros((c, c), dtype=np.int64)
    np.add.at(confusion, (test_labels.labels, predictions), 1)
    return AccuracyReport(accuracy=float(np.trace(confusion) / test.n_samples),
                          confusion=confusion, n_test=test.n_samples)
