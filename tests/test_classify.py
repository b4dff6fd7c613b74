import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import class_assignment
from privproj.classify import AccuracyReport, ClassifierSpec, train_eval
from privproj.data import Dataset, LabelSet
from privproj.errors import DimensionMismatch, InputError


def knn_brute_force(x_train, labels, c, x_test, k):
    """Reference implementation: per-point loops and explicit tie rules."""
    predictions = []
    for t in range(x_test.shape[1]):
        dist = [(float(np.sum((x_train[:, i] - x_test[:, t]) ** 2)), i)
                for i in range(x_train.shape[1])]
        dist.sort()  # ties resolved by the index in the tuple
        votes = [labels[i] for _, i in dist[:k]]
        counts = [votes.count(j) for j in range(c)]
        predictions.append(int(np.argmax(counts)))
    return np.array(predictions)


def centroid_brute_force(x_train, labels, c, x_test):
    """Reference implementation: per-point loops over the class means, the
    first (smallest) class winning a distance tie."""
    means = [x_train[:, labels == j].mean(axis=1) for j in range(c)]
    predictions = []
    for t in range(x_test.shape[1]):
        dist = [float(np.sum((means[j] - x_test[:, t]) ** 2)) for j in range(c)]
        predictions.append(dist.index(min(dist)))
    return np.array(predictions)


def generic_problem(seed, m=4, n_train=60, n_test=40, c=3):
    rng = np.random.default_rng(seed)
    train_labels = class_assignment(rng, n_train, c)
    test_labels = class_assignment(rng, n_test, c)
    means = 4.0 * rng.standard_normal((m, c))
    x_train = means[:, train_labels] + rng.standard_normal((m, n_train))
    x_test = means[:, test_labels] + rng.standard_normal((m, n_test))
    return (Dataset(x_train), LabelSet(train_labels, c),
            Dataset(x_test), LabelSet(test_labels, c))


def tie_problem(seed, m=2, n_pairs=10, n_test=40, c=3):
    """Small-integer data full of exact distance ties. Each class is
    symmetric about an integer centroid, so class means are exact, and
    integer test points are often equidistant from several centroids (and
    training points); two classes may even share a centroid."""
    rng = np.random.default_rng(seed)
    centroids = rng.integers(-1, 2, size=(m, c))
    offsets = rng.integers(-1, 2, size=(m, n_pairs))
    x_train = np.concatenate([centroids[:, [j]] + sign * offsets
                              for j in range(c) for sign in (1, -1)], axis=1)
    train_labels = np.repeat(np.arange(c), 2 * n_pairs)
    perm = rng.permutation(train_labels.size)
    x_test = rng.integers(-2, 3, size=(m, n_test))
    test_labels = rng.integers(0, c, n_test)
    return (Dataset(x_train[:, perm]), LabelSet(train_labels[perm], c),
            Dataset(x_test), LabelSet(test_labels, c))


class TestSpecs:
    def test_even_k_rejected(self):
        with pytest.raises(InputError):
            ClassifierSpec(kind="KNN", k_neighbors=4)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            ClassifierSpec(kind="SVM")

    def test_report_consistency_enforced(self):
        with pytest.raises(InputError):
            AccuracyReport(accuracy=0.5, confusion=np.array([[2, 0], [0, 2]]),
                           n_test=4)


class TestKnn:
    def test_self_test_k1_perfect(self):
        train, tl, _, _ = generic_problem(0)
        report = train_eval(train, tl, train, tl, ClassifierSpec("KNN", 1))
        assert report.accuracy == 1.0
        assert np.array_equal(np.diag(np.diag(report.confusion)), report.confusion)

    def test_distance_tie_prefers_lower_train_index(self):
        # Test point at 0 is exactly equidistant from -1 (index 0, class 1)
        # and +1 (index 1, class 0).
        train = Dataset(np.array([[-1.0, 1.0]]))
        tl = LabelSet(np.array([1, 0]), 2)
        test = Dataset(np.array([[0.0]]))
        report = train_eval(train, tl, test, LabelSet(np.array([1, 0]), 2).take([0]),
                            ClassifierSpec("KNN", 1))
        assert report.accuracy == 1.0  # predicted class 1 == test label 1

    def test_vote_tie_prefers_smallest_class(self):
        # Three equidistant neighbors, one of each class: tie -> class 0.
        train = Dataset(np.array([[1.0, -1.0, 0.0],
                                  [0.0, 0.0, 1.0]]))
        tl = LabelSet(np.array([2, 1, 0]), 3)
        test = Dataset(np.array([[0.0], [0.0]]))
        for true_label, expected_hit in [(0, True), (1, False)]:
            labels = np.array([true_label])
            test_l = LabelSet(np.concatenate([labels, [0, 1, 2]]), 3).take([0])
            report = train_eval(train, tl, test, test_l, ClassifierSpec("KNN", 3))
            assert (report.accuracy == 1.0) is expected_hit

    def test_k_exceeding_train_size_rejected(self):
        train, tl, test, sl = generic_problem(1, n_train=5)
        with pytest.raises(InputError):
            train_eval(train, tl, test, sl, ClassifierSpec("KNN", 7))

    @given(st.integers(0, 10_000), st.sampled_from([1, 3, 5]),
           st.sampled_from(["KNN", "NEAREST_CENTROID"]),
           st.sampled_from([generic_problem, tie_problem]))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force(self, seed, k, kind, problem):
        train, tl, test, sl = problem(seed)
        report = train_eval(train, tl, test, sl, ClassifierSpec(kind, k))
        if kind == "KNN":
            want = knn_brute_force(train.x, tl.labels, tl.class_count, test.x, k)
        else:
            want = centroid_brute_force(train.x, tl.labels, tl.class_count, test.x)
        got_correct = int(np.trace(report.confusion))
        assert got_correct == int(np.sum(want == sl.labels))
        row_sums = report.confusion.sum(axis=1)
        assert np.array_equal(row_sums, sl.counts())
        want_confusion = np.zeros_like(report.confusion)
        np.add.at(want_confusion, (sl.labels, want), 1)
        assert np.array_equal(report.confusion, want_confusion)


class TestNearestCentroid:
    def test_separated_centroids(self):
        train = Dataset(np.array([[1.0, 1.2, -1.0, -1.2]]))
        tl = LabelSet(np.array([0, 0, 1, 1]), 2)
        test = Dataset(np.array([[2.0, -2.0]]))
        report = train_eval(train, tl, test, LabelSet(np.array([0, 1]), 2),
                            ClassifierSpec("NEAREST_CENTROID"))
        assert report.accuracy == 1.0

    def test_tie_prefers_smallest_class(self):
        train = Dataset(np.array([[-1.0, 1.0]]))
        tl = LabelSet(np.array([0, 1]), 2)
        test = Dataset(np.array([[0.0]]))  # equidistant from both centroids
        report = train_eval(train, tl, test, LabelSet(np.array([0, 1]), 2).take([0]),
                            ClassifierSpec("NEAREST_CENTROID"))
        assert report.accuracy == 1.0  # predicted 0, true 0


class TestInvariances:
    def test_repeat_runs_bit_identical(self):
        train, tl, test, sl = generic_problem(2)
        spec = ClassifierSpec("KNN", 5)
        a = train_eval(train, tl, test, sl, spec)
        b = train_eval(train, tl, test, sl, spec)
        assert a.accuracy == b.accuracy
        assert np.array_equal(a.confusion, b.confusion)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_train_permutation_invariance(self, seed):
        # Generic continuous data has no exact distance ties, so shuffling
        # the training set cannot change any prediction.
        train, tl, test, sl = generic_problem(seed)
        perm = np.random.default_rng(seed + 1).permutation(train.n_samples)
        spec = ClassifierSpec("KNN", 5)
        a = train_eval(train, tl, test, sl, spec)
        b = train_eval(train.take(perm), tl.take(perm), test, sl, spec)
        assert np.array_equal(a.confusion, b.confusion)

    @given(st.integers(0, 10_000), st.sampled_from(["KNN", "NEAREST_CENTROID"]))
    @settings(max_examples=20, deadline=None)
    def test_rotation_invariance(self, seed, kind):
        train, tl, test, sl = generic_problem(seed, m=5)
        rng = np.random.default_rng(seed + 7)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        spec = ClassifierSpec(kind, 5)
        base = train_eval(train, tl, test, sl, spec)
        rotated = train_eval(Dataset(q @ train.x), tl, Dataset(q @ test.x), sl, spec)
        assert base.accuracy == rotated.accuracy

    def test_dim_mismatch(self):
        train, tl, test, sl = generic_problem(3)
        with pytest.raises(DimensionMismatch):
            train_eval(train, tl, Dataset(np.zeros((9, 4))),
                       LabelSet(np.array([0, 1, 0, 1]), 3), ClassifierSpec())
