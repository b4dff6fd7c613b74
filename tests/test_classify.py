import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import census_shaped, class_assignment
from privproj import classify
from privproj.classify import AccuracyReport, ClassifierSpec, train_eval
from privproj.data import Dataset, LabelSet
from privproj.errors import (DimensionMismatch, EmptyTrainClass, InputError,
                             LengthMismatch)


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


def argsort_neighbors(x_train, x_test, k):
    """Reference selection: the first k rows of a stable ascending argsort of
    the whole (n_train, n_test) distance matrix, so equal distances keep the
    lower training index. Returned sorted by index within each column."""
    dist = classify._sq_distances(x_train, x_test)
    return np.sort(np.argsort(dist, axis=0, kind="stable")[:k], axis=0)


def vote_reference(neighbors, labels, c):
    """Majority class of each column of neighbour indices, the smallest
    class winning a vote tie."""
    return np.array([int(np.argmax(np.bincount(labels[col], minlength=c)))
                     for col in neighbors.T])


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


def bits_problem(seed, m=5, n_train=45, n_test=40, c=2):
    """0/1 features like the bit-encoded census columns: squared distances
    are Hamming distances 0..m, so ties straddle the k-th distance."""
    rng = np.random.default_rng(seed)
    return (Dataset(rng.integers(0, 2, size=(m, n_train))),
            LabelSet(class_assignment(rng, n_train, c), c),
            Dataset(rng.integers(0, 2, size=(m, n_test))),
            LabelSet(rng.integers(0, c, n_test), c))


def rank_deficient_problem(seed, m=4, n_distinct=10, n_train=30, n_test=30,
                           c=3):
    """Training columns drawn with repetition from a few distinct points and
    a constant first feature: rank-deficient data whose copies tie exactly
    (and may carry different labels)."""
    rng = np.random.default_rng(seed)
    distinct = rng.integers(-2, 3, size=(m, n_distinct)).astype(float)
    x_train = distinct[:, rng.integers(0, n_distinct, n_train)]
    x_test = rng.integers(-2, 3, size=(m, n_test)).astype(float)
    x_train[0], x_test[0] = 1.5, 1.5
    return (Dataset(x_train), LabelSet(class_assignment(rng, n_train, c), c),
            Dataset(x_test), LabelSet(rng.integers(0, c, n_test), c))


#: (search function, feature count) pairs for the fast-path tests; None
#: keeps the generator's own width.
FAST_PATHS = [("_window_neighbors", 1), ("_gram_neighbors", None),
              ("_gram_neighbors", 1)]


#: Partition slices the searches are checked at, in rows of the distance
#: block: a slice per row, slices that split the test problems at several
#: places, and the shipped PARTITION_SLICE (None).
SLICE_ROWS = [1, 2, 3, None]

#: Every search, with the feature count it is called at (None keeps the
#: generator's own width).
SEARCHES = [("_dense_neighbors", None), *FAST_PATHS]


def sliced(mp, slice_rows, n_train):
    """Patch PARTITION_SLICE to slice_rows rows of n_train doubles."""
    if slice_rows is not None:
        mp.setattr(classify, "PARTITION_SLICE", slice_rows * n_train)


def plain_sq_distances(x_train, x_test):
    """Reference distance block: (train - test) ** 2 summed over features,
    one whole-block temporary per feature."""
    out = np.zeros((x_train.shape[1], x_test.shape[1]))
    for row in range(x_train.shape[0]):
        out += (x_train[row][:, None] - x_test[row][None, :]) ** 2
    return out


def confusion_of(test_labels, predictions):
    confusion = np.zeros((test_labels.class_count,) * 2, dtype=np.int64)
    np.add.at(confusion, (test_labels.labels, predictions), 1)
    return confusion


def vote_loop(neighbors, labels, c):
    """Votes counted one neighbour rank (row) at a time, then the first
    maximum of each column."""
    counts = np.zeros((c, neighbors.shape[1]), dtype=np.int64)
    cols = np.arange(neighbors.shape[1])
    for row in labels[neighbors]:
        counts[row, cols] += 1
    return np.argmax(counts, axis=0)


def split_votes(seed, c, n_train=60, n_test=400, k=5):
    """(neighbors, train labels): the k = 5 neighbours of every other test
    point split their votes 2-2-1 over three random classes, in random rank
    order; the rest are random neighbour sets."""
    rng = np.random.default_rng(seed)
    labels = class_assignment(rng, n_train, c)
    neighbors = rng.integers(0, n_train, size=(k, n_test))
    by_class = [np.flatnonzero(labels == j) for j in range(c)]
    for t in range(0, n_test, 2):
        a, b, d = rng.choice(c, 3, replace=False)
        picks = [rng.choice(by_class[j], n) for j, n in ((a, 2), (b, 2), (d, 1))]
        neighbors[:, t] = rng.permutation(np.concatenate(picks))
    return neighbors, labels


def searches_taken(train, tl, test, sl, spec):
    """Names of the neighbour searches `train_eval` calls, in call order."""
    taken = []

    def spy(name):
        search = getattr(classify, name)

        def recorded(*args):
            taken.append(name)
            return search(*args)
        return recorded

    with pytest.MonkeyPatch.context() as mp:
        for name in ("_dense_neighbors", "_window_neighbors",
                     "_gram_neighbors"):
            mp.setattr(classify, name, spy(name))
        train_eval(train, (tl,), test, (sl,), spec)
    return taken


class TestSpecs:
    def test_even_k_rejected(self):
        with pytest.raises(InputError):
            ClassifierSpec(kind="KNN", k_neighbors=4)

    @pytest.mark.parametrize("k", [float("nan"), float("inf"), None, True])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(InputError):
            ClassifierSpec(kind="KNN", k_neighbors=k)

    def test_unknown_kind_rejected(self):
        with pytest.raises(InputError):
            ClassifierSpec(kind="SVM")

    def test_report_consistency_enforced(self):
        with pytest.raises(InputError):
            AccuracyReport(accuracy=0.5, confusion=np.array([[2, 0], [0, 2]]),
                           n_test=4)


class TestVoteAndConfusion:
    """The bincount forms of `_vote` and `_report` against the loop forms."""

    @pytest.mark.parametrize("c", [3, 4, 7])
    def test_split_votes_match_the_loop_forms(self, c):
        neighbors, labels = split_votes(c, c)
        got = classify._vote(neighbors, labels, c)
        assert np.array_equal(got, vote_loop(neighbors, labels, c))
        assert np.array_equal(got, vote_reference(neighbors, labels, c))
        # A 2-2-1 split goes to the smaller of the two classes with 2 votes.
        counts = np.stack([np.bincount(labels[col], minlength=c)
                           for col in neighbors[:, ::2].T])
        assert np.all(np.sort(counts, axis=1)[:, -2:] == 2)
        assert np.array_equal(got[::2], np.argmax(counts == 2, axis=1))
        truth = LabelSet(np.random.default_rng(c).integers(0, c, got.size), c)
        report = classify._report(truth, got)
        assert np.array_equal(report.confusion, confusion_of(truth, got))
        assert report.confusion.dtype == np.int64


class TestKnn:
    def test_self_test_k1_perfect(self):
        train, tl, _, _ = generic_problem(0)
        report, = train_eval(train, (tl,), train, (tl,), ClassifierSpec("KNN", 1))
        assert report.accuracy == 1.0
        assert np.array_equal(np.diag(np.diag(report.confusion)), report.confusion)

    def test_distance_tie_prefers_lower_train_index(self):
        # Test point at 0 is exactly equidistant from -1 (index 0, class 1)
        # and +1 (index 1, class 0).
        train = Dataset(np.array([[-1.0, 1.0]]))
        tl = LabelSet(np.array([1, 0]), 2)
        test = Dataset(np.array([[0.0]]))
        report, = train_eval(train, (tl,), test,
                             (LabelSet(np.array([1, 0]), 2).take([0]),),
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
            report, = train_eval(train, (tl,), test, (test_l,),
                                 ClassifierSpec("KNN", 3))
            assert (report.accuracy == 1.0) is expected_hit

    def test_k_exceeding_train_size_rejected(self):
        train, tl, test, sl = generic_problem(1, n_train=5)
        with pytest.raises(InputError):
            train_eval(train, (tl,), test, (sl,), ClassifierSpec("KNN", 7))

    @given(st.integers(0, 10_000), st.sampled_from([1, 3, 5]),
           st.sampled_from(["KNN", "NEAREST_CENTROID"]),
           st.sampled_from([generic_problem, tie_problem]))
    @settings(max_examples=50, deadline=None)
    def test_matches_brute_force(self, seed, k, kind, problem):
        train, tl, test, sl = problem(seed)
        report, = train_eval(train, (tl,), test, (sl,), ClassifierSpec(kind, k))
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


class TestNeighborSelection:
    """The partial selection against the full stable argsort it replaces."""

    @given(st.integers(0, 10_000), st.sampled_from([1, 3, 5, 7]),
           st.sampled_from([generic_problem, tie_problem, bits_problem,
                            rank_deficient_problem]),
           st.sampled_from([None, 1, 7]))
    @settings(max_examples=80, deadline=None)
    def test_matches_stable_argsort(self, seed, k, problem, chunk_columns):
        train, tl, test, sl = problem(seed)
        with pytest.MonkeyPatch.context() as mp:
            if chunk_columns is not None:
                # Chunks of a few test points, the last one partial.
                mp.setattr(classify, "DISTANCE_BLOCK",
                           chunk_columns * train.n_samples)
            got = classify._neighbors(train.x, test.x, k)
            report, = train_eval(train, (tl,), test, (sl,),
                                 ClassifierSpec("KNN", k))
        want = argsort_neighbors(train.x, test.x, k)
        assert np.array_equal(got, want)
        want_predictions = vote_reference(want, tl.labels, tl.class_count)
        assert np.array_equal(report.confusion,
                              confusion_of(sl, want_predictions))

    @pytest.mark.parametrize("search, m", FAST_PATHS)
    @given(st.integers(0, 10_000), st.sampled_from([1, 3, 5, 7]),
           st.sampled_from([generic_problem, tie_problem, bits_problem,
                            rank_deficient_problem]),
           st.sampled_from([None, 1, 7]))
    @settings(max_examples=60, deadline=None)
    def test_fast_path_matches_stable_argsort(self, search, m, seed, k,
                                              problem, chunk_columns):
        # Each search is called directly, so the Gram filter is checked on
        # 1-D data too, which `_neighbors` sends to the window.
        train, _, test, _ = problem(seed) if m is None else problem(seed, m=m)
        with pytest.MonkeyPatch.context() as mp:
            if chunk_columns is not None:
                mp.setattr(classify, "DISTANCE_BLOCK",
                           chunk_columns * train.n_samples)
            got = getattr(classify, search)(train.x, test.x, k)
        assert np.array_equal(got, argsort_neighbors(train.x, test.x, k))

    @pytest.mark.parametrize("slice_rows", SLICE_ROWS)
    @pytest.mark.parametrize("search, m", SEARCHES)
    @given(st.integers(0, 10_000), st.sampled_from([1, 3, 5, 7]),
           st.sampled_from([bits_problem, rank_deficient_problem]),
           st.sampled_from([None, 7]))
    @settings(max_examples=25, deadline=None)
    def test_partition_slices_match_stable_argsort(self, slice_rows, search, m,
                                                   seed, k, problem,
                                                   chunk_columns):
        # Tie-heavy 0/1 bits and constant-column data. 67 training and 41
        # test points are multiples of neither 2 nor 3, so slices of the
        # block and of the distance sums end part-way at every size.
        width = {} if m is None else {"m": m}
        train, _, test, _ = problem(seed, n_train=67, n_test=41, **width)
        with pytest.MonkeyPatch.context() as mp:
            sliced(mp, slice_rows, train.n_samples)
            if chunk_columns is not None:
                mp.setattr(classify, "DISTANCE_BLOCK",
                           chunk_columns * train.n_samples)
            got = getattr(classify, search)(train.x, test.x, k)
        assert np.array_equal(got, argsort_neighbors(train.x, test.x, k))

    @pytest.mark.parametrize("slice_rows", SLICE_ROWS)
    def test_sq_distances_match_the_plain_sum(self, slice_rows):
        rng = np.random.default_rng(0)
        for m, n_train, n_test in [(1, 67, 41), (5, 41, 67), (29, 7, 3)]:
            x_train = rng.standard_normal((m, n_train)) * 10.0 ** rng.integers(
                -150, 150, (m, 1))
            x_test = rng.standard_normal((m, n_test)) * 10.0 ** rng.integers(
                -150, 150, (m, 1))
            with pytest.MonkeyPatch.context() as mp:
                sliced(mp, slice_rows, n_test)
                got = classify._sq_distances(x_train, x_test)
            assert np.array_equal(got, plain_sq_distances(x_train, x_test))

    def test_census_gram_search_holds_one_block(self):
        # The FULL baseline of the census sweep: 360 training points and
        # 29 features. Beyond its h block a search may hold one partition
        # slice, the centred test chunk and the candidates, not a second
        # block.
        rng = np.random.default_rng(0)
        x_train, x_test = census_shaped(rng, 360), census_shaped(rng, 1740)
        block = classify.DISTANCE_BLOCK // 360 * 360 * 8
        classify._gram_neighbors(x_train, x_test, 5)
        tracemalloc.start()
        try:
            got = classify._gram_neighbors(x_train, x_test, 5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * block
        assert np.array_equal(got, argsort_neighbors(x_train, x_test, 5))

    def test_window_reaches_ties_past_its_edge(self):
        # Guards the 1-D inputs above: duplicate 1-D bits tie far beyond the
        # 2k values around each test point, so the window must hand on more
        # candidates than those.
        widest = []
        first_k = classify._first_k

        def spy(x_train, chunk, rows, cols, k):
            widest.append(np.bincount(cols).max())
            return first_k(x_train, chunk, rows, cols, k)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(classify, "_first_k", spy)
            for seed in range(5):
                train, _, test, _ = bits_problem(seed, m=1)
                got = classify._window_neighbors(train.x, test.x, 5)
                assert np.array_equal(got, argsort_neighbors(train.x, test.x, 5))
        assert max(widest) > 2 * 5

    def test_window_takes_the_lowest_indices_of_a_tied_run(self):
        # Ten training values, -1 at indices 0-4 and +1 at 5-9. The test
        # point 0 sorts between the runs, so the 2k = 6 values around it are
        # indices 2-7, while the first three by (distance, index) are 0-2.
        # At 0.5 the +1 run is nearer, and its lowest indices are 5-7.
        train = np.repeat([-1.0, 1.0], 5)[None]
        test = np.array([[0.0, 0.5]])
        assert np.array_equal(classify._window_neighbors(train, test, 3),
                              [[0, 5], [1, 6], [2, 7]])
        assert np.array_equal(classify._window_neighbors(train, test, 1),
                              [[0, 5]])

    def test_window_radius_covers_a_difference_rounded_down(self):
        # fl(1e-17 - (-1)) = 1 and fl(-2 - (-1)) = -1: both training values
        # lie at distance 1 from -1, and index 0 wins the tie, although
        # 1e-17 lies past -1 + sqrt(1) = 0. The radius's factor 1 + 8 eps
        # reaches it.
        train = np.array([[1e-17, -2.0]])
        test = np.array([[-1.0]])
        assert np.array_equal(classify._window_neighbors(train, test, 1), [[0]])
        assert np.array_equal(argsort_neighbors(train, test, 1), [[0]])

    @pytest.mark.parametrize("search, m", FAST_PATHS)
    @pytest.mark.parametrize("shift, scale", [(1e8, 1.0), (0.0, 1e-160),
                                              (0.0, 1e200)])
    def test_fast_path_at_extreme_magnitudes(self, search, m, shift, scale):
        # Features around 1e8 plus small-integer or unit noise: without the
        # centring the Gram expansion would cancel away the distances. Tiny
        # features round their squares in the subnormal range, and huge
        # ones overflow them to inf, where the Gram filter takes the dense
        # block (the dense block overflows alike, and numpy warns).
        for seed in range(4):
            for problem in (generic_problem, tie_problem):
                train, _, test, _ = (problem(seed) if m is None
                                     else problem(seed, m=m))
                x_train = shift + scale * train.x
                x_test = shift + scale * test.x
                for k in (1, 5):
                    with np.errstate(over="ignore"):
                        got = getattr(classify, search)(x_train, x_test, k)
                        want = argsort_neighbors(x_train, x_test, k)
                    assert np.array_equal(got, want)

    def test_gram_filter_on_wide_data(self):
        # Wide enough for BLAS to split the product across threads where it
        # may; CI also runs this file with OPENBLAS_NUM_THREADS=2.
        for problem in (generic_problem, bits_problem):
            train, _, test, _ = problem(0, m=256, n_train=300, n_test=200)
            for k in (1, 5):
                assert np.array_equal(
                    classify._gram_neighbors(train.x, test.x, k),
                    argsort_neighbors(train.x, test.x, k))

    def test_k_equal_to_n_train(self):
        searches = [(classify._neighbors, None)] + [
            (getattr(classify, search), m) for search, m in FAST_PATHS]
        for seed in range(10):
            for problem in (bits_problem, rank_deficient_problem):
                for search, m in searches:
                    width = {} if m is None else {"m": m}
                    train, _, test, _ = problem(seed, n_train=9, **width)
                    # n_train < 2k, then k = n_train.
                    for k in (7, 9):
                        assert np.array_equal(
                            search(train.x, test.x, k),
                            argsort_neighbors(train.x, test.x, k))
                train, tl, test, sl = problem(seed, n_train=9)
                report, = train_eval(train, (tl,), test, (sl,),
                                     ClassifierSpec("KNN", 9))
                majority = int(np.argmax(tl.counts()))
                assert np.array_equal(
                    report.confusion,
                    confusion_of(sl, np.full(sl.n_samples, majority)))

    @pytest.mark.parametrize("problem", [generic_problem, tie_problem,
                                         bits_problem, rank_deficient_problem])
    def test_generators_reach_the_fast_paths(self, problem):
        # Guards the inputs above: at their 30-60 training points KNN takes
        # the window on 1-D variants and the Gram filter at the generators'
        # own widths, so the checks above cover the searches these sizes
        # take, not the dense reference alone.
        spec = ClassifierSpec("KNN", 5)
        assert searches_taken(*problem(0, m=1), spec) == ["_window_neighbors"]
        assert searches_taken(*problem(0), spec) == ["_gram_neighbors"]

    def test_two_features_k1_ties_match_stable_argsort(self):
        # 2-D small-integer data at 12-60 training points: the Gram filter
        # with k = 1 must keep the lowest index of every tied nearest run.
        tied = 0
        for seed in range(10):
            for n_pairs in (2, 5, 10):
                train, _, test, _ = tie_problem(seed, n_pairs=n_pairs)
                got = classify._neighbors(train.x, test.x, 1)
                assert np.array_equal(got,
                                      argsort_neighbors(train.x, test.x, 1))
                dist = classify._sq_distances(train.x, test.x)
                tied += int(np.sum(np.count_nonzero(dist == dist.min(axis=0),
                                                    axis=0) > 1))
        assert tied > 0

    def test_tie_heavy_problems_straddle_the_kth_distance(self):
        # Guards the inputs above: they must reach the lowest-index fill.
        for problem in (tie_problem, bits_problem, rank_deficient_problem):
            straddled = 0
            for seed in range(5):
                train, _, test, _ = problem(seed)
                dist = classify._sq_distances(train.x, test.x)
                kth = np.sort(dist, axis=0)[4]
                straddled += int(np.sum(np.count_nonzero(dist <= kth, axis=0) > 5))
            assert straddled > 0, problem.__name__


def exact_columns_data(rng, m):
    """Census-shaped (x_train, x_test), 360 and 1740 points: the 29-feature
    FULL baseline, or at m = 1 its projection on a random direction. The
    distances are distinct, so each column has exactly k candidates."""
    x_train, x_test = census_shaped(rng, 360), census_shaped(rng, 1740)
    if m == 1:
        w = rng.standard_normal((1, 29))
        return w @ x_train, w @ x_test
    return x_train, x_test


def mixed_columns_data(rng, m):
    """Every feature a sum of 29 random bits, 360 and 1740 points: the
    tie-heavy 1-D data at m = 1, where most columns have more than k
    candidates and some exactly k."""
    def bit_sums(n):
        return rng.integers(0, 2, size=(m, 29, n)).sum(axis=1).astype(float)
    return bit_sums(360), bit_sums(1740)


def open_columns_data(rng, m):
    """Constant training values: all 360 training points tie in every
    column."""
    return np.full((m, 360), 0.5), rng.standard_normal((m, 1740))


#: Every search that hands candidates to `_first_k`, with the feature count
#: it is checked at.
RUN_SEARCHES = [("_window_neighbors", 1), ("_gram_neighbors", 1),
                ("_gram_neighbors", 29), ("_dense_neighbors", 1),
                ("_dense_neighbors", 29)]


def column_counts(search, x_train, x_test, k):
    """(neighbours, candidates per column as `_first_k` received them,
    candidates per run as `_rank_runs` received them), over all chunks."""
    received, ranked = [], []
    first_k, rank_runs = classify._first_k, classify._rank_runs

    def first_k_spy(x_train, chunk, rows, cols, k):
        received.append(np.bincount(cols, minlength=chunk.shape[1]))
        return first_k(x_train, chunk, rows, cols, k)

    def rank_runs_spy(x_train, chunk, rows, cols, counts, k):
        ranked.append(counts)
        return rank_runs(x_train, chunk, rows, cols, counts, k)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "_first_k", first_k_spy)
        mp.setattr(classify, "_rank_runs", rank_runs_spy)
        got = getattr(classify, search)(x_train, x_test, k)
    return (got, np.concatenate(received),
            np.concatenate(ranked) if ranked else np.zeros(0, np.intp))


class TestExactColumns:
    """`_first_k` takes a column with exactly k candidates as found and
    ranks only the open columns, those with more."""

    @pytest.mark.parametrize("search, m", RUN_SEARCHES)
    @pytest.mark.parametrize("data, exact", [(exact_columns_data, "all"),
                                             (mixed_columns_data, "some"),
                                             (open_columns_data, "none")])
    @pytest.mark.parametrize("k", [3, 5])
    def test_matches_stable_argsort(self, search, m, data, exact, k):
        x_train, x_test = data(np.random.default_rng(0), m)
        got, counts, _ = column_counts(search, x_train, x_test, k)
        assert np.array_equal(got, argsort_neighbors(x_train, x_test, k))
        # Guards the data: it holds the kinds of column it is named for.
        n_exact = np.count_nonzero(counts == k)
        assert {"all": n_exact == x_test.shape[1],
                "some": 0 < n_exact < x_test.shape[1],
                "none": n_exact == 0}[exact]

    @pytest.mark.parametrize("search, m", RUN_SEARCHES)
    def test_only_open_columns_are_ranked(self, search, m):
        x_train, x_test = mixed_columns_data(np.random.default_rng(0), m)
        _, counts, ranked = column_counts(search, x_train, x_test, 5)
        assert np.array_equal(ranked, counts[counts > 5])

    @pytest.mark.parametrize("search, m", RUN_SEARCHES)
    @pytest.mark.parametrize("slice_rows", [1, 3, None])
    def test_callers_hand_over_ascending_column_runs(self, search, m,
                                                     slice_rows):
        # `_first_k` reads a column's first k candidates at the start of
        # its run, so each caller must hand over one run per column, the
        # runs in column order, over partition slices and test chunks that
        # end part-way.
        handed = []
        first_k = classify._first_k

        def spy(x_train, chunk, rows, cols, k):
            handed.append((cols, chunk.shape[1]))
            return first_k(x_train, chunk, rows, cols, k)

        x_train, x_test = mixed_columns_data(np.random.default_rng(1), m)
        with pytest.MonkeyPatch.context() as mp:
            sliced(mp, slice_rows, x_train.shape[1])
            mp.setattr(classify, "DISTANCE_BLOCK", 100 * x_train.shape[1])
            mp.setattr(classify, "_first_k", spy)
            got = getattr(classify, search)(x_train, x_test, 5)
        assert np.array_equal(got, argsort_neighbors(x_train, x_test, 5))
        assert sum(n_chunk for _, n_chunk in handed) == x_test.shape[1]
        for cols, n_chunk in handed:
            assert np.all(np.diff(cols) >= 0)
            assert np.all(np.bincount(cols, minlength=n_chunk) >= 5)


class TestDispatch:
    @pytest.mark.parametrize("m, search", [(1, "_window_neighbors"),
                                           (29, "_gram_neighbors")])
    def test_census_sized_knn_takes_a_fast_path(self, m, search):
        # The census sweep scores 360 training points, 1-D projections and
        # the 29-feature baseline.
        problem = generic_problem(0, m=m, n_train=360, n_test=50)
        assert searches_taken(*problem, ClassifierSpec("KNN", 5)) == [search]

    @pytest.mark.parametrize("m", [1, 29])
    def test_nearest_centroid_stays_dense(self, m):
        problem = generic_problem(0, m=m, n_train=360, n_test=50, c=7)
        taken = searches_taken(*problem, ClassifierSpec("NEAREST_CENTROID"))
        assert taken == ["_dense_neighbors"]

    @pytest.mark.parametrize("m, search", [(1, "_window_neighbors"),
                                           (29, "_gram_neighbors")])
    @pytest.mark.parametrize("n_train", [5, 9, 63])
    def test_small_training_sets_take_a_fast_path(self, m, search, n_train):
        # The shape alone picks the search, down to n_train = k.
        problem = generic_problem(0, m=m, n_train=n_train)
        assert searches_taken(*problem, ClassifierSpec("KNN", 5)) == [search]


class TestMultiLabeling:
    @staticmethod
    def three_labelings(seed):
        train, u, test, su = tie_problem(seed)
        rng = np.random.default_rng(seed + 100)
        train_labels = (u, LabelSet(class_assignment(rng, train.n_samples, 2), 2),
                        LabelSet(class_assignment(rng, train.n_samples, 4), 4))
        test_labels = (su, LabelSet(rng.integers(0, 2, test.n_samples), 2),
                       LabelSet(rng.integers(0, 4, test.n_samples), 4))
        return train, train_labels, test, test_labels

    @pytest.mark.parametrize("kind", ["KNN", "NEAREST_CENTROID"])
    def test_one_call_equals_single_calls(self, kind):
        spec = ClassifierSpec(kind, 3)
        for seed in range(8):
            train, train_labels, test, test_labels = self.three_labelings(seed)
            reports = train_eval(train, train_labels, test, test_labels, spec)
            assert len(reports) == 3
            for report, tl, sl in zip(reports, train_labels, test_labels):
                single, = train_eval(train, (tl,), test, (sl,), spec)
                assert report.accuracy == single.accuracy
                assert report.n_test == single.n_test
                assert np.array_equal(report.confusion, single.confusion)

    @pytest.mark.parametrize("kind", ["KNN", "NEAREST_CENTROID"])
    def test_bad_second_labeling_raises_as_alone(self, kind):
        spec = ClassifierSpec(kind, 3)
        train, (u, p0, _), test, (su, q0, _) = self.three_labelings(0)
        short_train = LabelSet(p0.labels[:-1], 2)
        short_test = LabelSet(q0.labels[:-1], 2)
        one_class = LabelSet(np.zeros(train.n_samples, dtype=np.int64), 2)
        for bad, error in [((short_train, q0), LengthMismatch),
                           ((p0, short_test), LengthMismatch),
                           ((one_class, q0), EmptyTrainClass)]:
            with pytest.raises(error):
                train_eval(train, (bad[0],), test, (bad[1],), spec)
            with pytest.raises(error):
                train_eval(train, (u, bad[0]), test, (su, bad[1]), spec)

    def test_labeling_counts_must_agree(self):
        train, tl, test, sl = generic_problem(5)
        with pytest.raises(LengthMismatch):
            train_eval(train, (tl, tl), test, (sl,), ClassifierSpec())
        with pytest.raises(InputError):
            train_eval(train, (), test, (), ClassifierSpec())


class TestNearestCentroid:
    def test_separated_centroids(self):
        train = Dataset(np.array([[1.0, 1.2, -1.0, -1.2]]))
        tl = LabelSet(np.array([0, 0, 1, 1]), 2)
        test = Dataset(np.array([[2.0, -2.0]]))
        report, = train_eval(train, (tl,), test, (LabelSet(np.array([0, 1]), 2),),
                             ClassifierSpec("NEAREST_CENTROID"))
        assert report.accuracy == 1.0

    def test_tie_prefers_smallest_class(self):
        train = Dataset(np.array([[-1.0, 1.0]]))
        tl = LabelSet(np.array([0, 1]), 2)
        test = Dataset(np.array([[0.0]]))  # equidistant from both centroids
        report, = train_eval(train, (tl,), test,
                             (LabelSet(np.array([0, 1]), 2).take([0]),),
                             ClassifierSpec("NEAREST_CENTROID"))
        assert report.accuracy == 1.0  # predicted 0, true 0

    def test_equidistant_means_pick_the_smallest_tied_class(self):
        # Class means at the four corners (+-1, +-1) and a fifth class at
        # (3, 0). The origin ties classes 0-3, (0, 1) ties 1 and 3, (1, 0)
        # ties 2 and 3, (2, 0.5) ties 3 and 4, (-1, 0) ties 0 and 1, and
        # (3, 0) ties nothing.
        corners = np.array([[-1.0, -1.0, 1.0, 1.0, 3.0],
                            [-1.0, 1.0, -1.0, 1.0, 0.0]])
        train = Dataset(np.repeat(corners, 2, axis=1))
        tl = LabelSet(np.repeat(np.arange(5), 2), 5)
        test = Dataset(np.array([[0.0, 0.0, 1.0, 2.0, -1.0, 3.0],
                                 [0.0, 1.0, 0.0, 0.5, 0.0, 0.0]]))
        want = np.array([0, 1, 2, 3, 0, 4])
        means = classify.class_means(train, tl)
        assert np.array_equal(classify._dense(means, test.x, 1), want[None])
        assert np.array_equal(classify._dense(means, test.x, 1),
                              argsort_neighbors(means, test.x, 1))
        assert np.array_equal(
            centroid_brute_force(train.x, tl.labels, 5, test.x), want)
        report, = train_eval(train, (tl,), test, (LabelSet(want, 5),),
                             ClassifierSpec("NEAREST_CENTROID"))
        assert report.accuracy == 1.0


class TestInvariances:
    def test_repeat_runs_bit_identical(self):
        train, tl, test, sl = generic_problem(2)
        spec = ClassifierSpec("KNN", 5)
        a, = train_eval(train, (tl,), test, (sl,), spec)
        b, = train_eval(train, (tl,), test, (sl,), spec)
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
        a, = train_eval(train, (tl,), test, (sl,), spec)
        b, = train_eval(train.take(perm), (tl.take(perm),), test, (sl,), spec)
        assert np.array_equal(a.confusion, b.confusion)

    @given(st.integers(0, 10_000), st.sampled_from(["KNN", "NEAREST_CENTROID"]))
    @settings(max_examples=20, deadline=None)
    def test_rotation_invariance(self, seed, kind):
        train, tl, test, sl = generic_problem(seed, m=5)
        rng = np.random.default_rng(seed + 7)
        q, _ = np.linalg.qr(rng.standard_normal((5, 5)))
        spec = ClassifierSpec(kind, 5)
        base, = train_eval(train, (tl,), test, (sl,), spec)
        rotated, = train_eval(Dataset(q @ train.x), (tl,), Dataset(q @ test.x),
                              (sl,), spec)
        assert base.accuracy == rotated.accuracy

    def test_dim_mismatch(self):
        train, tl, test, sl = generic_problem(3)
        with pytest.raises(DimensionMismatch):
            train_eval(train, (tl,), Dataset(np.zeros((9, 4))),
                       (LabelSet(np.array([0, 1, 0, 1]), 3),), ClassifierSpec())
