import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import census_shaped
from privproj import linalg
from privproj.data import Dataset, LabelSet
from privproj.errors import EmptyClass, InputError, LengthMismatch
from privproj.scatter import compute_scatter
from privproj.synthetic import tradeoff_bundle


def brute_force_scatter(x, labels, c):
    """Literal per-sample loop over the three defining sums."""
    m, n = x.shape
    mean = x.mean(axis=1)
    s_bar = np.zeros((m, m))
    for i in range(n):
        d = x[:, i] - mean
        s_bar += np.outer(d, d)
    s_b = np.zeros((m, m))
    s_w = np.zeros((m, m))
    for j in range(c):
        members = x[:, labels == j]
        mu_c = members.mean(axis=1)
        d = mean - mu_c
        s_b += members.shape[1] * np.outer(d, d)
        for i in range(members.shape[1]):
            e = members[:, i] - mu_c
            s_w += np.outer(e, e)
    return s_bar, s_b, s_w


def two_temporary_scatter(x, labels, c):
    """compute_scatter's (s_bar, s_b, s_w) as formed with a gathered mean
    table and a separate difference table."""
    mean = x.mean(axis=1)
    centered = x - mean[:, None]
    s_bar = linalg.symmetrize(centered @ centered.T)
    means = np.empty((x.shape[0], c))
    for j in range(c):
        means[:, j] = x[:, labels == j].mean(axis=1)
    between = (means - mean[:, None]) * np.sqrt(np.bincount(labels, minlength=c))
    s_b = linalg.symmetrize(between @ between.T)
    within = x - means[:, labels]
    s_w = linalg.symmetrize(within @ within.T)
    return s_bar, s_b, s_w


def random_labeled(rng, n, m, c):
    x = rng.standard_normal((m, n)) * 3.0
    labels = np.concatenate([np.arange(c), rng.integers(0, c, n - c)])
    rng.shuffle(labels)
    return Dataset(x), LabelSet(labels, c)


class TestContainers:
    def test_dataset_rejects_nan(self):
        with pytest.raises(InputError):
            Dataset(np.array([[0.0, np.nan]]))

    def test_dataset_rejects_1d(self):
        with pytest.raises(InputError):
            Dataset(np.zeros(3))

    def test_feature_names_length_checked(self):
        with pytest.raises(InputError):
            Dataset(np.zeros((2, 3)), feature_names=("a",))

    def test_scatter_rejects_missing_class(self):
        labels = LabelSet(np.array([0, 0, 2, 2]), 3)  # class 1 absent: allowed...
        with pytest.raises(EmptyClass):  # ...until scatter needs its mean
            compute_scatter(Dataset(np.zeros((2, 4))), labels)

    def test_labelset_requires_two_classes(self):
        with pytest.raises(InputError):
            LabelSet(np.array([0, 0]), 1)

    def test_labelset_range_checked(self):
        with pytest.raises(InputError):
            LabelSet(np.array([0, 1, 3]), 3)


class TestComputeScatter:
    def test_identical_samples_all_zero(self):
        d = Dataset(np.ones((3, 6)))
        l = LabelSet(np.array([0, 0, 0, 1, 1, 1]), 2)
        s = compute_scatter(d, l)
        assert np.array_equal(s.s_bar, np.zeros((3, 3)))
        assert np.array_equal(s.s_b, np.zeros((3, 3)))
        assert np.array_equal(s.s_w, np.zeros((3, 3)))

    def test_hand_four_point_example(self):
        # class 0: (0,0),(2,0); class 1: (0,2),(2,2)
        x = np.array([[0.0, 2.0, 0.0, 2.0],
                      [0.0, 0.0, 2.0, 2.0]])
        s = compute_scatter(Dataset(x), LabelSet(np.array([0, 0, 1, 1]), 2))
        np.testing.assert_allclose(s.s_b, [[0.0, 0.0], [0.0, 4.0]], atol=1e-12)
        np.testing.assert_allclose(s.s_w, [[4.0, 0.0], [0.0, 0.0]], atol=1e-12)
        np.testing.assert_allclose(s.s_bar, [[4.0, 0.0], [0.0, 4.0]], atol=1e-12)

    def test_single_sample_per_class(self):
        x = np.array([[1.0, 5.0], [2.0, -2.0]])
        s = compute_scatter(Dataset(x), LabelSet(np.array([0, 1]), 2))
        assert linalg.max_norm(s.s_w) <= 1e-12
        np.testing.assert_allclose(s.s_b, s.s_bar, atol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            compute_scatter(Dataset(np.zeros((2, 4))),
                            LabelSet(np.array([0, 1, 0]), 2))

    def test_raw_sums_not_normalized(self):
        # Duplicating every sample doubles all three matrices.
        rng = np.random.default_rng(0)
        d, l = random_labeled(rng, 20, 4, 3)
        doubled = compute_scatter(
            Dataset(np.hstack([d.x, d.x])),
            LabelSet(np.concatenate([l.labels, l.labels]), 3))
        base = compute_scatter(d, l)
        np.testing.assert_allclose(doubled.s_bar, 2 * base.s_bar, rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(doubled.s_b, 2 * base.s_b, rtol=1e-12, atol=1e-9)
        np.testing.assert_allclose(doubled.s_w, 2 * base.s_w, rtol=1e-12, atol=1e-9)

    @given(st.integers(0, 10_000), st.integers(2, 5),
           st.integers(1, 12), st.integers(5, 60))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_force(self, seed, c, m, n):
        rng = np.random.default_rng(seed)
        d, l = random_labeled(rng, max(n, c), m, c)
        s = compute_scatter(d, l)
        want_bar, want_b, want_w = brute_force_scatter(d.x, l.labels, c)
        scale = max(linalg.max_norm(want_bar), 1.0)
        assert linalg.max_norm(s.s_bar - want_bar) <= 1e-10 * scale
        assert linalg.max_norm(s.s_b - want_b) <= 1e-10 * scale
        assert linalg.max_norm(s.s_w - want_w) <= 1e-10 * scale

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_additivity_property(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(5, 201))
        m = int(rng.integers(1, 31))
        c = int(rng.integers(2, 6))
        d, l = random_labeled(rng, max(n, c), m, c)
        s = compute_scatter(d, l)
        residual = linalg.max_norm(s.s_bar - (s.s_b + s.s_w))
        assert residual <= 1e-9 * linalg.max_norm(s.s_bar)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        d, l = random_labeled(rng, 40, 5, 3)
        perm = rng.permutation(40)
        s = compute_scatter(d, l)
        sp = compute_scatter(d.take(perm), l.take(perm))
        scale = linalg.max_norm(s.s_bar)
        assert linalg.max_norm(s.s_bar - sp.s_bar) <= 1e-12 * scale
        assert linalg.max_norm(s.s_b - sp.s_b) <= 1e-12 * scale
        assert linalg.max_norm(s.s_w - sp.s_w) <= 1e-12 * scale

    def test_translation_invariance(self):
        rng = np.random.default_rng(10)
        d, l = random_labeled(rng, 40, 5, 3)
        shift = rng.standard_normal(5) * 100
        s = compute_scatter(d, l)
        st_ = compute_scatter(Dataset(d.x + shift[:, None]), l)
        scale = linalg.max_norm(s.s_bar)
        assert linalg.max_norm(s.s_bar - st_.s_bar) <= 1e-9 * scale
        assert linalg.max_norm(s.s_b - st_.s_b) <= 1e-9 * scale
        assert linalg.max_norm(s.s_w - st_.s_w) <= 1e-9 * scale

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_square_symmetric_psd_property(self, seed):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 31))
        c = int(rng.integers(2, 6))
        d, l = random_labeled(rng, int(rng.integers(c, 201)), m, c)
        s = compute_scatter(d, l)
        for mat in (s.s_bar, s.s_b, s.s_w):
            assert mat.shape == (m, m)
            assert np.array_equal(mat, mat.T)
            floor = -1e-9 * linalg.max_norm(mat)
            assert np.linalg.eigvalsh(mat).min() >= floor

    def test_overflow_rejected(self):
        # The error is the one report: numpy warns of neither the overflow
        # nor the inf - inf it can lead to (the trade-off bundle's sums meet
        # one in OpenBLAS).
        d, l = random_labeled(np.random.default_rng(11), 30, 3, 2)
        bundle = tradeoff_bundle(seed=5)
        for x, labels in ((d.x, l), (bundle.train.x, bundle.train_utility)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(InputError,
                                   match="s_bar contains non-finite entries"):
                    compute_scatter(Dataset(x * 1e200), labels)

    def test_large_offset_breaks_additivity(self):
        # The class means of 1e12 + N(0, 9) data carry rounding errors near
        # 1e-4, so the identity misses its 1e-9 tolerance and the labeling
        # is rejected, not fitted.
        rng = np.random.default_rng(0)
        d, l = random_labeled(rng, 400, 2, 2)
        with pytest.raises(InputError, match="scatter additivity violated"):
            compute_scatter(Dataset(d.x + 1e12), l)


def _constant_column(rng, n):
    x = rng.standard_normal((6, n)) * 3.0
    x[2] = 7.25
    return x


DIFFERENTIAL_CASES = {  # id: (table maker, n, c)
    "gaussian": (lambda rng, n: rng.standard_normal((12, n)) * 3.0, 300, 3),
    "census-bits": (census_shaped, 1000, 3),
    "n-below-m": (lambda rng, n: rng.standard_normal((40, n)), 9, 4),
    "constant-column": (_constant_column, 200, 2),
}


class TestOneBufferWithin:
    """s_w is formed in one table-sized buffer; every matrix keeps the bits
    of the two-temporary formula, on both memory layouts."""

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("case", DIFFERENTIAL_CASES)
    def test_matches_two_temporary_bits(self, case, order):
        make, n, c = DIFFERENTIAL_CASES[case]
        rng = np.random.default_rng(0)
        x = np.asarray(make(rng, n), order=order)
        labels = np.concatenate([np.arange(c), rng.integers(0, c, n - c)])
        s = compute_scatter(Dataset(x), LabelSet(labels, c))
        for got, want in zip((s.s_bar, s.s_b, s.s_w),
                             two_temporary_scatter(x, labels, c)):
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_holds_one_table_beyond_its_input(self, order):
        rng = np.random.default_rng(1)
        d = Dataset(np.asarray(census_shaped(rng, 4000), order=order))
        l = LabelSet(rng.integers(0, 2, 4000), 2)
        compute_scatter(d, l)
        tracemalloc.start()
        try:
            compute_scatter(d, l)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * d.x.nbytes


def between_rank(s):
    """Numerical rank of s_b: eigenvalues above m * 1e-12 * max_norm(s_b)."""
    norm = linalg.max_norm(s.s_b)
    if norm == 0.0:
        return 0
    values = np.linalg.eigvalsh(s.s_b)
    return int(np.count_nonzero(values > s.s_b.shape[0] * 1e-12 * norm))


class TestRankBound:
    def test_two_class_balanced(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 30))
        labels = np.repeat([0, 1], 15)
        x[0, labels == 1] += 5.0
        assert between_rank(compute_scatter(Dataset(x), LabelSet(labels, 2))) == 1

    def test_equal_class_means_rank_zero(self):
        x = np.array([[1.0, -1.0, 1.0, -1.0],
                      [0.0, 0.0, 0.0, 0.0]])
        s = compute_scatter(Dataset(x), LabelSet(np.array([0, 1, 1, 0]), 2))
        assert between_rank(s) == 0

    @given(st.integers(0, 10_000), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_rank_at_most_c_minus_1(self, seed, c):
        rng = np.random.default_rng(seed)
        d, l = random_labeled(rng, 50, 8, c)
        assert between_rank(compute_scatter(d, l)) <= c - 1
