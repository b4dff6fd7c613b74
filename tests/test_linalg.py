import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings, strategies as st

from privproj.data import Dataset, LabelSet
from privproj.errors import InputError, InvalidK, NoConvergence, NotPositiveDefinite
from privproj import linalg
from privproj.scatter import compute_scatter


def random_symmetric(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) * scale
    return linalg.symmetrize(g)


def random_spd(rng, n, scale=1.0):
    g = rng.standard_normal((n, n)) * scale
    return linalg.symmetrize(g.T @ g) + np.eye(n)


class TestCholesky:
    def test_identity(self):
        assert np.array_equal(linalg.cholesky(np.eye(3)), np.eye(3))

    def test_hand_2x2(self):
        # [[2,0],[1,2]] @ [[2,1],[0,2]] == [[4,2],[2,5]]
        b = np.array([[4.0, 2.0], [2.0, 5.0]])
        expected = np.array([[2.0, 0.0], [1.0, 2.0]])
        np.testing.assert_allclose(linalg.cholesky(b), expected, rtol=0, atol=1e-14)

    def test_indefinite_raises(self):
        # eigenvalues 3 and -1
        with pytest.raises(NotPositiveDefinite):
            linalg.cholesky(np.array([[1.0, 2.0], [2.0, 1.0]]))

    def test_zero_matrix_raises(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.cholesky(np.zeros((2, 2)))

    def test_asymmetric_rejected(self):
        with pytest.raises(InputError):
            linalg.cholesky(np.array([[1.0, 0.1], [0.0, 1.0]]))

    @given(st.integers(1, 30), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_reconstruction_property(self, n, seed):
        b = random_spd(np.random.default_rng(seed), n)
        lower = linalg.cholesky(b)
        assert np.array_equal(lower, np.tril(lower))
        err = linalg.max_norm(lower @ lower.T - b)
        assert err <= 1e-12 * linalg.max_norm(b)

    def test_matches_numpy(self):
        b = random_spd(np.random.default_rng(7), 12, scale=3.0)
        np.testing.assert_allclose(linalg.cholesky(b), np.linalg.cholesky(b),
                                   rtol=1e-12, atol=1e-12)


class TestTriangularSolves:
    def test_round_trip(self):
        rng = np.random.default_rng(3)
        lower = np.tril(rng.standard_normal((6, 6))) + 4 * np.eye(6)
        rhs = rng.standard_normal((6, 3))
        np.testing.assert_allclose(lower @ linalg.solve_lower(lower, rhs), rhs, atol=1e-12)
        np.testing.assert_allclose(lower.T @ linalg.solve_lower_transpose(lower, rhs), rhs,
                                   atol=1e-12)


class TestSymEig:
    def test_diagonal(self):
        pairs = linalg.sym_eig(np.diag([2.0, 1.0]))
        np.testing.assert_array_equal(pairs.values, [2.0, 1.0])
        np.testing.assert_array_equal(pairs.vectors, np.eye(2))

    def test_exchange_matrix(self):
        pairs = linalg.sym_eig(np.array([[0.0, 1.0], [1.0, 0.0]]))
        np.testing.assert_allclose(pairs.values, [1.0, -1.0], atol=1e-15)
        inv_sqrt2 = 1.0 / np.sqrt(2.0)
        np.testing.assert_allclose(pairs.vectors[:, 0], [inv_sqrt2, inv_sqrt2], atol=1e-15)
        np.testing.assert_allclose(pairs.vectors[:, 1], [inv_sqrt2, -inv_sqrt2], atol=1e-15)

    def test_zero_matrix(self):
        pairs = linalg.sym_eig(np.zeros((4, 4)))
        np.testing.assert_array_equal(pairs.values, np.zeros(4))
        np.testing.assert_array_equal(pairs.vectors, np.eye(4))

    def test_single_element(self):
        pairs = linalg.sym_eig(np.array([[-3.0]]))
        np.testing.assert_array_equal(pairs.values, [-3.0])
        np.testing.assert_array_equal(pairs.vectors, [[1.0]])

    def test_sign_convention(self):
        a = random_symmetric(np.random.default_rng(11), 9)
        vectors = linalg.sym_eig(a).vectors
        for j in range(9):
            col = vectors[:, j]
            assert col[np.argmax(np.abs(col))] > 0

    @given(st.integers(2, 50), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_residual_and_reconstruction(self, n, seed):
        a = random_symmetric(np.random.default_rng(seed), n, scale=2.0)
        pairs = linalg.sym_eig(a)
        norm = linalg.max_norm(a)
        for j in range(n):
            lam, v = pairs.values[j], pairs.vectors[:, j]
            assert np.linalg.norm(a @ v - lam * v) <= 1e-10 * (1 + abs(lam)) * norm
        gram = pairs.vectors.T @ pairs.vectors
        assert linalg.max_norm(gram - np.eye(n)) <= 1e-10
        recon = pairs.vectors @ np.diag(pairs.values) @ pairs.vectors.T
        assert linalg.max_norm(recon - a) <= 1e-9 * norm
        assert np.all(np.diff(pairs.values) <= 0)

    def test_matches_numpy_eigh(self):
        a = random_symmetric(np.random.default_rng(23), 20, scale=5.0)
        pairs = linalg.sym_eig(a)
        expected = np.sort(np.linalg.eigvalsh(a))[::-1]
        np.testing.assert_allclose(pairs.values, expected, rtol=1e-10, atol=1e-10)

    def test_no_convergence(self):
        a = random_symmetric(np.random.default_rng(1), 8)
        with pytest.raises(NoConvergence):
            linalg.sym_eig(a, max_sweeps=0)

    def test_deterministic(self):
        a = random_symmetric(np.random.default_rng(5), 15)
        first = linalg.sym_eig(a)
        second = linalg.sym_eig(a.copy())
        assert np.array_equal(first.values, second.values)
        assert np.array_equal(first.vectors, second.vectors)


class TestGeneralizedEig:
    def test_identity_denominator(self):
        pairs = linalg.generalized_eig(np.diag([2.0, 1.0]), np.eye(2), 2)
        np.testing.assert_array_equal(pairs.values, [2.0, 1.0])
        np.testing.assert_allclose(pairs.vectors, np.eye(2), atol=1e-15)

    def test_hand_2x2_pencil(self):
        # 2x = lambda * 1 * x -> (2, e1); 1y = lambda * 4y -> (0.25, (0, 0.5))
        pairs = linalg.generalized_eig(np.diag([2.0, 1.0]), np.diag([1.0, 4.0]), 2)
        np.testing.assert_allclose(pairs.values, [2.0, 0.25], atol=1e-15)
        np.testing.assert_allclose(pairs.vectors[:, 0], [1.0, 0.0], atol=1e-15)
        np.testing.assert_allclose(pairs.vectors[:, 1], [0.0, 0.5], atol=1e-15)

    def test_zero_numerator(self):
        pairs = linalg.generalized_eig(np.zeros((3, 3)), np.eye(3), 1)
        np.testing.assert_array_equal(pairs.values, [0.0])
        col = pairs.vectors[:, 0]
        np.testing.assert_allclose(np.linalg.norm(col), 1.0, atol=1e-12)
        assert col[np.argmax(np.abs(col))] > 0

    def test_invalid_k(self):
        with pytest.raises(InvalidK):
            linalg.generalized_eig(np.eye(3), np.eye(3), 4)
        with pytest.raises(InvalidK):
            linalg.generalized_eig(np.eye(3), np.eye(3), 0)

    def test_propagates_not_positive_definite(self):
        with pytest.raises(NotPositiveDefinite):
            linalg.generalized_eig(np.eye(2), np.array([[1.0, 2.0], [2.0, 1.0]]), 1)

    @given(st.integers(2, 30), st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_residual_and_b_orthonormality(self, n, seed):
        rng = np.random.default_rng(seed)
        a = random_symmetric(rng, n, scale=2.0)
        b = random_spd(rng, n)
        k = int(rng.integers(1, n + 1))
        pairs = linalg.generalized_eig(a, b, k)
        for j in range(k):
            lam, w = pairs.values[j], pairs.vectors[:, j]
            assert np.linalg.norm(a @ w - lam * (b @ w)) <= 1e-8 * linalg.max_norm(a)
        gram = pairs.vectors.T @ b @ pairs.vectors
        assert linalg.max_norm(gram - np.eye(k)) <= 1e-8

    def test_reduces_to_sym_eig_for_identity(self):
        a = random_symmetric(np.random.default_rng(77), 12)
        top = linalg.generalized_eig(a, np.eye(12), 5)
        full = linalg.sym_eig(a)
        np.testing.assert_allclose(top.values, full.values[:5], atol=1e-10)

    def test_matches_scipy(self):
        rng = np.random.default_rng(41)
        a = random_symmetric(rng, 15, scale=3.0)
        b = random_spd(rng, 15)
        pairs = linalg.generalized_eig(a, b, 15)
        expected = np.sort(scipy.linalg.eigh(a, b, eigvals_only=True))[::-1]
        np.testing.assert_allclose(pairs.values, expected, rtol=1e-9, atol=1e-9)

    def test_scale_covariance(self):
        rng = np.random.default_rng(4)
        a = random_symmetric(rng, 10)
        b = random_spd(rng, 10)
        base = linalg.generalized_eig(a, b, 4)
        scaled = linalg.generalized_eig(2.5 * a, b, 4)
        np.testing.assert_allclose(scaled.values, 2.5 * base.values, rtol=1e-10, atol=1e-12)
        np.testing.assert_allclose(scaled.vectors, base.vectors, atol=1e-9)


def assert_same_pairs(got, want):
    """Bit for bit: values, vectors, the sign of every zero, and the
    vectors' memory layout (BLAS products downstream follow it)."""
    for a, b in ((got.values, want.values), (got.vectors, want.vectors)):
        assert a.shape == b.shape
        assert np.array_equal(a, b)
        assert np.array_equal(np.signbit(a), np.signbit(b))
    assert got.vectors.strides == want.vectors.strides


def assert_stack_matches_singles(matrices):
    stacked = linalg.sym_eig(np.stack(matrices))
    assert stacked.values.shape == (len(matrices), matrices[0].shape[0])
    for j, a in enumerate(matrices):
        assert_same_pairs(linalg.EigenPairs(stacked.values[j], stacked.vectors[j]),
                          linalg.sym_eig(a))


def bits_pencils(seed, m=12, n=300):
    """Reduced DCA/MDR/RUCA pencils and the total scatter of census-style
    0/1 data with a constant column (so s_bar and s_b are singular)."""
    rng = np.random.default_rng(seed)
    utility = rng.integers(0, 2, n)
    privacy = rng.integers(0, 3, n)
    p = 0.2 + 0.4 * utility + 0.15 * privacy
    x = (rng.random((m, n)) < p).astype(float)
    x[0] = 1.0
    d = Dataset(x)
    util = compute_scatter(d, LabelSet(utility, 2))
    priv = compute_scatter(d, LabelSet(privacy, 3))
    eye = np.eye(m)
    rho = 1e-6 * np.trace(util.s_bar) / m
    a = linalg.symmetrize(util.s_b + 1e-8 * np.trace(util.s_b) / m * eye)
    out = [util.s_bar]
    for denominator in (util.s_bar, priv.s_b, util.s_bar + 4.0 * priv.s_b,
                        util.s_bar + 64.0 * priv.s_b):
        lower = linalg.cholesky(linalg.symmetrize(denominator + rho * eye))
        out.append(linalg.reduce_pencil(lower, a))
    return out


class TestStackedSymEig:
    """A (B, m, m) stack is solved bit-identically to one call per matrix."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_census_style_pencils(self, seed):
        assert_stack_matches_singles(bits_pencils(seed))

    def test_rank_deficient_between_scatter(self):
        # n < m samples and a constant column: s_b has rank <= classes - 1
        # and whole zero rows, so many rotations are skipped in one matrix
        # while they run in another.
        rng = np.random.default_rng(5)
        matrices = []
        for classes in (2, 3, 4):
            x = rng.standard_normal((9, 6))
            x[4] = 2.5
            labels = np.arange(6) % classes
            s = compute_scatter(Dataset(x), LabelSet(labels, classes))
            matrices += [s.s_b, s.s_bar]
        assert_stack_matches_singles(matrices)

    def test_one_by_one(self):
        assert_stack_matches_singles([np.array([[v]]) for v in (-3.0, 0.0, -0.0, 2.5)])

    def test_members_needing_different_sweep_counts(self):
        rng = np.random.default_rng(9)
        diagonal = np.diag([3.0, -1.0, 0.0, 2.0, 2.0])
        near = diagonal + linalg.symmetrize(1e-9 * rng.standard_normal((5, 5)))
        dense = random_symmetric(rng, 5, scale=4.0)
        sweeps = []
        for a in (diagonal, near, dense):
            sweeps.append(next(s for s in range(20)
                               if _converges(a, max_sweeps=s)))
        assert len(set(sweeps)) == 3
        assert_stack_matches_singles([dense, diagonal, near, dense.copy()])

    def test_single_matrix_is_a_stack_of_one(self):
        a = random_symmetric(np.random.default_rng(13), 7)
        one = linalg.sym_eig(a[None])
        assert_same_pairs(linalg.EigenPairs(one.values[0], one.vectors[0]),
                          linalg.sym_eig(a))
        # Column-major, as the vectors of a 2-D solve always were: the
        # back-substitution's BLAS products, and so the bits of every
        # fitted model, follow this layout.
        assert linalg.sym_eig(a).vectors.flags.f_contiguous

    def test_member_without_convergence_fails_the_call(self):
        rng = np.random.default_rng(3)
        dense = random_symmetric(rng, 6)
        with pytest.raises(NoConvergence):
            linalg.sym_eig(np.stack([np.eye(6), dense]), max_sweeps=0)
        stacked = linalg.sym_eig(np.stack([np.eye(6), np.diag(np.arange(6.0))]),
                                 max_sweeps=0)
        assert np.array_equal(stacked.values[1], np.arange(6.0)[::-1])

    def test_asymmetric_member_rejected(self):
        bad = np.stack([np.eye(3), np.triu(np.ones((3, 3)))])
        with pytest.raises(InputError):
            linalg.sym_eig(bad)


def _converges(a, max_sweeps):
    try:
        linalg.sym_eig(a, max_sweeps=max_sweeps)
    except NoConvergence:
        return False
    return True
