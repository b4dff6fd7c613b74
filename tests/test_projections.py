import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import failing_solver, separated_instance
from privproj import linalg, projections
from privproj.data import Dataset, LabelSet
from privproj.errors import (DimensionMismatch, InputError, InvalidK,
                             NoConvergence, RankDeficient, WeightMismatch)
from privproj.projections import (ProjectionConfig, ProjectionModel,
                                  fit_method, fit_methods, fit_random,
                                  load_model,
                                  model_from_json, model_to_json,
                                  project, save_model, subspace_angle)
from privproj.scatter import compute_scatter


class TestConfig:
    def test_rejects_unknown_method(self):
        with pytest.raises(InputError):
            ProjectionConfig(method="LDA", k=1)

    def test_rejects_bad_k(self):
        for bad in (0, 1.5, True, np.True_, None, math.nan, math.inf):
            with pytest.raises(InvalidK, match="k must be a positive integer"):
                ProjectionConfig(method="PCA", k=bad)

    def test_rejects_fractional_seed(self):
        with pytest.raises(InputError, match="seed must be an integer"):
            ProjectionConfig(method="RANDOM", k=1, seed=1.5)

    def test_rejects_negative_weight(self):
        for weight in (-1.0, math.nan, math.inf):
            with pytest.raises(InputError):
                ProjectionConfig(method="RUCA", k=1, privacy_weights=(weight,))

    def test_rejects_weights_that_are_not_numbers(self):
        for weights in (None, "40", ("4",), (True,)):
            with pytest.raises(InputError, match="privacy_weights must"):
                ProjectionConfig(method="RUCA", k=1, privacy_weights=weights)

    def test_rejects_zero_rho(self):
        for bad in (0.0, math.nan, math.inf):
            with pytest.raises(InputError):
                ProjectionConfig(method="DCA", k=1, rho=bad)
        for bad in (-1.0, math.nan, math.inf):
            with pytest.raises(InputError):
                ProjectionConfig(method="DCA", k=1, rho_prime=bad)

    def test_only_ruca_keeps_privacy_weights(self):
        d, util, priv = separated_instance(0)
        for method in ("PCA", "DCA", "MDR"):
            model = fit_method(d, util, [priv], ProjectionConfig(
                method=method, k=1, privacy_weights=(3.0,)))
            assert model.config.privacy_weights == ()
            assert '"privacy_weights": [],' in model_to_json(model)
        ruca = fit_method(d, util, [priv], ProjectionConfig(
            method="RUCA", k=1, privacy_weights=(3.0,)))
        assert ruca.config.privacy_weights == (3.0,)


class TestRucaDcaEquivalence:
    def test_zero_weights_bit_equal(self):
        d, util, priv = separated_instance(0)
        cfg = ProjectionConfig(method="RUCA", k=2, privacy_weights=(0.0,))
        ruca = fit_method(d, util, [priv], cfg)
        dca = fit_method(d, util, (), ProjectionConfig(method="DCA", k=2))
        assert np.array_equal(ruca.w, dca.w)
        assert np.array_equal(ruca.eigenvalues, dca.eigenvalues)
        assert np.array_equal(ruca.feature_mean, dca.feature_mean)

    def test_empty_privacy_list_bit_equal(self):
        d, util, _ = separated_instance(1)
        ruca = fit_method(d, util, [], ProjectionConfig(method="RUCA", k=3))
        dca = fit_method(d, util, (), ProjectionConfig(method="DCA", k=3))
        assert np.array_equal(ruca.w, dca.w)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_angle_below_1e9_fuzz(self, seed):
        d, util, priv = separated_instance(seed, c_u=3)
        cfg = ProjectionConfig(method="RUCA", k=2, privacy_weights=(0.0,))
        ruca = fit_method(d, util, [priv], cfg)
        dca = fit_method(d, util, (), ProjectionConfig(method="DCA", k=2))
        assert subspace_angle(ruca.w, dca.w) < 1e-9

    def test_weight_count_checked(self):
        d, util, priv = separated_instance(2)
        with pytest.raises(WeightMismatch):
            fit_method(d, util, [priv],
                       ProjectionConfig(method="RUCA", k=1, privacy_weights=(1.0, 2.0)))


class TestMdrLimit:
    """The huge-weight limit matches the privacy-only pencil when the privacy
    between-class scatter has full rank (more privacy classes than features).
    With a rank-deficient privacy scatter the two methods regularize the null
    space differently (total scatter vs identity) and genuinely disagree
    there, so these tests fuzz in the full-rank regime."""

    def test_huge_weight_approaches_mdr(self):
        d, util, priv = separated_instance(3, m=5, n=160, c_u=2, c_p=7)
        s = compute_scatter(d, util)
        huge = 1e6 * np.trace(s.s_bar) / np.trace(compute_scatter(d, priv).s_b)
        ruca = fit_method(d, util, [priv],
                          ProjectionConfig(method="RUCA", k=1, privacy_weights=(huge,)))
        mdr = fit_method(d, util, [priv], ProjectionConfig(method="MDR", k=1))
        assert subspace_angle(ruca.w, mdr.w) < 1e-3

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_angle_to_mdr_non_increasing(self, seed):
        d, util, priv = separated_instance(seed, m=5, n=160, c_u=2, c_p=7)
        # A small explicit rho keeps the late-grid angle floor (set by the
        # denominators' rho*I mismatch) well under the monotonicity slack.
        rho = 1e-9 * np.trace(compute_scatter(d, util).s_bar) / d.n_features
        mdr = fit_method(d, util, [priv], ProjectionConfig(method="MDR", k=1, rho=rho))
        angles = []
        for weight in [1.0, 10.0, 1e2, 1e3, 1e4, 1e5, 1e6]:
            ruca = fit_method(d, util, [priv],
                              ProjectionConfig(method="RUCA", k=1, rho=rho,
                                               privacy_weights=(weight,)))
            angles.append(subspace_angle(ruca.w, mdr.w))
        for earlier, later in zip(angles, angles[1:]):
            assert later <= earlier + 1e-6


class TestDiscriminantStructure:
    def test_two_class_single_dominant_eigenvalue(self):
        d, util, _ = separated_instance(4, c_u=2, m=6)
        model = fit_method(d, util, (), ProjectionConfig(method="DCA", k=6))
        assert model.eigenvalues[0] > 0
        ratios = model.eigenvalues[1:] / model.eigenvalues[0]
        assert np.all(np.abs(ratios) < 1e-6)

    def test_dca_aligns_with_separation_axis(self):
        rng = np.random.default_rng(5)
        n = 200
        labels = np.repeat([0, 1], n // 2)
        x = rng.standard_normal((2, n))
        x[0, labels == 1] += 10.0
        model = fit_method(Dataset(x), LabelSet(labels, 2), (),
                           ProjectionConfig(method="DCA", k=1))
        col = model.w[:, 0]
        assert abs(col[0]) / np.linalg.norm(col) > 0.99

    def test_zero_between_scatter_zero_eigenvalues(self):
        # Mirrored samples per class make every class mean exactly zero.
        x = np.array([[1.0, -1.0, 2.0, -2.0],
                      [3.0, -3.0, -1.0, 1.0]])
        labels = LabelSet(np.array([0, 0, 1, 1]), 2)
        model = fit_method(Dataset(x), labels, (),
                           ProjectionConfig(method="DCA", k=2, rho_prime=0.0))
        np.testing.assert_allclose(model.eigenvalues, 0.0, atol=1e-12)

    def test_denominator_inflation_shrinks_top_eigenvalue(self):
        d, util, _ = separated_instance(6, c_u=3)
        dca = fit_method(d, util, (), ProjectionConfig(method="DCA", k=1))
        ruca = fit_method(d, util, [util],
                          ProjectionConfig(method="RUCA", k=1, privacy_weights=(5.0,)))
        assert dca.eigenvalues[0] >= ruca.eigenvalues[0]

    @given(st.integers(0, 10_000), st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_rank_bound_on_eigenvalues(self, seed, c_u):
        d, util, priv = separated_instance(seed, c_u=c_u, n=150)
        cfg = ProjectionConfig(method="RUCA", k=d.n_features, rho_prime=0.0,
                               privacy_weights=(2.0,))
        model = fit_method(d, util, [priv], cfg)
        top = model.eigenvalues[0]
        assert np.count_nonzero(model.eigenvalues > 1e-8 * top) <= c_u - 1

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_pencil_constraint(self, seed):
        d, util, priv = separated_instance(seed, c_u=3)
        cfg = ProjectionConfig(method="RUCA", k=2, privacy_weights=(3.0,))
        model = fit_method(d, util, [priv], cfg)
        s_u = compute_scatter(d, util)
        s_p = compute_scatter(d, priv)
        denom = (s_u.s_bar + 3.0 * s_p.s_b
                 + model.config.rho * np.eye(d.n_features))
        gram = model.w.T @ denom @ model.w
        assert linalg.max_norm(gram - np.eye(2)) < 1e-8

    def test_mdr_pencil_constraint(self):
        d, util, priv = separated_instance(7)
        model = fit_method(d, util, [priv], ProjectionConfig(method="MDR", k=2))
        denom = (compute_scatter(d, priv).s_b
                 + model.config.rho * np.eye(d.n_features))
        gram = model.w.T @ denom @ model.w
        assert linalg.max_norm(gram - np.eye(2)) < 1e-8


class TestMdr:
    def test_zero_privacy_scatter_rescales_utility_eigs(self):
        # Mirrored privacy classes: privacy class means are exactly zero,
        # so the pencil denominator is rho * identity.
        a = np.array([1.0, 2.0])
        b = np.array([3.0, -1.0])
        x = np.column_stack([a, -a, b, -b])
        priv = LabelSet(np.array([0, 0, 1, 1]), 2)
        util = LabelSet(np.array([0, 1, 0, 1]), 2)
        model = fit_method(Dataset(x), util, [priv],
                           ProjectionConfig(method="MDR", k=2, rho=2.0, rho_prime=0.0))
        s_bu = compute_scatter(Dataset(x), util).s_b
        expected = linalg.sym_eig(s_bu).values / 2.0
        np.testing.assert_allclose(model.eigenvalues, expected, rtol=1e-12, atol=1e-12)

    def test_orthogonal_axes_avoid_privacy_direction(self):
        # Balanced 2x2 label grid: utility and privacy labels exactly
        # uncorrelated, separation axes orthogonal by construction.
        rng = np.random.default_rng(8)
        n = 400
        util_side = np.repeat([0, 1], n // 2)
        priv_side = np.tile(np.repeat([0, 1], n // 4), 2)
        x = rng.standard_normal((2, n)) * 0.2
        x[0] += 6.0 * (2.0 * util_side - 1.0)
        x[1] += 6.0 * (2.0 * priv_side - 1.0)
        model = fit_method(Dataset(x), LabelSet(util_side, 2),
                           [LabelSet(priv_side, 2)],
                           ProjectionConfig(method="MDR", k=1))
        privacy_axis = np.array([[0.0], [1.0]])
        assert subspace_angle(model.w, privacy_axis) > math.radians(89.0)


class TestPca:
    def test_line_data_single_dominant_eigenvalue(self):
        rng = np.random.default_rng(9)
        direction = np.array([3.0, 4.0]) / 5.0
        x = np.outer(direction, rng.standard_normal(100) * 5)
        model = fit_method(Dataset(x), None, (),
                           ProjectionConfig(method="PCA", k=2))
        assert model.eigenvalues[0] / max(model.eigenvalues[1], 1e-300) > 1e6

    def test_full_rank_is_lossless(self):
        rng = np.random.default_rng(10)
        d = Dataset(rng.standard_normal((5, 60)))
        model = fit_method(d, None, (), ProjectionConfig(method="PCA", k=5))
        assert linalg.max_norm(model.w.T @ model.w - np.eye(5)) < 1e-12
        z = project(model, d)
        recon = model.w @ z.x + model.feature_mean[:, None]
        assert linalg.max_norm(recon - d.x) < 1e-10

    def test_eigenvalues_match_total_scatter(self):
        rng = np.random.default_rng(11)
        d = Dataset(rng.standard_normal((4, 50)))
        model = fit_method(d, None, (), ProjectionConfig(method="PCA", k=4))
        centered = d.x - d.x.mean(axis=1, keepdims=True)
        expected = np.sort(np.linalg.eigvalsh(centered @ centered.T))[::-1]
        np.testing.assert_allclose(model.eigenvalues, expected, rtol=1e-10, atol=1e-8)


def gram_schmidt_reference(w):
    """Modified Gram-Schmidt with a second reorthogonalization pass, column
    by column: the orthonormal columns, or None when a column's norm falls
    below GS_PIVOT_TOL after the earlier columns are projected out."""
    q = np.array(w, dtype=np.float64)
    for j in range(q.shape[1]):
        for _ in range(2):
            for i in range(j):
                q[:, j] -= (q[:, i] @ q[:, j]) * q[:, i]
        norm = float(np.linalg.norm(q[:, j]))
        if norm < projections.GS_PIVOT_TOL:
            return None
        q[:, j] /= norm
    return q


def orthonormalization_draws(kind, seed, count=40):
    """(m, k) draws: Gaussian columns; 0/1 columns like the bit-encoded
    census features, every other draw at m < 8 so that repeated and zero
    columns occur; or Gaussian columns (k >= 2) whose last is the first plus
    noise of scale 1e-7 (independent) or 1e-12 (dependent at GS_PIVOT_TOL)."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        m = int(rng.integers(2, 8 if kind == "bits" and i % 2 else 60))
        k = int(rng.integers(1, m + 1))
        if kind == "bits":
            yield rng.integers(0, 2, size=(m, k)).astype(float)
        elif kind == "gaussian":
            yield rng.standard_normal((m, k))
        else:
            w = rng.standard_normal((m, max(k, 2)))
            scale = 1e-7 if i % 2 else 1e-12
            w[:, -1] = w[:, 0] + scale * rng.standard_normal(m)
            yield w


class TestOrthonormalColumns:
    """`_orthonormal_columns` (Householder QR) against Gram-Schmidt."""

    @pytest.mark.parametrize("kind", ["gaussian", "bits", "nearly_dependent"])
    def test_matches_gram_schmidt(self, kind):
        outcomes = set()
        for w in orthonormalization_draws(kind, seed=len(kind)):
            want = gram_schmidt_reference(w)
            outcomes.add(want is None)
            if want is None:
                with pytest.raises(RankDeficient, match="collapsed"):
                    projections._orthonormal_columns(w)
                continue
            got = projections._orthonormal_columns(w)
            assert linalg.max_norm(got.T @ got - np.eye(w.shape[1])) < 1e-12
            assert np.all(np.einsum("ij,ij->j", got, w) > 0)
            if kind == "nearly_dependent":
                # Only the last column is ill-determined (to about eps/1e-7):
                # the others must agree, and both bases must hold w.
                assert subspace_angle(got[:, :-1], want[:, :-1]) < 1e-12
                for q in (got, want):
                    residual = w - q @ (q.T @ w)
                    assert linalg.max_norm(residual) < 1e-13 * linalg.max_norm(w)
            else:
                assert subspace_angle(got, want) < 1e-12
        if kind != "gaussian":
            assert outcomes == {True, False}

    def test_more_columns_than_dimension(self):
        with pytest.raises(RankDeficient, match="column 2 collapsed"):
            projections._orthonormal_columns(np.eye(2, 3))
        with pytest.raises(RankDeficient):
            subspace_angle(np.eye(2, 3), np.eye(2, 3))

    @pytest.mark.parametrize("bad", [np.zeros(3), np.zeros((3, 0)),
                                     np.array([[1.0], [math.nan]])])
    def test_rejects_non_matrices(self, bad):
        with pytest.raises(InputError):
            projections._orthonormal_columns(bad)
        with pytest.raises(InputError):
            subspace_angle(bad, bad)


class TestRandomProjection:
    def test_same_seed_identical(self):
        cfg = ProjectionConfig(method="RANDOM", k=3, seed=42)
        first = fit_random(8, cfg)
        second = fit_random(8, cfg)
        assert np.array_equal(first.w, second.w)

    def test_square_case_orthonormal(self):
        model = fit_random(4, ProjectionConfig(method="RANDOM", k=4, seed=7))
        assert linalg.max_norm(model.w.T @ model.w - np.eye(4)) < 1e-12

    def test_different_seeds_differ(self):
        a = fit_random(8, ProjectionConfig(method="RANDOM", k=3, seed=1))
        b = fit_random(8, ProjectionConfig(method="RANDOM", k=3, seed=2))
        assert subspace_angle(a.w, b.w) > 1e-3

    def test_seed_required(self):
        with pytest.raises(InputError):
            fit_random(4, ProjectionConfig(method="RANDOM", k=2))

    def test_gram_schmidt_rank_deficiency(self):
        with pytest.raises(RankDeficient, match="column 1 collapsed"):
            projections._orthonormal_columns(np.ones((4, 2)))

    def test_rank_deficient_draws_raise(self, monkeypatch):
        class Repeating:
            def standard_normal(self, shape):
                return np.ones(shape)

        monkeypatch.setattr(projections, "rng_from", lambda *key: Repeating())
        with pytest.raises(RankDeficient, match="after 4 draws"):
            fit_random(5, ProjectionConfig(method="RANDOM", k=2, seed=3))

    def test_orthonormal_at_har_width(self):
        model = fit_random(561, ProjectionConfig(method="RANDOM", k=50, seed=5))
        assert linalg.max_norm(model.w.T @ model.w - np.eye(50)) < 1e-12


class TestProject:
    def _identity_model(self):
        return ProjectionModel(w=np.eye(2), eigenvalues=np.zeros(2),
                               config=ProjectionConfig(method="PCA", k=2),
                               feature_mean=np.zeros(2))

    def test_identity_model_passthrough(self):
        d = Dataset(np.array([[3.0, 1.0], [7.0, 2.0]]))
        assert np.array_equal(project(self._identity_model(), d).x, d.x)

    def test_mean_sample_maps_to_origin(self):
        model = ProjectionModel(w=np.eye(2), eigenvalues=np.zeros(2),
                                config=ProjectionConfig(method="PCA", k=2),
                                feature_mean=np.array([3.0, 7.0]))
        z = project(model, Dataset(np.array([[3.0], [7.0]])))
        assert np.array_equal(z.x, np.zeros((2, 1)))

    def test_coordinate_selection(self):
        model = ProjectionModel(w=np.array([[1.0], [0.0]]), eigenvalues=np.zeros(1),
                                config=ProjectionConfig(method="PCA", k=1),
                                feature_mean=np.zeros(2))
        z = project(model, Dataset(np.array([[3.0], [7.0]])))
        assert np.array_equal(z.x, np.array([[3.0]]))

    def test_uses_training_mean_not_test_mean(self):
        d, util, _ = separated_instance(12)
        model = fit_method(d, util, (), ProjectionConfig(method="DCA", k=1))
        shifted = Dataset(d.x + 100.0)
        z_base = project(model, d)
        z_shift = project(model, shifted)
        # Constant shift propagates through (not absorbed by recentering).
        delta = z_shift.x - z_base.x
        assert linalg.max_norm(delta - delta[:, :1]) < 1e-8
        assert np.abs(delta).max() > 1e-3

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            project(self._identity_model(), Dataset(np.zeros((3, 2))))


class TestSubspaceAngle:
    def test_identical_spans(self):
        rng = np.random.default_rng(13)
        w = rng.standard_normal((6, 3))
        assert subspace_angle(w, w.copy()) < 1e-7

    def test_orthogonal_axes(self):
        e1 = np.array([[1.0], [0.0]])
        e2 = np.array([[0.0], [1.0]])
        assert abs(subspace_angle(e1, e2) - math.pi / 2) < 1e-12

    def test_45_degrees(self):
        e1 = np.array([[1.0], [0.0]])
        diag = np.array([[1.0], [1.0]]) / math.sqrt(2.0)
        assert abs(subspace_angle(e1, diag) - math.pi / 4) < 1e-10

    def test_basis_invariance(self):
        rng = np.random.default_rng(14)
        w = rng.standard_normal((6, 2))
        mixed = w @ np.array([[2.0, 1.0], [0.5, 3.0]])
        assert subspace_angle(w, mixed) < 1e-7

    def test_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            subspace_angle(np.eye(3), np.eye(2))

    @pytest.mark.parametrize("theta", [1e-12, 1e-9, 1e-6, 0.3, 0.7, 0.9, 1.2])
    def test_rotation_angle_comes_back(self, theta):
        # Column 1 turns by theta towards a direction outside both spans;
        # 1e-9 is far below what the cosine form alone resolves.
        q, _ = np.linalg.qr(np.random.default_rng(15).standard_normal((5, 3)))
        turned = q[:, :2].copy()
        turned[:, 1] = math.cos(theta) * q[:, 1] + math.sin(theta) * q[:, 2]
        tol = 1e-15 if theta < 1e-3 else 1e-14
        assert abs(subspace_angle(q[:, :2], turned) - theta) < tol


class TestDeterminismAndSerialization:
    def test_fit_bit_identical(self):
        d, util, priv = separated_instance(15)
        cfg = ProjectionConfig(method="RUCA", k=2, privacy_weights=(4.0,))
        a = fit_method(d, util, [priv], cfg)
        b = fit_method(Dataset(d.x.copy()), util, [priv], cfg)
        assert np.array_equal(a.w, b.w)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)

    def test_json_round_trip_bit_exact(self):
        d, util, priv = separated_instance(16)
        model = fit_method(d, util, [priv],
                           ProjectionConfig(method="RUCA", k=2, privacy_weights=(2.5,)))
        restored = model_from_json(model_to_json(model))
        assert np.array_equal(restored.w, model.w)
        assert np.array_equal(restored.eigenvalues, model.eigenvalues)
        assert np.array_equal(restored.feature_mean, model.feature_mean)
        assert restored.config == model.config

    def test_file_round_trip_and_projection_equality(self, tmp_path):
        d, util, _ = separated_instance(17)
        model = fit_method(d, util, (), ProjectionConfig(method="DCA", k=3))
        path = tmp_path / "model.json"
        save_model(model, path)
        restored = load_model(path)
        assert np.array_equal(project(restored, d).x, project(model, d).x)

    def test_random_model_serializes_null_fields(self):
        model = fit_random(5, ProjectionConfig(method="RANDOM", k=2, seed=99))
        text = model_to_json(model)
        assert '"rho": null' in text
        restored = model_from_json(text)
        assert np.array_equal(restored.w, model.w)
        assert restored.config.seed == 99

    def test_missing_key_rejected(self):
        with pytest.raises(InputError):
            model_from_json('{"method": "PCA"}')


class TestDispatch:
    def test_fit_method_routes_all(self):
        d, util, priv = separated_instance(18)
        for method, weights in [("PCA", ()), ("DCA", ()), ("MDR", (0.0,)),
                                ("RUCA", (2.0,)), ("RANDOM", ())]:
            cfg = ProjectionConfig(method=method, k=2, privacy_weights=weights, seed=5)
            model = fit_method(d, util, [priv], cfg)
            assert model.w.shape == (d.n_features, 2)

    def test_mdr_uses_first_privacy_labeling(self):
        d, util, priv = separated_instance(20, c_p=3)
        cfg = ProjectionConfig(method="MDR", k=2)
        both = fit_method(d, util, [priv, util], cfg)
        first = fit_method(d, util, [priv], cfg)
        assert model_to_json(both) == model_to_json(first)

    def test_discriminant_requires_utility(self):
        d, _, _ = separated_instance(19)
        with pytest.raises(InputError):
            fit_method(d, None, [], ProjectionConfig(method="DCA", k=1))

    def test_k_checked_before_scatter(self):
        d, util, _ = separated_instance(19)
        empty_class = LabelSet(util.labels, util.class_count + 1)
        with pytest.raises(InvalidK):
            fit_method(d, empty_class, [],
                       ProjectionConfig(method="DCA", k=d.n_features + 1))


class TestFitMethods:
    """fit_methods shares scatters, pencils and one stacked eigensolve
    across configs; each slot equals fitting its config alone."""

    CONFIGS = (
        ProjectionConfig("PCA", 1), ProjectionConfig("PCA", 4),
        ProjectionConfig("DCA", 1), ProjectionConfig("DCA", 3),
        ProjectionConfig("MDR", 2), ProjectionConfig("RUCA", 2,
                                                     privacy_weights=(0.0, 0.0)),
        ProjectionConfig("RUCA", 2, privacy_weights=(4.0, 0.0)),
        ProjectionConfig("RUCA", 1, privacy_weights=(4.0, 1.0)),
        ProjectionConfig("RUCA", 1, privacy_weights=(4.0,)),
        ProjectionConfig("DCA", 9), ProjectionConfig("PCA", 9),
        ProjectionConfig("DCA", 2, rho=1e-3),
        ProjectionConfig("RANDOM", 2, seed=4), ProjectionConfig("RANDOM", 2),
    )

    def test_each_slot_equals_a_lone_fit(self):
        d, util, priv = separated_instance(31, c_p=3)
        _, _, priv2 = separated_instance(32, c_p=2)
        privacy = (priv, priv2)
        results = fit_methods(d, util, privacy, self.CONFIGS)
        assert len(results) == len(self.CONFIGS)
        failures = 0
        for cfg, got in zip(self.CONFIGS, results):
            try:
                want = fit_method(d, util, privacy, cfg)
            except (InputError, InvalidK, WeightMismatch) as exc:
                failures += 1
                assert type(got) is type(exc) and str(got) == str(exc)
                continue
            assert model_to_json(got) == model_to_json(want)
            assert got.w.strides == want.w.strides
        assert failures == 4

    def test_scatter_once_per_labeling_and_one_stacked_solve(self, monkeypatch):
        d, util, priv = separated_instance(33, c_p=3)
        calls = {"scatter": 0, "eig": []}
        real_scatter, real_eig = projections.compute_scatter, linalg.sym_eig

        def counting_scatter(*args):
            calls["scatter"] += 1
            return real_scatter(*args)

        def counting_eig(a, *args, **kwargs):
            calls["eig"].append(np.shape(a))
            return real_eig(a, *args, **kwargs)

        monkeypatch.setattr(projections, "compute_scatter", counting_scatter)
        monkeypatch.setattr(linalg, "sym_eig", counting_eig)
        configs = [ProjectionConfig("PCA", 2), ProjectionConfig("DCA", 1),
                   ProjectionConfig("DCA", 2), ProjectionConfig("MDR", 1),
                   ProjectionConfig("RUCA", 1, privacy_weights=(0.0,)),
                   ProjectionConfig("RUCA", 1, privacy_weights=(2.0,))]
        fit_methods(d, util, [priv], configs)
        assert calls["scatter"] == 2
        # PCA's s_bar, and the DCA (= zero-weight RUCA), MDR and RUCA[2] pencils.
        assert calls["eig"] == [(4, d.n_features, d.n_features)]

    @pytest.mark.parametrize("bad", [0, 1])
    def test_failing_stack_member_fails_alone(self, monkeypatch, bad):
        d, util, priv = separated_instance(34, c_p=3)
        configs = [ProjectionConfig("PCA", 1), ProjectionConfig("MDR", 1)]
        solve, poisoned = linalg.sym_eig, []

        def recording(a):
            poisoned.extend(np.reshape(a, (-1, *np.shape(a)[-2:])))
            return solve(a)

        with monkeypatch.context() as patch:
            patch.setattr(linalg, "sym_eig", recording)
            fit_method(d, util, [priv], configs[bad])
        assert len(poisoned) == 1  # the bad config's one matrix
        monkeypatch.setattr(linalg, "sym_eig", failing_solver(solve, poisoned))
        results = fit_methods(d, util, [priv], configs)
        assert model_to_json(results[1 - bad]) == model_to_json(
            fit_method(d, util, [priv], configs[1 - bad]))
        assert isinstance(results[bad], NoConvergence)
        assert str(results[bad]) == "stand-in solver failed"
