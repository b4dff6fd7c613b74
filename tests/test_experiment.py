"""Tests for sweep orchestration, the performance criterion, and trade-off
table/chart emission."""

import functools
import math
import threading

import numpy as np
import pytest

from conftest import failing_solver
from privproj import experiment, linalg, projections
from privproj.classify import ClassifierSpec, train_eval
from privproj.data import Dataset, LabelSet
from privproj.dataio import subsample
from privproj.errors import (DimensionMismatch, InputError, LengthMismatch,
                             PrivprojError)
from privproj.experiment import (FULL_BASELINE, DataBundle, ExperimentConfig,
                                 MethodGrid, TradeoffPoint, config_from_json, config_to_json,
                                 emit_tradeoff_curve, performance,
                                 read_tradeoff_csv, read_tradeoff_points,
                                 render_svg, run_sweep)
from privproj.projections import (ProjectionConfig, fit_method, fit_methods,
                                  project)
from privproj.seeds import mix
from privproj.synthetic import tradeoff_bundle


def small_bundle(seed=0, n=240, m=5):
    return tradeoff_bundle(seed=seed, n_train=n, n_test=n, m=m)


def bits_bundle(seed=0, n_train=300, n_test=200, m=12):
    """Census-style 0/1 features (tie-heavy, one constant column) with a
    binary utility task and two privacy tasks (3 and 2 classes)."""
    rng = np.random.default_rng(seed)

    def half(n):
        utility = rng.integers(0, 2, n)
        marital = rng.integers(0, 3, n)
        sex = rng.integers(0, 2, n)
        p = 0.2 + 0.3 * utility + 0.2 * (marital == 1) + 0.2 * sex
        x = (rng.random((m, n)) < p).astype(float)
        x[m - 1] = 1.0
        return (Dataset(x), LabelSet(utility, 2),
                (LabelSet(marital, 3), LabelSet(sex, 2)))

    (train, train_u, train_p), (test, test_u, test_p) = half(n_train), half(n_test)
    return DataBundle(train=train, train_utility=train_u, train_privacy=train_p,
                      test=test, test_utility=test_u, test_privacy=test_p)


def reference_cell(bundle, method, k, weights, cfg):
    """Per-iteration accuracies of one cell, each iteration fitted alone
    through fit_method: the per-cell loop the iteration-major sweep
    replaced, kept as its reference."""
    split_seed = mix(cfg.seed or 0, "subsample")
    cell_seed = mix(cfg.seed or 0, method, k, *weights)
    all_labels = [bundle.train_utility, *bundle.train_privacy]
    acc_u = np.empty(cfg.iterations)
    acc_p = np.empty((bundle.n_privacy, cfg.iterations))
    for it in range(cfg.iterations):
        sub_train, sub_labels = subsample(bundle.train, all_labels, split_seed,
                                          cfg.fraction, it)
        utility, privacy = sub_labels[0], tuple(sub_labels[1:])
        if method == FULL_BASELINE:
            train_z, test_z = sub_train, bundle.test
        else:
            pc = ProjectionConfig(
                method=method, k=k, rho=cfg.rho, rho_prime=cfg.rho_prime,
                privacy_weights=weights,
                seed=mix(cell_seed, "fit", it) if method == "RANDOM" else None)
            model = fit_method(sub_train, utility, privacy, pc)
            train_z = project(model, sub_train)
            test_z = project(model, bundle.test)
        reports = train_eval(train_z, (utility, *privacy), test_z,
                             (bundle.test_utility, *bundle.test_privacy),
                             cfg.classifier)
        acc_u[it] = reports[0].accuracy
        acc_p[:, it] = [report.accuracy for report in reports[1:]]
    return acc_u, acc_p


def reference_point(bundle, method, k, weights, cfg):
    def std(values):
        return float(values.std(ddof=1)) if values.size > 1 else 0.0

    try:
        acc_u, acc_p = reference_cell(bundle, method, k, weights, cfg)
    except PrivprojError as exc:
        nan_p = (math.nan,) * bundle.n_privacy
        return TradeoffPoint(method, k, weights, math.nan, math.nan, nan_p,
                             nan_p, {beta: math.nan for beta in cfg.betas},
                             status=f"failed: {type(exc).__name__}: {exc}")
    means = tuple(float(row.mean()) for row in acc_p)
    scored = (max(means) if cfg.scored_privacy == "max" else means[0]) \
        if means else None
    acc_u_mean = float(acc_u.mean())
    perf = {beta: acc_u_mean if scored is None
            else performance(acc_u_mean, scored, beta) for beta in cfg.betas}
    return TradeoffPoint(method, k, weights, acc_u_mean, std(acc_u), means,
                         tuple(std(row) for row in acc_p), perf)


def reference_sweep(cfg, bundle):
    cells = [(FULL_BASELINE, bundle.train.n_features, ())]
    cells += [(g.method, k, w) for g in cfg.methods for k in g.k_values
              for w in g.weight_rows]
    return [reference_point(bundle, *cell, cfg) for cell in cells]


def csv_bytes(points, path):
    csv_path, _ = emit_tradeoff_curve(points, path)
    with open(csv_path, "rb") as fh:
        return fh.read()


def small_config(**overrides):
    base = dict(
        methods=(MethodGrid("DCA", (1,)),),
        classifier=ClassifierSpec("KNN", 5),
        iterations=3, fraction=0.5, betas=(1.0,), seed=17)
    base.update(overrides)
    return ExperimentConfig(**base)


class TestPerformance:
    def test_published_table_row(self):
        assert performance(0.8624, 0.5841, 1.0) == pytest.approx(
            1.2783, abs=1e-12)

    def test_beta_zero_returns_utility(self):
        assert performance(0.7, 0.9, 0.0) == 0.7

    def test_perfect_privacy_attack_earns_nothing(self):
        assert performance(0.5, 1.0, 7.3) == 0.5

    def test_linear_in_beta(self):
        betas = np.linspace(0, 5, 11)
        values = [performance(0.8, 0.6, b) for b in betas]
        diffs = np.diff(values)
        assert np.allclose(diffs, diffs[0], atol=1e-12)

    def test_non_increasing_in_privacy_accuracy(self):
        values = [performance(0.8, p, 2.0) for p in np.linspace(0, 1, 21)]
        assert all(a >= b for a, b in zip(values, values[1:]))

    @pytest.mark.parametrize("args", [
        (1.2, 0.5, 1.0), (-0.1, 0.5, 1.0), (0.5, 1.3, 1.0),
        (0.5, -0.2, 1.0), (0.5, 0.5, -1.0),
    ])
    def test_rejects_out_of_range(self, args):
        with pytest.raises(InputError):
            performance(*args)


class TestConfigValidation:
    def test_unknown_method(self):
        with pytest.raises(InputError):
            MethodGrid("LDA", (1,))

    def test_bad_k_values(self):
        with pytest.raises(InputError):
            MethodGrid("PCA", ())
        for bad in (0, 1.5, True, None, math.nan, math.inf):
            with pytest.raises(InputError):
                MethodGrid("PCA", (1, bad))

    def test_empty_weight_rows(self):
        with pytest.raises(InputError):
            MethodGrid("RUCA", (1,), ())

    def test_sequences_must_not_be_strings(self):
        # A string would split into characters: "40" into weights (4, 0).
        for k_values, weight_rows in (("1", ((1.0,),)), ((1,), "40"),
                                      ((1,), ("40",)), ((1,), None),
                                      ((1,), (None,))):
            with pytest.raises(InputError, match="must be a sequence"):
                MethodGrid("RUCA", k_values, weight_rows)

    def test_weight_rows_only_for_ruca(self):
        # A row would refit the same projection (RANDOM: with a new salt)
        # under a weight label that had no effect.
        for method in ("DCA", "RANDOM"):
            with pytest.raises(InputError):
                MethodGrid(method, (1,), ((1.0,), (16.0,)))
            with pytest.raises(InputError):
                MethodGrid(method, (1,), ((), ()))
        assert MethodGrid("RUCA", (1,), ((1.0,), (16.0,))).weight_rows == (
            (1.0,), (16.0,))

    @pytest.mark.parametrize("overrides", [
        {"methods": ()}, {"iterations": 0}, {"fraction": 0.0},
        {"fraction": 1.5}, {"betas": (-1.0,)},
        {"scored_privacy": "median"}, {"betas": (math.nan,)},
        {"betas": (math.inf,)}, {"rho": -1.0}, {"rho_prime": math.nan},
        {"iterations": True}, {"iterations": np.True_}, {"fraction": True},
        {"fraction": np.True_}, {"iterations": None},
        {"iterations": math.nan}, {"iterations": math.inf}, {"seed": 1.5},
        {"fraction": None}, {"fraction": "0.5"}, {"betas": None},
        {"betas": "12"}, {"betas": ("1",)}, {"rho": "x"}, {"rho_prime": "x"},
        {"classifier": None}, {"methods": "DCA"}, {"methods": ("DCA",)},
    ])
    def test_config_invariants(self, overrides):
        with pytest.raises(InputError):
            small_config(**overrides)

    def test_config_json_round_trip(self):
        cfg = ExperimentConfig(
            methods=(MethodGrid("PCA", (1, 2)),
                     MethodGrid("RUCA", (1,), ((1.0, 0.0), (16.0, 0.0)))),
            classifier=ClassifierSpec("NEAREST_CENTROID", 1),
            iterations=4, fraction=0.25, betas=(0.5, 1.0), seed=9,
            scored_privacy="max", rho=1e-3, rho_prime=0.0)
        assert config_from_json(config_to_json(cfg)) == cfg

    def test_config_json_defaults_are_the_dataclass_defaults(self):
        cfg = config_from_json('{"methods": [{"method": "PCA", "k_values": '
                               '[1]}], "iterations": 2, "fraction": 0.5}')
        assert cfg == ExperimentConfig(
            methods=(MethodGrid("PCA", (1,)),), classifier=ClassifierSpec(),
            iterations=2, fraction=0.5)
        assert cfg.betas == (1.0,) and cfg.scored_privacy == "first"

    def test_cells_carry_the_ridges(self):
        cfg = small_config(methods=(MethodGrid("PCA", (1, 2)),
                                    MethodGrid("RUCA", (1,), ((1.0,), (2.0,)))),
                           rho=1e-3, rho_prime=0.0)
        assert cfg.cells == tuple(
            ProjectionConfig(method, k, rho=1e-3, rho_prime=0.0,
                             privacy_weights=weights)
            for method, k, weights in (("PCA", 1, ()), ("PCA", 2, ()),
                                       ("RUCA", 1, (1.0,)),
                                       ("RUCA", 1, (2.0,))))

    def test_config_json_missing_key(self):
        with pytest.raises(InputError):
            config_from_json('{"methods": [{"method": "PCA", "k_values": [1]}]}')

    def test_config_json_unparseable(self):
        with pytest.raises(InputError):
            config_from_json("{nope")


class TestRunSweep:
    def test_baseline_row_first(self):
        bundle = small_bundle()
        points = run_sweep(small_config(), bundle)
        assert points[0].method == FULL_BASELINE
        assert points[0].k == bundle.train.n_features
        assert points[0].privacy_weights == ()

    def test_deterministic_across_runs(self, tmp_path):
        bundle = small_bundle()
        cfg = small_config(methods=(MethodGrid("DCA", (1, 2)),
                                    MethodGrid("PCA", (1,))))
        a = run_sweep(cfg, bundle)
        b = run_sweep(cfg, bundle)
        assert a == b
        assert (csv_bytes(a, tmp_path / "a")
                == csv_bytes(b, tmp_path / "b"))

    def test_cells_project_and_score_on_the_calling_thread(self,
                                                           monkeypatch):
        bundle = small_bundle()
        cfg = small_config(methods=(MethodGrid("DCA", (1, 2)),
                                    MethodGrid("PCA", (1,))))
        projecting, scoring = [], []

        def recording_project(model, d):
            projecting.append(threading.get_ident())
            return project(model, d)

        def recording_train_eval(*args):
            scoring.append(threading.get_ident())
            return train_eval(*args)

        monkeypatch.setattr(experiment, "project", recording_project)
        monkeypatch.setattr(experiment, "train_eval", recording_train_eval)
        run_sweep(cfg, bundle)
        # 3 iterations x 3 projected cells x (subsample, test)
        assert projecting == [threading.get_ident()] * 18
        # 3 iterations x (baseline + 3 cells)
        assert scoring == [threading.get_ident()] * 12

    @pytest.mark.parametrize("threads", [0, 1, 2])
    def test_threads_keyword_is_ignored(self, monkeypatch, threads):
        """`threads` stays for callers that still pass it: any value gives
        the points of a sweep without it, and starts no thread."""
        bundle = small_bundle()
        cfg = small_config(methods=(MethodGrid("DCA", (1, 2)),
                                    MethodGrid("PCA", (1,))))
        expected = run_sweep(cfg, bundle)

        def no_thread(self):
            raise AssertionError(f"sweep started a thread: {self!r}")

        monkeypatch.setattr(threading.Thread, "start", no_thread)
        assert run_sweep(cfg, bundle, threads=threads) == expected

    def test_each_iteration_is_scored_before_the_next_is_fitted(
            self, monkeypatch):
        """Cells run in order: an iteration's one fit, then the scoring of
        the baseline and every cell, before the next iteration's fit."""
        bundle = small_bundle()
        cfg = small_config(methods=(MethodGrid("DCA", (1, 2)),
                                    MethodGrid("PCA", (1,))), iterations=4)
        events = []

        def recording_fit_methods(*args):
            events.append("fit")
            return fit_methods(*args)

        def recording_train_eval(*args):
            events.append("score")
            return train_eval(*args)

        monkeypatch.setattr(experiment, "fit_methods", recording_fit_methods)
        monkeypatch.setattr(experiment, "train_eval", recording_train_eval)
        points = run_sweep(cfg, bundle)
        assert not any(p.failed for p in points)
        assert events == (["fit"] + ["score"] * 4) * cfg.iterations

    def test_failing_projection_fails_its_cell_alone(self, tmp_path,
                                                     monkeypatch):
        """A PrivprojError from project is the outcome of that cell in that
        iteration, with the status it raised; every other row is the row
        of a sweep without the failure."""
        bundle = small_bundle(seed=4)
        cfg = small_config(methods=(MethodGrid("DCA", (1, 2)),
                                    MethodGrid("PCA", (1,))))
        clean = run_sweep(cfg, bundle)
        calls = []

        def failing_project(model, d):
            # The DCA k=2 cell's projection of iteration 1's subsample.
            if model.config.method == "DCA" and model.config.k == 2:
                calls.append(d)
                if len(calls) == 3:
                    raise DimensionMismatch("injected projection failure")
            return project(model, d)

        monkeypatch.setattr(experiment, "project", failing_project)
        points = run_sweep(cfg, bundle)
        assert points[2].status == (
            "failed: DimensionMismatch: injected projection failure")
        assert math.isnan(points[2].acc_u_mean)
        # Iterations 0 and 1 projected; the failed cell is not fitted again.
        assert len(calls) == 3
        assert (csv_bytes(points[:2] + points[3:], tmp_path / "rest")
                == csv_bytes(clean[:2] + clean[3:], tmp_path / "clean"))

    def test_aggregation_matches_per_iteration_values(self):
        bundle = small_bundle()
        cfg = small_config(iterations=4)
        point = run_sweep(cfg, bundle)[1]
        acc_u, acc_p = reference_cell(bundle, "DCA", 1, (), cfg)
        assert point.acc_u_mean == float(acc_u.mean())
        assert point.acc_u_std == float(acc_u.std(ddof=1))
        assert point.acc_p_means[0] == float(acc_p[0].mean())
        assert point.acc_p_stds[0] == float(acc_p[0].std(ddof=1))

    def test_performance_invariant_on_every_row(self):
        bundle = small_bundle()
        cfg = small_config(betas=(0.0, 0.5, 1.0, 2.0))
        for p in run_sweep(cfg, bundle):
            for beta in cfg.betas:
                assert p.performance[beta] == (
                    p.acc_u_mean + beta * (1.0 - p.acc_p_means[0]))

    def test_ruca_zero_row_equals_dca_row(self):
        bundle = small_bundle()
        cfg = small_config(methods=(MethodGrid("DCA", (2,)),
                                    MethodGrid("RUCA", (2,), ((0.0,),))))
        points = run_sweep(cfg, bundle)
        dca = next(p for p in points if p.method == "DCA")
        ruca = next(p for p in points if p.method == "RUCA")
        assert ruca.acc_u_mean == dca.acc_u_mean
        assert ruca.acc_p_means == dca.acc_p_means

    def test_full_rank_pca_matches_baseline(self):
        """An orthonormal full-rank projection preserves distances, so the
        classifier output — and hence every accuracy — matches the
        no-projection baseline exactly."""
        bundle = small_bundle(n=160, m=4)
        cfg = small_config(methods=(MethodGrid("PCA", (4,)),),
                           iterations=1, fraction=1.0)
        points = run_sweep(cfg, bundle)
        full = next(p for p in points if p.method == FULL_BASELINE)
        pca = next(p for p in points if p.method == "PCA")
        assert pca.acc_u_mean == full.acc_u_mean
        assert pca.acc_p_means == full.acc_p_means

    def test_failed_cell_recorded_not_raised(self):
        bundle = small_bundle(m=5)
        cfg = small_config(methods=(MethodGrid("DCA", (1,)),
                                    MethodGrid("MDR", (12,))))
        points = run_sweep(cfg, bundle)
        good = next(p for p in points if p.method == "DCA")
        bad = next(p for p in points if p.method == "MDR")
        assert good.status == "ok" and not good.failed
        assert bad.failed and bad.status.startswith("failed: ")
        assert math.isnan(bad.acc_u_mean)
        assert all(math.isnan(v) for v in bad.performance.values())

    @pytest.mark.parametrize("make_bundle, scored", [
        (functools.partial(small_bundle, seed=3, m=6), "first"),
        (bits_bundle, "max")])
    def test_csv_bytes_match_per_cell_reference(self, tmp_path, make_bundle,
                                                scored):
        """The iteration-major sweep (shared scatters and pencils, one
        stacked eigensolve per iteration) writes the CSV bytes of fitting
        and scoring every cell alone."""
        bundle = make_bundle()
        n_privacy = bundle.n_privacy
        cfg = small_config(
            methods=(MethodGrid("PCA", (1, 3)), MethodGrid("DCA", (1, 2)),
                     MethodGrid("MDR", (1, 2)),
                     MethodGrid("RUCA", (1, 2),
                                ((0.0,) * n_privacy, (4.0,) * n_privacy,
                                 (16.0,) + (0.0,) * (n_privacy - 1))),
                     MethodGrid("RANDOM", (2,))),
            iterations=3, betas=(0.5, 1.0), scored_privacy=scored)
        got = csv_bytes(run_sweep(cfg, bundle),
                        tmp_path / "sweep")
        assert got == csv_bytes(reference_sweep(cfg, bundle),
                                tmp_path / "reference")
        assert b"failed" not in got

    @pytest.mark.parametrize("bad_grid, fail_pca_solve, status", [
        (MethodGrid("DCA", (9,)), False,
         "failed: InvalidK: k=9 out of range for dim 5"),
        (MethodGrid("PCA", (6,)), False,
         "failed: InvalidK: k=6 out of range 1..5"),
        (MethodGrid("PCA", (1,)), True,
         "failed: NoConvergence: stand-in solver failed"),
    ])
    def test_failing_cell_leaves_other_rows_unchanged(
            self, tmp_path, monkeypatch, bad_grid, fail_pca_solve, status):
        """A stack spans cells, so one failing cell must fail alone, with
        the status a per-cell fit gives, and leave every other row as a
        sweep without that cell writes it."""
        if fail_pca_solve:
            # The solver fails on every total scatter, PCA's matrix.
            poisoned = []
            total_scatter = projections.total_scatter

            def recording(d):
                mean, s_bar = total_scatter(d)
                poisoned.append(s_bar)
                return mean, s_bar

            monkeypatch.setattr(projections, "total_scatter", recording)
            monkeypatch.setattr(linalg, "sym_eig",
                                failing_solver(linalg.sym_eig, poisoned))
        bundle = small_bundle(seed=2)
        good = (MethodGrid("MDR", (1,)),)
        cfg = small_config(methods=(bad_grid, *good))
        points = run_sweep(cfg, bundle)
        bad = points[1]
        assert bad.status == status
        assert bad.status == reference_point(bundle, bad.method, bad.k,
                                             bad.privacy_weights, cfg).status
        rest = [p for i, p in enumerate(points) if i != 1]
        alone = run_sweep(small_config(methods=good), bundle)
        assert not any(p.failed for p in alone)
        assert (csv_bytes(rest, tmp_path / "rest")
                == csv_bytes(alone, tmp_path / "alone"))

    def test_not_positive_definite_cell_fails_alone(self, tmp_path):
        """A tiny ridge leaves MDR's rank-deficient privacy scatter
        singular; DCA's total-scatter denominator stays definite."""
        bundle = small_bundle(seed=2)
        cfg = small_config(methods=(MethodGrid("MDR", (1, 2)),
                                    MethodGrid("DCA", (1,))), rho=1e-300)
        points = run_sweep(cfg, bundle)
        for bad in points[1:3]:
            assert bad.status.startswith(
                "failed: NotPositiveDefinite: pivot ")
            assert bad.status == reference_point(
                bundle, bad.method, bad.k, bad.privacy_weights, cfg).status
        alone = run_sweep(small_config(methods=(MethodGrid("DCA", (1,)),),
                                       rho=1e-300), bundle)
        assert not any(p.failed for p in alone)
        assert (csv_bytes([points[0], points[3]], tmp_path / "rest")
                == csv_bytes(alone, tmp_path / "alone"))

    def test_privacy_accuracy_non_increasing_in_weight(self):
        bundle = tradeoff_bundle(seed=31, n_train=800, n_test=800, m=6)
        grid = (0.0, 1.0, 10.0, 100.0, 1000.0)
        cfg = small_config(
            methods=(MethodGrid("RUCA", (1,), tuple((w,) for w in grid)),),
            iterations=8, fraction=0.5, seed=31)
        pts = [p for p in run_sweep(cfg, bundle) if p.method == "RUCA"]
        assert [p.privacy_weights[0] for p in pts] == list(grid)
        for a, b in zip(pts, pts[1:]):
            slack = 2.0 * math.sqrt((a.acc_p_stds[0] ** 2 +
                                     b.acc_p_stds[0] ** 2) / cfg.iterations)
            assert b.acc_p_means[0] <= a.acc_p_means[0] + slack

    def test_weight_grid_beats_endpoints_on_priced_criterion(self):
        """Across seeds, some intermediate-or-extreme weight choice should
        match or beat both the unpriced fit (DCA) and the pure-suppression
        fit (MDR) on the beta=1 criterion in at least 80% of trials."""
        wins = 0
        seeds = range(25)
        for seed in seeds:
            bundle = tradeoff_bundle(seed=seed, n_train=600, n_test=800, m=6)
            cfg = ExperimentConfig(
                methods=(MethodGrid("DCA", (1,)), MethodGrid("MDR", (1,)),
                         MethodGrid("RUCA", (1,),
                                    ((0.0,), (1.0,), (4.0,), (16.0,),
                                     (64.0,)))),
                classifier=ClassifierSpec("KNN", 5), iterations=8,
                fraction=0.5, betas=(1.0,), seed=seed)
            perf = {}
            ruca_best = -math.inf
            for p in run_sweep(cfg, bundle):
                if p.method == "RUCA":
                    ruca_best = max(ruca_best, p.performance[1.0])
                elif p.method in ("DCA", "MDR"):
                    perf[p.method] = p.performance[1.0]
            wins += (ruca_best >= perf["DCA"] and ruca_best >= perf["MDR"])
        assert wins >= 0.8 * len(seeds)


def sample_points():
    return [
        TradeoffPoint(FULL_BASELINE, 5, (), 0.91, 0.01, (0.82,), (0.02,),
                      {0.5: 0.91 + 0.5 * 0.18, 1.0: 0.91 + 0.18}),
        TradeoffPoint("DCA", 1, (), 0.875, 0.012, (0.75,), (0.03,),
                      {0.5: 1.0, 1.0: 1.125}),
        TradeoffPoint("DCA", 2, (), 0.9, 0.01, (0.8,), (0.02,),
                      {0.5: 1.0, 1.0: 1.1}),
        TradeoffPoint("RUCA", 1, (4.0, 0.0), 0.85, 0.02, (0.55,), (0.04,),
                      {0.5: 1.075, 1.0: 1.3}),
        TradeoffPoint("MDR", 1, (), math.nan, math.nan, (math.nan,),
                      (math.nan,), {0.5: math.nan, 1.0: math.nan},
                      status="failed: NotPositiveDefinite: boom"),
    ]


class TestEmission:
    def test_csv_columns_and_rows(self, tmp_path):
        csv_path, svg_path = emit_tradeoff_curve(
            sample_points(), tmp_path / "tradeoff", betas=(0.5, 1.0))
        rows = read_tradeoff_csv(csv_path)
        assert list(rows[0].keys()) == [
            "method", "k", "privacy_weights", "acc_u_mean", "acc_u_std",
            "acc_p0_mean", "acc_p0_std", "perf@0.5", "perf@1", "status"]
        assert len(rows) == 5
        assert rows[0]["method"] == FULL_BASELINE
        assert rows[3]["privacy_weights"] == "4;0"
        assert float(rows[3]["acc_u_mean"]) == 0.85

    def test_failed_row_has_status_and_empty_values(self, tmp_path):
        csv_path, _ = emit_tradeoff_curve(sample_points(),
                                          tmp_path / "t", betas=(1.0,))
        failed = read_tradeoff_csv(csv_path)[-1]
        assert failed["status"].startswith("failed: ")
        assert failed["acc_u_mean"] == ""
        assert failed["perf@1"] == ""

    def test_values_round_trip_exactly(self, tmp_path):
        pts = sample_points()[:2]
        csv_path, _ = emit_tradeoff_curve(pts, tmp_path / "t", betas=(1.0,))
        rows = read_tradeoff_csv(csv_path)
        for point, row in zip(pts, rows):
            assert float(row["acc_u_mean"]) == point.acc_u_mean
            assert float(row["acc_p0_mean"]) == point.acc_p_means[0]
            assert float(row["perf@1"]) == point.performance[1.0]

    def test_points_round_trip_through_csv(self, tmp_path):
        first, _ = emit_tradeoff_curve(sample_points(), tmp_path / "a",
                                       betas=(0.5, 1.0))
        points = read_tradeoff_points(first)
        assert points[-1].failed and math.isnan(points[-1].acc_u_mean)
        second, _ = emit_tradeoff_curve(points, tmp_path / "b")
        assert open(first, "rb").read() == open(second, "rb").read()

    def test_emission_deterministic(self, tmp_path):
        a_csv, a_svg = emit_tradeoff_curve(sample_points(), tmp_path / "a",
                                           betas=(0.5, 1.0))
        b_csv, b_svg = emit_tradeoff_curve(sample_points(), tmp_path / "b",
                                           betas=(0.5, 1.0))
        assert open(a_csv, "rb").read() == open(b_csv, "rb").read()
        assert open(a_svg, "rb").read() == open(b_svg, "rb").read()

    def test_single_point_emits_marker_and_baseline(self, tmp_path):
        pts = sample_points()[:2]
        _, svg_path = emit_tradeoff_curve(pts, tmp_path / "t", betas=(1.0,))
        svg = open(svg_path).read()
        assert svg.count("<circle") == 1
        assert "stroke-dasharray" in svg
        assert "<polyline" not in svg

    def test_two_methods_two_polylines_with_legend(self):
        pts = [
            TradeoffPoint("DCA", k, (), 0.8 + 0.01 * k, 0.0, (0.7,), (0.0,),
                          {1.0: 1.1}) for k in (1, 2, 3)
        ] + [
            TradeoffPoint("PCA", k, (), 0.7 + 0.01 * k, 0.0, (0.75,), (0.0,),
                          {1.0: 0.95}) for k in (1, 2)
        ]
        svg = render_svg(pts, scored_task=0)
        assert svg.count("<polyline") == 2
        assert ">DCA</text>" in svg and ">PCA</text>" in svg

    def test_weighted_group_labeled_with_weights(self):
        pts = [TradeoffPoint("RUCA", k, (4.0,), 0.8, 0.0, (0.6,), (0.0,),
                             {1.0: 1.2}) for k in (1, 2)]
        svg = render_svg(pts, scored_task=0)
        assert ">RUCA[4]</text>" in svg

    def test_points_ordered_by_k_in_polyline(self):
        pts = [TradeoffPoint("DCA", k, (), 0.5 + 0.1 * k, 0.0,
                             (0.5 + 0.05 * k,), (0.0,), {1.0: 1.0})
               for k in (3, 1, 2)]
        svg = render_svg(pts, scored_task=0)
        line = next(l for l in svg.splitlines() if "<polyline" in l)
        xs = [float(pair.split(",")[1]) for pair in
              line.split('points="')[1].split('"')[0].split()]
        assert xs == sorted(xs, reverse=True)  # rising acc_u = falling y

    def test_svg_self_contained(self):
        svg = render_svg(sample_points(), scored_task=0)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "http://www.w3.org/2000/svg" in svg
        assert "href" not in svg and "url(" not in svg

    def test_empty_points_rejected(self, tmp_path):
        with pytest.raises(InputError):
            emit_tradeoff_curve([], tmp_path / "t")


class TestDataBundle:
    def test_dimension_mismatch_rejected(self):
        a = small_bundle(m=4)
        b = small_bundle(m=5)
        with pytest.raises(InputError):
            DataBundle(train=a.train, train_utility=a.train_utility,
                       train_privacy=a.train_privacy, test=b.test,
                       test_utility=b.test_utility,
                       test_privacy=b.test_privacy)

    def test_privacy_task_count_mismatch_rejected(self):
        a = small_bundle()
        with pytest.raises(InputError):
            DataBundle(train=a.train, train_utility=a.train_utility,
                       train_privacy=(), test=a.test,
                       test_utility=a.test_utility,
                       test_privacy=a.test_privacy)

    def test_labeling_length_mismatch_rejected(self):
        a = small_bundle()
        parts = dict(train=a.train, train_utility=a.train_utility,
                     train_privacy=a.train_privacy, test=a.test,
                     test_utility=a.test_utility, test_privacy=a.test_privacy)
        n = a.train.n_samples
        short_u = LabelSet(a.train_utility.labels[:-1],
                           a.train_utility.class_count)
        with pytest.raises(LengthMismatch, match=f"train utility labels: "
                           f"{n - 1} labels for {n} samples"):
            DataBundle(**{**parts, "train_utility": short_u})
        long_p = LabelSet(np.tile(a.test_privacy[0].labels, 2),
                          a.test_privacy[0].class_count)
        with pytest.raises(LengthMismatch, match=f"test p0 labels: {2 * n} "
                           f"labels for {n} samples"):
            DataBundle(**{**parts, "test_privacy": (long_p,)})

    def test_class_count_mismatch_rejected(self):
        a = small_bundle()
        parts = dict(train=a.train, train_utility=a.train_utility,
                     train_privacy=a.train_privacy, test=a.test,
                     test_utility=a.test_utility, test_privacy=a.test_privacy)
        c = a.train_privacy[0].class_count
        wide = LabelSet(a.test_privacy[0].labels, c + 1)
        with pytest.raises(DimensionMismatch, match=f"sex labels: {c} classes "
                           f"in train, {c + 1} in test"):
            DataBundle(**{**parts, "test_privacy": (wide,),
                          "privacy_names": ("sex",)})

    def test_default_privacy_names(self):
        a = small_bundle()
        b = DataBundle(train=a.train, train_utility=a.train_utility,
                       train_privacy=a.train_privacy, test=a.test,
                       test_utility=a.test_utility,
                       test_privacy=a.test_privacy)
        assert b.privacy_names == ("p0",)
