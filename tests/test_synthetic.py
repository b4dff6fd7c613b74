"""Tests for the synthetic data generators."""

import csv
import hashlib
from importlib import resources

import numpy as np
import pytest

from privproj import dataio
from privproj.dataio import load_csv, load_schema, recode_census_marital
from privproj.errors import InputError
from privproj.synthetic import tradeoff_bundle, write_adult_like_csv

SCHEMA = load_schema(resources.files("privproj.schemas") / "census_adult.json")


class TestTradeoffBundle:
    def test_shapes_and_counts(self):
        b = tradeoff_bundle(seed=5, n_train=300, n_test=200, m=7)
        assert b.train.x.shape == (7, 300)
        assert b.test.x.shape == (7, 200)
        assert b.train_utility.labels.shape == (300,)
        assert len(b.train_privacy) == 1
        assert b.privacy_names == ("confidential",)

    def test_deterministic(self):
        a = tradeoff_bundle(seed=11, n_train=100, n_test=50)
        b = tradeoff_bundle(seed=11, n_train=100, n_test=50)
        assert np.array_equal(a.train.x, b.train.x)
        assert np.array_equal(a.test.x, b.test.x)
        assert np.array_equal(a.train_utility.labels, b.train_utility.labels)

    def test_seed_changes_data(self):
        a = tradeoff_bundle(seed=11, n_train=100, n_test=50)
        b = tradeoff_bundle(seed=12, n_train=100, n_test=50)
        assert not np.array_equal(a.train.x, b.train.x)

    def test_train_test_independent_draws(self):
        b = tradeoff_bundle(seed=11, n_train=100, n_test=100)
        assert not np.array_equal(b.train.x, b.test.x)

    def test_mean_shifts_on_orthogonal_axes(self):
        """Utility shifts live on axis 0 and privacy shifts on axis 1;
        each label's class-mean difference along the other's axis and along
        the noise axes is only sampling noise."""
        b = tradeoff_bundle(seed=3, n_train=20000, n_test=10,
                            signal_u=2.0, signal_p=1.2)
        x, y = b.train.x, b.train_utility.labels
        s = b.train_privacy[0].labels
        gap_u = x[:, y == 1].mean(axis=1) - x[:, y == 0].mean(axis=1)
        gap_p = x[:, s == 1].mean(axis=1) - x[:, s == 0].mean(axis=1)
        assert gap_u[0] == pytest.approx(4.0, abs=0.15)
        assert gap_p[1] == pytest.approx(2.4, abs=0.15)
        assert abs(gap_u[2:]).max() < 0.1
        assert abs(gap_p[2:]).max() < 0.1
        assert abs(gap_u[1]) < 0.15 and abs(gap_p[0]) < 0.15

    def test_labels_independent_at_default_agreement(self):
        b = tradeoff_bundle(seed=9, n_train=20000, n_test=10)
        agree = (b.train_utility.labels == b.train_privacy[0].labels).mean()
        assert agree == pytest.approx(0.5, abs=0.03)

    def test_agreement_parameter(self):
        b = tradeoff_bundle(seed=9, n_train=20000, n_test=10, agreement=0.8)
        agree = (b.train_utility.labels == b.train_privacy[0].labels).mean()
        assert agree == pytest.approx(0.8, abs=0.03)

    def test_noise_correlation_planted(self):
        b = tradeoff_bundle(seed=4, n_train=20000, n_test=10,
                            signal_u=0.0, signal_p=0.0, noise_corr=0.8)
        corr = np.corrcoef(b.train.x[0], b.train.x[1])[0, 1]
        assert corr == pytest.approx(0.8, abs=0.03)

    @pytest.mark.parametrize("kwargs", [
        {"m": 1}, {"agreement": 0.4}, {"agreement": 1.0},
        {"noise_corr": 1.0}, {"noise_corr": -1.5},
    ])
    def test_rejects_bad_parameters(self, kwargs):
        with pytest.raises(InputError):
            tradeoff_bundle(seed=1, n_train=10, n_test=10, **kwargs)


class TestAdultLikeCsv:
    def test_header_matches_schema_columns(self, tmp_path):
        path = tmp_path / "a.csv"
        write_adult_like_csv(path, seed=1, n_rows=5)
        with open(path, newline="") as fh:
            header = next(csv.reader(fh))
        assert header == [c.name for c in SCHEMA.columns]

    def test_loads_through_schema_with_recoder(self, tmp_path):
        path = tmp_path / "a.csv"
        write_adult_like_csv(path, seed=1, n_rows=1000)
        loaded = load_csv(path, SCHEMA,
                          recoders={"marital-status": recode_census_marital})
        dataset, labels = loaded
        assert dataset.n_features == 29
        assert loaded.n_rows_kept + loaded.n_rows_dropped == 1000
        assert set(labels) == {"marital-status", "sex", "income"}
        assert labels["marital-status"].class_count == 3

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_adult_like_csv(a, seed=77, n_rows=200)
        write_adult_like_csv(b, seed=77, n_rows=200)
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("seed, n_rows, missing_rate, sha256", [
        (3, 2000, 0.01,
         "ad45663dbf9f990131784ee95adf2939268a204f898c2976067d9bcd39a87d20"),
        (1, 1, 0.0,
         "589fca51dfa8b1817385943c45a7e101effd285e8c98c83667208678517d92ec"),
        (77, 200, 0.5,
         "06b9bd1e3fb9584bdf33ee20b25fd1afa8499186cbbc38c93cb64450fd311113"),
        # More than one write block, the last one partial.
        (101, 8000, 0.01,
         "99a121eac4cb9ac6d35238d9053946cc4fcafbc0f5fc35070ec7535b115b4fd4"),
    ])
    def test_pinned_bytes(self, tmp_path, seed, n_rows, missing_rate, sha256):
        """The output bytes are frozen: the census fixtures and the
        benchmark's recorded digests are built from them."""
        path = tmp_path / "a.csv"
        write_adult_like_csv(path, seed=seed, n_rows=n_rows,
                             missing_rate=missing_rate)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == sha256

    @pytest.mark.parametrize("block_rows", [1, 3, 4096])
    def test_bytes_do_not_depend_on_block_rows(self, tmp_path, monkeypatch,
                                               block_rows):
        monkeypatch.setattr(dataio, "BLOCK_ROWS", block_rows)
        path = tmp_path / "a.csv"
        write_adult_like_csv(path, seed=3, n_rows=2000, missing_rate=0.01)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == (
            "ad45663dbf9f990131784ee95adf2939268a204f898c2976067d9bcd39a87d20")

    def test_seed_changes_rows(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_adult_like_csv(a, seed=77, n_rows=200)
        write_adult_like_csv(b, seed=78, n_rows=200)
        assert a.read_bytes() != b.read_bytes()

    def test_zero_missing_rate_keeps_all_rows(self, tmp_path):
        path = tmp_path / "a.csv"
        write_adult_like_csv(path, seed=3, n_rows=400, missing_rate=0.0)
        loaded = load_csv(path, SCHEMA,
                          recoders={"marital-status": recode_census_marital})
        assert loaded.n_rows_dropped == 0
        assert loaded.n_rows_kept == 400

    def test_missing_rate_drops_rows(self, tmp_path):
        path = tmp_path / "a.csv"
        write_adult_like_csv(path, seed=3, n_rows=2000, missing_rate=0.05)
        loaded = load_csv(path, SCHEMA,
                          recoders={"marital-status": recode_census_marital})
        assert loaded.n_rows_dropped > 0

    def test_income_marital_dependence_planted(self, tmp_path):
        """High income should make the married group more likely — the
        correlation that creates the privacy leak under study."""
        path = tmp_path / "a.csv"
        write_adult_like_csv(path, seed=5, n_rows=6000, missing_rate=0.0)
        married = {"Married-civ-spouse", "Married-AF-spouse",
                   "Married-spouse-absent"}
        rates = {}
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        for income in ("<=50K", ">50K"):
            group = [r for r in rows if r["income"] == income]
            rates[income] = (sum(r["marital-status"] in married
                                 for r in group) / len(group))
        assert rates[">50K"] > rates["<=50K"] + 0.2

    def test_spouse_relationship_only_when_married(self, tmp_path):
        path = tmp_path / "a.csv"
        write_adult_like_csv(path, seed=6, n_rows=3000, missing_rate=0.0)
        married = {"Married-civ-spouse", "Married-AF-spouse",
                   "Married-spouse-absent"}
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                is_spouse = row["relationship"] in ("Husband", "Wife")
                assert is_spouse == (row["marital-status"] in married)
                if row["relationship"] == "Husband":
                    assert row["sex"] == "Male"
                if row["relationship"] == "Wife":
                    assert row["sex"] == "Female"

    @pytest.mark.parametrize("kwargs", [
        {"n_rows": 0}, {"n_rows": 10, "missing_rate": 1.0},
        {"n_rows": 10, "missing_rate": -0.1},
    ])
    def test_rejects_bad_parameters(self, tmp_path, kwargs):
        with pytest.raises(InputError):
            write_adult_like_csv(tmp_path / "a.csv", seed=1, **kwargs)
