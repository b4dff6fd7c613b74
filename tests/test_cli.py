"""End-to-end tests for the command-line interface."""

import csv
import hashlib
import json
import threading
import tracemalloc
import warnings
from importlib import resources

import numpy as np
import pytest

import privproj
from privproj.cli import main
from privproj.data import Dataset, LabelSet
from privproj.dataio import (load_dataset_csv, load_labels_csv,
                             save_dataset_csv, save_labels_csv)
from privproj import cli
from privproj.synthetic import tradeoff_bundle, write_adult_like_csv

TOY_SCHEMA = {
    "columns": [
        {"name": "height", "kind": "numeric"},
        {"name": "color", "kind": "categorical",
         "categories": ["a", "b", "c"]},
        {"name": "group", "kind": "label", "categories": ["yes", "no"]},
    ]
}


@pytest.fixture
def toy_schema_path(tmp_path):
    path = tmp_path / "schema.json"
    path.write_text(json.dumps(TOY_SCHEMA))
    return path


def write_raw_rows(path, rows):
    lines = ["height,color,group"] + [",".join(r) for r in rows]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def bundle_files(tmp_path):
    """Small trade-off bundle saved as the six CSVs the sweep consumes."""
    b = tradeoff_bundle(seed=5, n_train=80, n_test=60, m=4)
    paths = {}
    for tag, data, util, priv in (
            ("train", b.train, b.train_utility, b.train_privacy[0]),
            ("test", b.test, b.test_utility, b.test_privacy[0])):
        paths[f"{tag}_data"] = tmp_path / f"{tag}.csv"
        paths[f"{tag}_utility"] = tmp_path / f"{tag}.utility.csv"
        paths[f"{tag}_privacy"] = tmp_path / f"{tag}.privacy.csv"
        save_dataset_csv(data, paths[f"{tag}_data"])
        save_labels_csv(util, paths[f"{tag}_utility"])
        save_labels_csv(priv, paths[f"{tag}_privacy"])
    return paths


def write_config(path, **overrides):
    doc = {
        "methods": [{"method": "PCA", "k_values": [1]}],
        "classifier": {"kind": "KNN", "k_neighbors": 3},
        "iterations": 1,
        "fraction": 1.0,
        "betas": [1.0],
    }
    doc.update(overrides)
    path.write_text(json.dumps(doc))
    return path


def sweep_args(paths, config, out_dir, seed="9"):
    return ["sweep", "--config", str(config),
            "--train-data", str(paths["train_data"]),
            "--train-utility", str(paths["train_utility"]),
            "--train-privacy", str(paths["train_privacy"]),
            "--test-data", str(paths["test_data"]),
            "--test-utility", str(paths["test_utility"]),
            "--test-privacy", str(paths["test_privacy"]),
            "--seed", seed, "--out-dir", str(out_dir)]


class TestPreprocess:
    def test_reports_counts_and_writes_outputs(self, tmp_path,
                                               toy_schema_path, capsys):
        raw = tmp_path / "raw.csv"
        write_raw_rows(raw, [
            ("1.0", "a", "yes"), ("2.0", "b", "no"), ("3.0", "c", "yes"),
            ("", "a", "no"), ("5.0", "b", "yes"), ("6.0", "a", "no"),
        ])
        code = main(["preprocess", "--input", str(raw),
                     "--schema", str(toy_schema_path),
                     "--output", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "kept 5 rows, dropped 1 rows" in out
        assert "features: 3" in out  # height + 2 bits for 3 colors
        dataset = load_dataset_csv(tmp_path / "out.csv")
        labels = load_labels_csv(tmp_path / "out.group.csv")
        assert dataset.x.shape == (3, 5)
        assert labels.labels.shape == (5,)

    def test_dotted_prefix_is_kept_literally(self, tmp_path, toy_schema_path,
                                             capsys):
        raw = tmp_path / "raw.csv"
        write_raw_rows(raw, [("1.0", "a", "yes"), ("2.0", "b", "no")])
        prefix = tmp_path / "out" / "run.v2"
        code = main(["preprocess", "--input", str(raw),
                     "--schema", str(toy_schema_path),
                     "--output", str(prefix)])
        assert code == 0
        assert sorted(p.name for p in prefix.parent.iterdir()) == [
            "run.v2.csv", "run.v2.group.csv"]
        assert load_dataset_csv(tmp_path / "out" / "run.v2.csv").n_samples == 2

    def test_balance_equalizes_joint_classes(self, tmp_path,
                                             toy_schema_path, capsys):
        raw = tmp_path / "raw.csv"
        write_raw_rows(raw, [("%.1f" % i, "a", "yes" if i % 3 else "no")
                             for i in range(1, 13)])
        code = main(["preprocess", "--input", str(raw),
                     "--schema", str(toy_schema_path),
                     "--balance-on", "group", "--seed", "3",
                     "--output", str(tmp_path / "out")])
        assert code == 0
        labels = load_labels_csv(tmp_path / "out.group.csv")
        counts = labels.counts()
        assert counts[0] == counts[1]

    def test_clean_balanced_input_passes_through(self, tmp_path,
                                                 toy_schema_path, capsys):
        raw = tmp_path / "raw.csv"
        write_raw_rows(raw, [("1.0", "a", "yes"), ("2.0", "b", "no"),
                             ("3.0", "c", "yes"), ("4.0", "a", "no")])
        code = main(["preprocess", "--input", str(raw),
                     "--schema", str(toy_schema_path),
                     "--balance-on", "group", "--seed", "0",
                     "--output", str(tmp_path / "out")])
        assert code == 0
        assert load_dataset_csv(tmp_path / "out.csv").n_samples == 4

    def test_unknown_category_exits_2_naming_column(self, tmp_path,
                                                    toy_schema_path, capsys):
        raw = tmp_path / "raw.csv"
        write_raw_rows(raw, [("1.0", "zebra", "yes"), ("2.0", "b", "no")])
        code = main(["preprocess", "--input", str(raw),
                     "--schema", str(toy_schema_path),
                     "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert "color" in err and "zebra" in err

    def test_unknown_balance_label_exits_2(self, tmp_path, toy_schema_path,
                                           capsys):
        raw = tmp_path / "raw.csv"
        write_raw_rows(raw, [("1.0", "a", "yes"), ("2.0", "b", "no")])
        code = main(["preprocess", "--input", str(raw),
                     "--schema", str(toy_schema_path),
                     "--balance-on", "nope",
                     "--output", str(tmp_path / "out")])
        assert code == 2

    def test_repeated_balance_label_exits_2_naming_it(self, tmp_path,
                                                      toy_schema_path, capsys):
        raw = tmp_path / "raw.csv"
        write_raw_rows(raw, [("1.0", "a", "yes"), ("2.0", "b", "no")])
        code = main(["preprocess", "--input", str(raw),
                     "--schema", str(toy_schema_path),
                     "--balance-on", "group,group",
                     "--output", str(tmp_path / "out")])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: --balance-on names label columns more than once: "
            "['group']\n")
        assert not (tmp_path / "out.csv").exists()

    def test_unbalanced_table_freed_before_write(self, tmp_path, capsys,
                                                 monkeypatch):
        # While the balanced table is written, the one it was taken from
        # (4000 census rows, 0.93 MB) is no longer held.
        raw = tmp_path / "raw.csv"
        write_adult_like_csv(raw, seed=3, n_rows=4000, missing_rate=0.0)
        schema = resources.files("privproj.schemas") / "census_adult.json"
        held = []
        save = cli.save_dataset_csv

        def spy(dataset, path):
            held.append(tracemalloc.get_traced_memory()[0] - dataset.x.nbytes)
            save(dataset, path)

        monkeypatch.setattr(cli, "save_dataset_csv", spy)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            assert main(["preprocess", "--input", str(raw),
                         "--schema", str(schema), "--recode-census-marital",
                         "--balance-on", "marital-status,sex",
                         "--output", str(tmp_path / "out")]) == 0
        finally:
            tracemalloc.stop()
        unbalanced = 4000 * 29 * 8  # bytes: rows x census features x 8
        assert held[0] - base < 0.5 * unbalanced

    def test_oversized_field_exits_2_naming_line(self, tmp_path,
                                                 toy_schema_path, capsys):
        raw = tmp_path / "raw.csv"
        write_raw_rows(raw, [("1.0", "a", "yes"),
                             ("2.0", "b" * (csv.field_size_limit() + 1), "no")])
        code = main(["preprocess", "--input", str(raw),
                     "--schema", str(toy_schema_path),
                     "--output", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert f"{raw}:3: field larger than field limit" in err

    @pytest.mark.parametrize("columns", [
        [{"name": "height", "kind": "numeric"}, {"kind": "drop"}],
        5,
        [{"name": "color", "kind": "categorical", "categories": 5}],
    ])
    def test_malformed_schema_column_exits_2(self, tmp_path, columns, capsys):
        raw, schema = tmp_path / "raw.csv", tmp_path / "schema.json"
        write_raw_rows(raw, [("1.0", "a", "yes"), ("2.0", "b", "no")])
        schema.write_text(json.dumps({"columns": columns}))
        code = main(["preprocess", "--input", str(raw),
                     "--schema", str(schema),
                     "--output", str(tmp_path / "out")])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_missing_input_file_exits_2(self, tmp_path, toy_schema_path):
        code = main(["preprocess", "--input", str(tmp_path / "absent.csv"),
                     "--schema", str(toy_schema_path),
                     "--output", str(tmp_path / "out")])
        assert code == 2


class TestFitProjectEvaluate:
    def evaluate_accuracy(self, paths, train_data, test_data, capsys):
        code = main(["evaluate", "--train-data", str(train_data),
                     "--train-labels", str(paths["train_utility"]),
                     "--test-data", str(test_data),
                     "--test-labels", str(paths["test_utility"]),
                     "--k-neighbors", "3"])
        assert code == 0
        return json.loads(capsys.readouterr().out)

    def test_full_rank_pca_pipeline_matches_raw_evaluation(
            self, tmp_path, bundle_files, capsys):
        model_path = tmp_path / "model.json"
        code = main(["fit", "--data", str(bundle_files["train_data"]),
                     "--utility-labels", str(bundle_files["train_utility"]),
                     "--method", "PCA", "--k", "4",
                     "--out", str(model_path)])
        assert code == 0 and model_path.exists()
        proj_train = tmp_path / "ztrain.csv"
        proj_test = tmp_path / "ztest.csv"
        for src, dst in ((bundle_files["train_data"], proj_train),
                         (bundle_files["test_data"], proj_test)):
            assert main(["project", "--model", str(model_path),
                         "--data", str(src), "--out", str(dst)]) == 0
        capsys.readouterr()
        raw = self.evaluate_accuracy(bundle_files,
                                     bundle_files["train_data"],
                                     bundle_files["test_data"], capsys)
        projected = self.evaluate_accuracy(bundle_files, proj_train,
                                           proj_test, capsys)
        assert projected["accuracy"] == raw["accuracy"]
        assert projected["confusion"] == raw["confusion"]

    def test_projected_csv_has_component_headers(self, tmp_path,
                                                 bundle_files, capsys):
        model_path = tmp_path / "model.json"
        main(["fit", "--data", str(bundle_files["train_data"]),
              "--utility-labels", str(bundle_files["train_utility"]),
              "--method", "DCA", "--k", "2", "--out", str(model_path)])
        out_path = tmp_path / "z.csv"
        main(["project", "--model", str(model_path),
              "--data", str(bundle_files["train_data"]),
              "--out", str(out_path)])
        header = out_path.read_text().splitlines()[0]
        assert header == "z0,z1"

    def test_evaluate_self_is_perfect_with_one_neighbor(self, tmp_path,
                                                        bundle_files, capsys):
        code = main(["evaluate",
                     "--train-data", str(bundle_files["train_data"]),
                     "--train-labels", str(bundle_files["train_utility"]),
                     "--test-data", str(bundle_files["train_data"]),
                     "--test-labels", str(bundle_files["train_utility"]),
                     "--k-neighbors", "1"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["accuracy"] == 1.0

    def test_project_dimension_mismatch_exits_2(self, tmp_path,
                                                bundle_files, capsys):
        model_path = tmp_path / "model.json"
        main(["fit", "--data", str(bundle_files["train_data"]),
              "--utility-labels", str(bundle_files["train_utility"]),
              "--method", "PCA", "--k", "2", "--out", str(model_path)])
        narrow = tmp_path / "narrow.csv"
        save_dataset_csv(Dataset(np.zeros((2, 3))), narrow)
        assert main(["project", "--model", str(model_path),
                     "--data", str(narrow), "--out",
                     str(tmp_path / "z.csv")]) == 2

    @pytest.mark.parametrize("override", [
        {"k": None}, {"rho": "abc"}, {"privacy_weights": 5}, {"w": "x"},
        {"seed": "x"}, 5,
    ], ids=["k-null", "rho-str", "weights-int", "w-str", "seed-str",
            "not-object"])
    def test_project_malformed_model_exits_2(self, tmp_path, bundle_files,
                                             capsys, override):
        model_path = tmp_path / "model.json"
        assert main(["fit", "--data", str(bundle_files["train_data"]),
                     "--utility-labels", str(bundle_files["train_utility"]),
                     "--method", "PCA", "--k", "2",
                     "--out", str(model_path)]) == 0
        doc = json.loads(model_path.read_text())
        bad = {**doc, **override} if isinstance(override, dict) else override
        model_path.write_text(json.dumps(bad))
        assert main(["project", "--model", str(model_path),
                     "--data", str(bundle_files["train_data"]),
                     "--out", str(tmp_path / "z.csv")]) == 2

    def test_fit_random_without_seed_exits_2(self, tmp_path, bundle_files,
                                             capsys):
        assert main(["fit", "--data", str(bundle_files["train_data"]),
                     "--utility-labels", str(bundle_files["train_utility"]),
                     "--method", "RANDOM", "--k", "2",
                     "--out", str(tmp_path / "m.json")]) == 2

    def test_fit_mdr_without_privacy_exits_2(self, tmp_path, bundle_files,
                                             capsys):
        assert main(["fit", "--data", str(bundle_files["train_data"]),
                     "--utility-labels", str(bundle_files["train_utility"]),
                     "--method", "MDR", "--k", "1",
                     "--out", str(tmp_path / "m.json")]) == 2

    def test_fit_ruca_with_weights_and_privacy(self, tmp_path, bundle_files,
                                               capsys):
        model_path = tmp_path / "m.json"
        code = main(["fit", "--data", str(bundle_files["train_data"]),
                     "--utility-labels", str(bundle_files["train_utility"]),
                     "--privacy-labels", str(bundle_files["train_privacy"]),
                     "--method", "RUCA", "--k", "1",
                     "--privacy-weights", "4.0",
                     "--out", str(model_path)])
        assert code == 0
        doc = json.loads(model_path.read_text())
        assert doc["method"] == "RUCA"
        assert doc["privacy_weights"] == [4.0]

    def test_fit_mdr_records_no_privacy_weights(self, tmp_path, bundle_files,
                                                capsys):
        model_path = tmp_path / "m.json"
        assert main(["fit", "--data", str(bundle_files["train_data"]),
                     "--utility-labels", str(bundle_files["train_utility"]),
                     "--privacy-labels", str(bundle_files["train_privacy"]),
                     "--method", "MDR", "--k", "1",
                     "--privacy-weights", "3",
                     "--out", str(model_path)]) == 0
        assert json.loads(model_path.read_text())["privacy_weights"] == []

    def test_fit_overflowing_scatter_exits_2(self, tmp_path, bundle_files,
                                             capsys):
        huge = tmp_path / "huge.csv"
        data = load_dataset_csv(bundle_files["train_data"])
        save_dataset_csv(Dataset(data.x * 1e200), huge)
        # The error line is the whole report: no numpy overflow warning.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", "--data", str(huge),
                         "--utility-labels", str(bundle_files["train_utility"]),
                         "--method", "DCA", "--k", "1",
                         "--out", str(tmp_path / "m.json")])
        assert code == 2
        assert capsys.readouterr().err == \
            "error: s_bar contains non-finite entries\n"


class TestSweep:
    def test_minimal_sweep_produces_three_files(self, tmp_path,
                                                bundle_files, capsys):
        config = write_config(tmp_path / "config.json")
        out_dir = tmp_path / "out"
        assert main(sweep_args(bundle_files, config, out_dir)) == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["manifest.json", "tradeoff.csv", "tradeoff.svg"]

    def test_manifest_contents(self, tmp_path, bundle_files, capsys):
        config = write_config(tmp_path / "config.json")
        out_dir = tmp_path / "out"
        main(sweep_args(bundle_files, config, out_dir))
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["version"] == privproj.__version__
        assert manifest["config_sha256"] == hashlib.sha256(
            config.read_bytes()).hexdigest()
        assert manifest["seed"] == 9
        assert manifest["csv"] == "tradeoff.csv"
        assert manifest["n_failed"] == 0

    def test_rerun_byte_identical(self, tmp_path, bundle_files, capsys):
        config = write_config(tmp_path / "config.json")
        a, b = tmp_path / "a", tmp_path / "b"
        main(sweep_args(bundle_files, config, a))
        main(sweep_args(bundle_files, config, b))
        assert (a / "tradeoff.csv").read_bytes() == \
            (b / "tradeoff.csv").read_bytes()
        assert (a / "tradeoff.svg").read_bytes() == \
            (b / "tradeoff.svg").read_bytes()
        assert (a / "manifest.json").read_bytes() == \
            (b / "manifest.json").read_bytes()

    def test_sweep_starts_no_thread(self, tmp_path, bundle_files, capsys,
                                    monkeypatch):
        def no_thread(self):
            raise AssertionError(f"sweep started a thread: {self!r}")

        monkeypatch.delenv("PRIVPROJ_THREADS", raising=False)
        monkeypatch.setattr(threading.Thread, "start", no_thread)
        config = write_config(tmp_path / "config.json", methods=[
            {"method": "PCA", "k_values": [1, 2]},
            {"method": "DCA", "k_values": [1]}])
        assert main(sweep_args(bundle_files, config, tmp_path / "out")) == 0

    @pytest.mark.parametrize("value", ["1", "3", "lots"])
    def test_threads_env_is_ignored(self, tmp_path, bundle_files, capsys,
                                    monkeypatch, value):
        """A PRIVPROJ_THREADS left in the environment, even one that is
        not a number, neither fails the sweep nor changes its output."""
        config = write_config(tmp_path / "config.json", methods=[
            {"method": "PCA", "k_values": [1, 2]},
            {"method": "DCA", "k_values": [1]}])
        a, b = tmp_path / "a", tmp_path / "b"
        monkeypatch.delenv("PRIVPROJ_THREADS", raising=False)
        assert main(sweep_args(bundle_files, config, a)) == 0
        monkeypatch.setenv("PRIVPROJ_THREADS", value)
        assert main(sweep_args(bundle_files, config, b)) == 0
        for name in ("tradeoff.csv", "tradeoff.svg", "manifest.json"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_seed_flag_required(self, tmp_path, bundle_files, capsys):
        config = write_config(tmp_path / "config.json")
        args = sweep_args(bundle_files, config, tmp_path / "out")
        seed_at = args.index("--seed")
        del args[seed_at:seed_at + 2]
        with pytest.raises(SystemExit) as excinfo:
            main(args)
        assert excinfo.value.code == 2

    def test_seed_flag_overrides_config_seed(self, tmp_path, bundle_files,
                                             capsys):
        config = write_config(tmp_path / "config.json", seed=12345)
        out_dir = tmp_path / "out"
        main(sweep_args(bundle_files, config, out_dir, seed="9"))
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["seed"] == 9

    def test_unparseable_config_exits_2(self, tmp_path, bundle_files,
                                        capsys):
        config = tmp_path / "config.json"
        config.write_text("{broken")
        assert main(sweep_args(bundle_files, config, tmp_path / "out")) == 2
        # Values json parses but the config cannot convert, bad values in a
        # grid cell, and unknown keys at each level.
        for overrides, named in (
                ({"methods": [{"method": "PCA", "k_values": ["a"]}]}, "'a'"),
                ({"iterations": float("inf")},
                 "iterations must be >= 1, got inf"),
                ({"methods": [{"method": "PCA", "k_values": [1.5]}]},
                 "k must be a positive integer, got 1.5"),
                ({"methods": [{"method": "PCA", "k_values": [True]}]},
                 "k must be a positive integer, got True"),
                ({"rho": -1}, "rho must be positive and finite, got -1"),
                ({"rho_prime": float("nan")},
                 "rho_prime must be >= 0 and finite, got nan"),
                ({"methods": [{"method": "RUCA", "k_values": [1],
                               "weight_rows": [[-1]]}]},
                 "privacy_weights must be >= 0 and finite, got (-1.0,)"),
                ({"betas": [float("nan")]}, "betas must be >= 0 and finite"),
                ({"betas": [float("inf")]}, "betas must be >= 0 and finite"),
                ({"iterations": True}, "iterations must be >= 1, got True"),
                ({"fraction": True}, "fraction must be in (0, 1], got True"),
                ({"fraction": None}, "fraction must be in (0, 1], got None"),
                ({"betas": "12"}, "betas must be a sequence, got '12'"),
                ({"betas": None}, "betas must be a sequence, got None"),
                ({"rho": "x"}, "rho must be positive and finite, got 'x'"),
                ({"methods": [{"method": "RUCA", "k_values": [1],
                               "weight_rows": ["40"]}]},
                 "weight row must be a sequence, got '40'"),
                ({"methods": [{"method": "RUCA", "k_values": [1],
                               "weight_rows": "40"}]},
                 "weight_rows must be a sequence, got '40'"),
                ({"methods": [{"method": "RUCA", "k_values": [1],
                               "weight_rows": [[None]]}]},
                 "privacy_weights must hold numbers, got (None,)"),
                ({"scored_privcy": "max"}, "'scored_privcy'"),
                ({"methods": [{"method": "PCA", "k_values": [1],
                               "k_valeus": [2]}]}, "'k_valeus'"),
                ({"classifier": {"kind": "KNN", "k_neigbors": 3}},
                 "'k_neigbors'")):
            config = write_config(tmp_path / "config.json", **overrides)
            capsys.readouterr()
            assert main(sweep_args(bundle_files, config,
                                   tmp_path / "out")) == 2, overrides
            assert named in capsys.readouterr().err, overrides

    def test_label_file_that_does_not_fit_its_data_exits_2(
            self, tmp_path, bundle_files, capsys):
        """A train labeling one label short, or a test labeling with another
        class count than its train side, is an input error however much of
        the train set each iteration draws."""
        config = write_config(tmp_path / "config.json", fraction=0.5)
        utility = load_labels_csv(bundle_files["train_utility"])
        short = tmp_path / "short.csv"
        save_labels_csv(LabelSet(utility.labels[:-1], utility.class_count),
                        short)
        privacy = load_labels_csv(bundle_files["test_privacy"])
        wide = tmp_path / "wide.csv"
        save_labels_csv(LabelSet(privacy.labels, privacy.class_count + 1),
                        wide)
        for key, path, named in (
                ("train_utility", short, "train utility labels: 79 labels "
                                         "for 80 samples"),
                ("test_privacy", wide,
                 f"train.privacy labels: {privacy.class_count} classes in "
                 f"train, {privacy.class_count + 1} in test")):
            args = sweep_args({**bundle_files, key: path}, config,
                              tmp_path / "out")
            assert main(args) == 2
            assert named in capsys.readouterr().err

    def test_all_cells_failing_exits_1(self, tmp_path, bundle_files,
                                       capsys):
        config = write_config(tmp_path / "config.json", methods=[
            {"method": "MDR", "k_values": [99]}])
        assert main(sweep_args(bundle_files, config, tmp_path / "out")) == 1

    def test_partial_failure_still_succeeds(self, tmp_path, bundle_files,
                                            capsys):
        config = write_config(tmp_path / "config.json", methods=[
            {"method": "DCA", "k_values": [1]},
            {"method": "MDR", "k_values": [99]}])
        out_dir = tmp_path / "out"
        assert main(sweep_args(bundle_files, config, out_dir)) == 0
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["n_failed"] == 1

    def test_weight_rows_for_unweighted_method_exits_2(self, tmp_path,
                                                      bundle_files, capsys):
        config = write_config(tmp_path / "config.json", methods=[
            {"method": "DCA", "k_values": [1], "weight_rows": [[1.0], [16.0]]}])
        assert main(sweep_args(bundle_files, config, tmp_path / "out")) == 2
        assert "takes no privacy weights" in capsys.readouterr().err

    def test_ruca_grid_rows_mirror_weight_list(self, tmp_path, bundle_files,
                                               capsys):
        grid = [[0.0], [1.0], [4.0], [8.0], [16.0]]
        config = write_config(tmp_path / "config.json", methods=[
            {"method": "RUCA", "k_values": [1], "weight_rows": grid}])
        out_dir = tmp_path / "out"
        assert main(sweep_args(bundle_files, config, out_dir)) == 0
        rows = [r for r in
                (out_dir / "tradeoff.csv").read_text().splitlines()[1:]
                if r.startswith("RUCA")]
        assert [r.split(",")[2] for r in rows] == ["0", "1", "4", "8", "16"]


class TestPlot:
    def test_replot_matches_sweep_svg(self, tmp_path, bundle_files, capsys):
        config = write_config(tmp_path / "config.json", methods=[
            {"method": "DCA", "k_values": [1, 2]},
            {"method": "PCA", "k_values": [1]}])
        out_dir = tmp_path / "out"
        main(sweep_args(bundle_files, config, out_dir))
        replot = tmp_path / "replot.svg"
        assert main(["plot", "--csv", str(out_dir / "tradeoff.csv"),
                     "--out", str(replot)]) == 0
        assert replot.read_bytes() == (out_dir / "tradeoff.svg").read_bytes()

    def test_plot_missing_csv_exits_2(self, tmp_path, capsys):
        assert main(["plot", "--csv", str(tmp_path / "absent.csv"),
                     "--out", str(tmp_path / "o.svg")]) == 2

    HEADER = ("method,k,privacy_weights,acc_u_mean,acc_u_std,acc_p0_mean,"
              "acc_p0_std,perf@1,status")
    GOOD_ROW = "FULL,3,,0.75,0.1,0.5,0.05,1.25,ok"

    @pytest.mark.parametrize("lines, line, reason", [
        ([HEADER, GOOD_ROW, "DCA,1.5,,0.7,0.1,0.4,0.0,1.3,ok"], 3,
         "column 'k': invalid literal for int()"),
        ([HEADER.replace("k,", "", 1), "FULL,,0.75,0.1,0.5,0.05,1.25,ok"], 1,
         "missing column 'k'"),
        ([HEADER, GOOD_ROW, "DCA,1,,high,0.1,0.4,0.0,1.3,ok"], 3,
         "column 'acc_u_mean': could not convert string to float: 'high'"),
        ([HEADER, GOOD_ROW, "DCA,1,,0.7"], 3,
         "row has fewer fields than the header"),
    ], ids=["non-integer-k", "missing-k-column", "non-numeric-accuracy",
            "short-row"])
    def test_plot_malformed_csv_exits_2_naming_line(self, tmp_path, capsys,
                                                   lines, line, reason):
        table = tmp_path / "tradeoff.csv"
        table.write_text("\n".join(lines) + "\n")
        out = tmp_path / "o.svg"
        assert main(["plot", "--csv", str(table), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {table}:{line}: {reason}")
        assert "Traceback" not in err
        assert not out.exists()


class TestInputEncoding:
    @pytest.mark.parametrize("argv, source", [
        ("preprocess --input BAD --schema schema --output out", "raw"),
        ("preprocess --input raw --schema BAD --output out", "schema"),
        ("evaluate --train-data BAD --train-labels train_utility "
         "--test-data test_data --test-labels test_utility", "train_data"),
        ("evaluate --train-data train_data --train-labels train_utility "
         "--test-data test_data --test-labels BAD", "test_utility"),
        ("project --model BAD --data train_data --out out", "schema"),
        ("sweep --config BAD --train-data train_data --train-utility "
         "train_utility --test-data test_data --test-utility test_utility "
         "--seed 9 --out-dir out", "schema"),
        ("plot --csv BAD --out out", "raw"),
    ])
    def test_non_utf8_input_exits_2_naming_file(
            self, tmp_path, bundle_files, toy_schema_path, capsys, argv,
            source):
        raw = tmp_path / "raw.csv"
        write_raw_rows(raw, [("1.0", "a", "yes"), ("2.0", "b", "no")])
        files = {**bundle_files, "raw": raw, "schema": toy_schema_path,
                 "out": tmp_path / "out"}
        bad = tmp_path / f"latin1-{files[source].name}"
        bad.write_bytes(files[source].read_bytes() + b"2.0,caf\xe9,no\n")
        files["BAD"] = bad
        code = main([str(files.get(token, token)) for token in argv.split()])
        assert code == 2
        assert f"{bad}: not UTF-8 text: byte 0xe9" in capsys.readouterr().err


class TestParser:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert privproj.__version__ in capsys.readouterr().out

    def test_subcommand_required(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2

    def test_unknown_subcommand(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["frobnicate"])
        assert excinfo.value.code == 2
