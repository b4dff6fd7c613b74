import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privproj import dataio
from privproj.data import Dataset, LabelSet
from privproj.errors import InputError, ParseError, UnknownCategory
from privproj.dataio import (ColumnSchema, TableSchema, balance_indices,
                             joint_labels, load_csv, load_dataset_csv,
                             load_labels_csv,
                             recode_census_marital, save_dataset_csv,
                             save_labels_csv, schema_from_json,
                             stratified_holdout, subsample)

TOY_SCHEMA = TableSchema((
    ColumnSchema("height", "numeric"),
    ColumnSchema("color", "categorical", ("a", "b", "c")),
    ColumnSchema("note", "drop"),
    ColumnSchema("group", "label", ("yes", "no")),
))


def write_csv(path, rows, header="height,color,note,group"):
    path.write_text(header + "\n" + "\n".join(rows) + ("\n" if rows else ""))


class TestSchema:
    def test_feature_names_and_width(self):
        assert TOY_SCHEMA.feature_names == ("height", "color:b0", "color:b1")
        assert TOY_SCHEMA.n_features == 3

    def test_bit_widths(self):
        for n_cats, bits in [(2, 1), (3, 2), (4, 2), (5, 3), (8, 3), (16, 4),
                             (41, 6)]:
            col = ColumnSchema("c", "categorical",
                               tuple(f"v{i}" for i in range(n_cats)))
            assert col.n_bits == bits

    def test_rejects_single_category(self):
        with pytest.raises(InputError):
            ColumnSchema("c", "categorical", ("only",))

    def test_rejects_duplicate_columns(self):
        with pytest.raises(InputError):
            TableSchema((ColumnSchema("a", "numeric"), ColumnSchema("a", "numeric")))

    def test_json_round_trip(self):
        text = """{"columns": [
            {"name": "height", "kind": "numeric"},
            {"name": "color", "kind": "categorical", "categories": ["a","b","c"]},
            {"name": "note", "kind": "drop"},
            {"name": "group", "kind": "label", "categories": ["yes","no"]}
        ]}"""
        assert schema_from_json(text) == TOY_SCHEMA


class TestLoadCsv:
    def test_three_category_bit_encoding(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["1.5,c,x,yes", "2.5,a,x,no", "0.5,b,x,yes"])
        loaded = load_csv(p, TOY_SCHEMA)
        # "c" -> index 2 -> bits (1, 0); "a" -> (0, 0); "b" -> (0, 1)
        np.testing.assert_array_equal(
            loaded.dataset.x,
            np.array([[1.5, 2.5, 0.5], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]]))
        np.testing.assert_array_equal(loaded.labels["group"].labels, [0, 1, 0])
        assert loaded.n_rows_kept == 3 and loaded.n_rows_dropped == 0

    def test_two_category_single_bit(self, tmp_path):
        schema = TableSchema((ColumnSchema("f", "categorical", ("a", "b")),
                              ColumnSchema("y", "label", ("u", "v"))))
        p = tmp_path / "t.csv"
        p.write_text("f,y\nb,u\na,v\n")
        loaded = load_csv(p, schema)
        np.testing.assert_array_equal(loaded.dataset.x, [[1.0, 0.0]])

    def test_missing_value_drops_row(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["1.5,c,x,yes", ",a,x,no", "0.5,b,x,no"])
        loaded = load_csv(p, TOY_SCHEMA)
        assert loaded.n_rows_kept == 2
        assert loaded.n_rows_dropped == 1
        assert loaded.dataset.n_samples == 2

    def test_missing_in_drop_column_kept(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["1.5,c,,yes"])
        assert load_csv(p, TOY_SCHEMA).n_rows_kept == 1

    def test_unknown_category_named(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["1.5,z,x,yes"])
        with pytest.raises(UnknownCategory, match="color.*'z'"):
            load_csv(p, TOY_SCHEMA)

    def test_bad_numeric_reports_row_and_column(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["1.5,a,x,yes", "oops,b,x,no"])
        with pytest.raises(ParseError, match=":3:.*height"):
            load_csv(p, TOY_SCHEMA)

    def test_header_mismatch(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["1.5,a,x,yes"], header="a,b,c,d")
        with pytest.raises(ParseError, match="header"):
            load_csv(p, TOY_SCHEMA)

    def test_recoder_applied_before_lookup(self, tmp_path):
        schema = TableSchema((ColumnSchema("f", "numeric"),
                              ColumnSchema("m", "label",
                                           ("Married", "Used to be Married",
                                            "Never Married"))))
        p = tmp_path / "t.csv"
        p.write_text("f,m\n1,Married-AF-spouse\n2,Widowed\n3,Never-married\n")
        loaded = load_csv(p, schema, recoders={"m": recode_census_marital})
        np.testing.assert_array_equal(loaded.labels["m"].labels, [0, 1, 2])

    def test_rerun_identical(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["1.5,c,x,yes", "2.5,a,x,no"])
        a = load_csv(p, TOY_SCHEMA)
        b = load_csv(p, TOY_SCHEMA)
        assert np.array_equal(a.dataset.x, b.dataset.x)

    @given(st.integers(2, 41))
    @settings(max_examples=15, deadline=None)
    def test_encoding_injective(self, n_cats):
        col = ColumnSchema("c", "categorical",
                           tuple(f"v{i}" for i in range(n_cats)))
        seen = {tuple(dataio._encode_bits(i, col.n_bits)) for i in range(n_cats)}
        assert len(seen) == n_cats


class TestMaritalRecode:
    def test_paper_groupings(self):
        assert recode_census_marital("Married-AF-spouse") == "Married"
        assert recode_census_marital("Married-civ-spouse") == "Married"
        assert recode_census_marital("Married-spouse-absent") == "Married"
        assert recode_census_marital("Divorced") == "Used to be Married"
        assert recode_census_marital("Separated") == "Used to be Married"
        assert recode_census_marital("Widowed") == "Used to be Married"
        assert recode_census_marital("Never-married") == "Never Married"

    def test_unknown_value(self):
        with pytest.raises(UnknownCategory):
            recode_census_marital("Single")


class TestBalance:
    def test_already_balanced_keeps_everything(self):
        d = Dataset(np.arange(8, dtype=float).reshape(2, 4))
        l = LabelSet(np.array([0, 1, 0, 1]), 2)
        idx = balance_indices(l, seed=3)
        bd, bl = d.take(idx), l.take(idx)
        assert np.array_equal(bd.x, d.x)
        assert np.array_equal(bl.labels, l.labels)

    def test_undersamples_to_min(self):
        labels = LabelSet(np.array([0] * 10 + [1] * 4), 2)
        d = Dataset(np.arange(14, dtype=float)[None, :])
        idx = balance_indices(labels, seed=0)
        bd, bl = d.take(idx), labels.take(idx)
        assert np.array_equal(bl.counts(), [4, 4])
        # kept samples appear in their original order
        assert np.all(np.diff(bd.x[0]) > 0)

    def test_deterministic(self):
        labels = LabelSet(np.array([0] * 50 + [1] * 20 + [2] * 35), 3)
        a = balance_indices(labels, seed=11)
        b = balance_indices(labels, seed=11)
        assert np.array_equal(a, b)
        c = balance_indices(labels, seed=12)
        assert not np.array_equal(a, c)

    def test_subset_of_input(self):
        labels = LabelSet(np.array([0] * 30 + [1] * 7), 2)
        idx = balance_indices(labels, seed=5)
        assert np.all(idx >= 0) and np.all(idx < 37)
        assert len(np.unique(idx)) == len(idx) == 14

    def test_joint_labels_cross_product(self):
        a = LabelSet(np.array([0, 0, 1, 1]), 2)
        b = LabelSet(np.array([0, 1, 0, 1]), 2)
        joint = joint_labels([a, b])
        assert joint.class_count == 4
        np.testing.assert_array_equal(joint.labels, [0, 1, 2, 3])


class TestSubsample:
    def _bundle(self, n=40):
        d = Dataset(np.arange(2 * n, dtype=float).reshape(2, n))
        l = LabelSet(np.arange(n) % 2, 2)
        return d, l

    def test_fraction_one_identity(self):
        d, l = self._bundle()
        sd, sl = subsample(d, [l], seed=1, fraction=1.0, iteration=7)
        assert np.array_equal(sd.x, d.x)

    def test_floor_of_fraction(self):
        d, l = self._bundle(n=10086)
        sd, _ = subsample(d, [l], seed=1, fraction=0.1, iteration=0)
        assert sd.n_samples == 1008

    def test_iterations_differ_but_reproduce(self):
        d, l = self._bundle()
        a1, _ = subsample(d, [l], seed=9, fraction=0.5, iteration=0)
        a2, _ = subsample(d, [l], seed=9, fraction=0.5, iteration=0)
        b, _ = subsample(d, [l], seed=9, fraction=0.5, iteration=1)
        assert np.array_equal(a1.x, a2.x)
        assert not np.array_equal(a1.x, b.x)

    def test_labels_follow_samples(self):
        d, l = self._bundle()
        sd, (sl,) = subsample(d, [l], seed=2, fraction=0.3, iteration=4)
        np.testing.assert_array_equal(sl.labels, sd.x[0].astype(np.int64) % 2)


class TestHoldout:
    def test_per_class_floor_counts(self):
        labels = LabelSet(np.array([0] * 10 + [1] * 7), 2)
        kept, held = stratified_holdout(labels, fraction=0.4, seed=1)
        held_labels = labels.labels[held]
        assert np.count_nonzero(held_labels == 0) == 4
        assert np.count_nonzero(held_labels == 1) == 2
        assert len(kept) + len(held) == 17
        assert not set(kept) & set(held)

    def test_deterministic(self):
        labels = LabelSet(np.arange(60) % 3, 3)
        a = stratified_holdout(labels, 0.25, seed=8)
        b = stratified_holdout(labels, 0.25, seed=8)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])


class TestPersistence:
    def test_dataset_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(0)
        d = Dataset(rng.standard_normal((3, 17)) * 1e-7,
                    feature_names=("a", "b", "c"))
        path = tmp_path / "d.csv"
        save_dataset_csv(d, path)
        back = load_dataset_csv(path)
        assert np.array_equal(back.x, d.x)
        assert back.feature_names == d.feature_names

    def test_labels_round_trip(self, tmp_path):
        l = LabelSet(np.array([2, 0, 1, 1, 2]), 3)
        path = tmp_path / "l.csv"
        save_labels_csv(l, path)
        back = load_labels_csv(path)
        assert np.array_equal(back.labels, l.labels)
        assert back.class_count == 3

    def test_save_is_deterministic(self, tmp_path):
        d = Dataset(np.random.default_rng(1).standard_normal((2, 9)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset_csv(d, p1)
        save_dataset_csv(d, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestShippedSchemas:
    def test_census_schema_is_29_features(self):
        from importlib import resources
        text = (resources.files("privproj") / "schemas" /
                "census_adult.json").read_text()
        schema = schema_from_json(text)
        assert schema.n_features == 29
        assert set(schema.label_names) == {"marital-status", "sex", "income"}

    def test_har_schema_shape(self):
        from importlib import resources
        text = (resources.files("privproj") / "schemas" / "har.json").read_text()
        schema = schema_from_json(text)
        assert schema.n_features == 561
        by_name = {c.name: c for c in schema.columns}
        assert len(by_name["activity"].categories) == 6
        assert len(by_name["subject"].categories) == 21


class TestNormalizeAdultCsv:
    RAW = (
        "|1x3 Cross validator\n"
        "39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical,"
        " Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K.\n"
        "\n"
        "50, ?, 83311, HS-grad, 9, Divorced, ?, Not-in-family, White,"
        " Female, 0, 0, 13, United-States, >50K.\n"
    )

    def test_strips_and_recodes_raw_format(self, tmp_path):
        src = tmp_path / "adult.test"
        dst = tmp_path / "adult.csv"
        src.write_text(self.RAW)
        assert dataio.normalize_adult_csv(src, dst) == 2
        lines = dst.read_text().splitlines()
        assert lines[0] == ",".join(dataio.ADULT_COLUMNS)
        first = lines[1].split(",")
        assert first[0] == "39" and first[1] == "State-gov"
        assert first[-1] == "<=50K"  # trailing period removed
        second = lines[2].split(",")
        assert second[1] == "" and second[6] == ""  # "?" became missing
        assert second[-1] == ">50K"

    def test_field_count_mismatch_raises(self, tmp_path):
        src = tmp_path / "adult.data"
        src.write_text("1, 2, 3\n")
        with pytest.raises(ParseError):
            dataio.normalize_adult_csv(src, tmp_path / "out.csv")

    def test_normalized_file_loads_through_schema(self, tmp_path):
        from importlib import resources
        src = tmp_path / "adult.test"
        src.write_text(self.RAW)
        dst = tmp_path / "adult.csv"
        dataio.normalize_adult_csv(src, dst)
        schema = schema_from_json(
            (resources.files("privproj") / "schemas" /
             "census_adult.json").read_text())
        loaded = load_csv(dst, schema,
                          recoders={"marital-status": recode_census_marital})
        assert loaded.n_rows_kept == 1  # row with missing fields dropped
        assert loaded.n_rows_dropped == 1
        assert loaded.dataset.n_features == 29
