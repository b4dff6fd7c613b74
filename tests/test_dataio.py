import csv
import hashlib
import io
import json
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from privproj import dataio
from privproj.data import Dataset, LabelSet
from privproj.errors import InputError, ParseError, UnknownCategory
from privproj.synthetic import write_adult_like_csv
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


#: A field one character over csv's size limit, and csv's message for it.
LONG_FIELD = "n" * (csv.field_size_limit() + 1)
LONG_FIELD_REASON = f"field larger than field limit ({csv.field_size_limit()})"


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

    @pytest.mark.parametrize("doc", [
        {"columns": [{"name": "a", "kind": "numeric"}, {"kind": "drop"}]},
        {"columns": [{"name": "a"}]},
        {"columns": 5},
        {"columns": [5]},
        {"columns": [{"name": 5, "kind": "numeric"}]},
        {"columns": [{"name": "a", "kind": "categorical", "categories": 5}]},
        {"columns": [{"name": "a", "kind": "categorical",
                      "categories": "ab"}]},
        {"columns": [{"name": "a", "kind": "categorical",
                      "categories": [["x"], ["y"]]}]},
    ])
    def test_malformed_column_is_input_error(self, doc):
        with pytest.raises(InputError):
            schema_from_json(json.dumps(doc))


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

    def test_quoted_cell_spanning_lines(self, tmp_path):
        schema = TableSchema((ColumnSchema("f", "numeric"),
                              ColumnSchema("y", "label", ("a\nb", "ab"))))
        p = tmp_path / "t.csv"
        p.write_text('f,y\n1,"a\nb"\n2,ab\n')
        np.testing.assert_array_equal(load_csv(p, schema).labels["y"].labels,
                                      [0, 1])
        p.write_text('f,y\n1,"a\nb"\noops,ab\n')
        with pytest.raises(ParseError, match=r":4: column 'f': 'oops'"):
            load_csv(p, schema)

    def test_header_mismatch(self, tmp_path):
        p = tmp_path / "t.csv"
        write_csv(p, ["1.5,a,x,yes"], header="a,b,c,d")
        with pytest.raises(ParseError, match="header"):
            load_csv(p, TOY_SCHEMA)

    @pytest.mark.parametrize("header, body, where", [
        ("height,color,note,group",
         ["1,a,x,yes", '2,a,"x\ny",no', f"3,a,{LONG_FIELD},no"], ":5"),
        (f"height,color,{LONG_FIELD},group", ["1,a,x,yes"], ":1"),
    ], ids=["body", "header"])
    def test_field_over_csv_limit_names_line(self, tmp_path, header, body,
                                             where):
        p = tmp_path / "t.csv"
        write_csv(p, body, header=header)
        with pytest.raises(ParseError) as info:
            load_csv(p, TOY_SCHEMA)
        assert str(info.value) == f"{p}{where}: {LONG_FIELD_REASON}"

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
        bits = dataio._encode_bits(np.arange(n_cats), col.n_bits)
        assert len({tuple(row) for row in bits}) == n_cats

    def test_adult_like_load_is_pinned(self, tmp_path):
        """SHA-256 of the encoded features, every labeling and the kept and
        dropped counts, recorded with the row-by-row loader."""
        schema = schema_from_json((resources.files("privproj") / "schemas" /
                                   "census_adult.json").read_text())
        path = tmp_path / "adult.csv"
        write_adult_like_csv(path, seed=3, n_rows=2000)
        loaded = load_csv(path, schema,
                          recoders={"marital-status": recode_census_marital})
        digest = hashlib.sha256(loaded.dataset.x.tobytes())
        for name in sorted(loaded.labels):
            digest.update(loaded.labels[name].labels.tobytes())
        digest.update(f"{loaded.n_rows_kept},{loaded.n_rows_dropped}".encode())
        assert digest.hexdigest() == ("65252caff62be54b5b5eff699dbd396e"
                                      "e1484589feb491ea45af1fd6f10fcddd")


def _whole_file_load_csv(path, schema, recoders=None):
    """The loader as it was: every cell of the file in one object array,
    converted a whole column at a time."""
    expected = [c.name for c in schema.columns]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise ParseError(f"{path}: empty file" if header is None else
                             f"{path}: header {header!r} does not match schema "
                             f"columns {expected!r}")
        rows, starts = [], [reader.line_num + 1]
        for row in reader:
            if len(row) != len(expected):
                raise ParseError(f"{path}:{starts[-1]}: expected "
                                 f"{len(expected)} fields, got {len(row)}")
            rows.append(row)
            starts.append(reader.line_num + 1)
    rows = np.array(rows, dtype=object).reshape(len(rows), len(expected))
    used = [j for j, col in enumerate(schema.columns) if col.kind != "drop"]
    kept = np.flatnonzero((rows[:, used] != "").all(axis=1))
    if not kept.size:
        raise ParseError(f"{path}: no usable rows after dropping "
                         f"{len(rows)} incomplete rows")
    table = np.empty((kept.size, schema.n_features))
    labels, feature = {}, 0
    for j, col in enumerate(schema.columns):
        column = rows[kept, j]
        if col.kind == "numeric":
            try:
                table[:, feature] = column.astype(np.float64)
            except ValueError:
                for i, cell in zip(kept, column):
                    try:
                        float(cell)
                    except ValueError:
                        raise ParseError(f"{path}:{starts[i]}: column {col.name!r}: "
                                         f"{cell!r} is not numeric") from None
            feature += 1
        elif col.kind != "drop":
            index = {category: i for i, category in enumerate(col.categories)}
            recode = (recoders or {}).get(col.name, str)
            code_of = {v: index.get(recode(v), -1) for v in dict.fromkeys(column)}
            codes = np.fromiter(map(code_of.get, column), np.int64, column.size)
            if codes.min() < 0:
                first = np.argmax(codes < 0)
                raise UnknownCategory(
                    f"{path}:{starts[kept[first]]}: column {col.name!r}: "
                    f"unknown category {recode(column[first])!r}")
            if col.kind == "label":
                labels[col.name] = LabelSet(codes, len(col.categories))
            else:
                table[:, feature:feature + col.n_bits] = dataio._encode_bits(
                    codes, col.n_bits)
                feature += col.n_bits
    return dataio.LoadedCsv(Dataset(table.T, schema.feature_names), labels,
                            n_rows_kept=kept.size,
                            n_rows_dropped=len(rows) - kept.size)


def _outcome(load, path, schema, recoders=None):
    """Everything a caller can see of one load: value bytes, layout, names,
    labelings and counts, or the error's class and message."""
    try:
        loaded = load(path, schema, recoders)
    except Exception as exc:
        return type(exc), str(exc)
    x = loaded.dataset.x
    return (x.tobytes(), x.dtype, x.shape, x.strides, loaded.dataset.feature_names,
            [(name, ls.labels.tobytes(), ls.labels.dtype, ls.class_count)
             for name, ls in loaded.labels.items()],
            loaded.n_rows_kept, loaded.n_rows_dropped)


def _recode_color(value):
    if value == "!":
        raise UnknownCategory(f"cannot recode {value!r}")
    return {"A": "a"}.get(value, value)


#: Block sizes the streaming loader and the dataset writer are checked at:
#: a block per row, blocks that split the test files at several places, and
#: the shipped size.
BLOCK_SIZES = [1, 2, 3, dataio.BLOCK_ROWS]

#: name: (kind, categories, cells that load, cells that drop or fault).
_RANDOM_COLUMNS = {
    "height": ("numeric", None, ["1", "-2.5", "1e3", " 7 "], ["", "x"]),
    "color": ("categorical", ("a", "b", "c\nd"), ["a", "A", "b", "c\nd"],
              ["", "z", "!"]),
    "note": ("drop", None, ["q", "r\ns"], [""]),
    "group": ("label", ("yes", "no"), ["yes", "no"], ["", "maybe"]),
    "weight": ("numeric", None, ["0", "3.25"], ["", "1,5"]),
}


@st.composite
def _raw_files(draw):
    """(schema, file text) of 0-9 rows over the columns above in any order;
    most rows are valid, the rest may hold blank or faulty cells, and a few
    have the wrong width. Quoted multi-line cells shift the file lines of
    the rows after them, across block edges."""
    names = draw(st.permutations(list(_RANDOM_COLUMNS)))
    schema = TableSchema(tuple(ColumnSchema(name, *_RANDOM_COLUMNS[name][:2])
                               for name in names))
    lines = io.StringIO()
    writer = csv.writer(lines, lineterminator="\n")
    writer.writerow(names)
    for _ in range(draw(st.integers(0, 9))):
        clean = draw(st.sampled_from([True, True, True, False]))
        row = []
        for name in names:
            valid, odd = _RANDOM_COLUMNS[name][2:]
            row.append(draw(st.sampled_from(valid if clean else valid + odd)))
        width = draw(st.sampled_from(["same"] * 30 + ["short", "long"]))
        writer.writerow(row[:-1] if width == "short" else
                        row + ["1"] if width == "long" else row)
    return schema, lines.getvalue()


class TestBlockLoader:
    """load_csv in blocks of BLOCK_ROWS rows against the whole-file loader."""

    @pytest.mark.parametrize("block_rows", BLOCK_SIZES)
    @given(_raw_files())
    @settings(max_examples=150, deadline=None)
    def test_matches_whole_file_loader(self, tmp_path_factory, block_rows,
                                       case):
        schema, text = case
        path = tmp_path_factory.mktemp("raw") / "t.csv"
        path.write_text(text, newline="")
        recoders = {"color": _recode_color}
        want = _outcome(_whole_file_load_csv, path, schema, recoders)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(dataio, "BLOCK_ROWS", block_rows)
            assert _outcome(load_csv, path, schema, recoders) == want

    @pytest.mark.parametrize("block_rows", BLOCK_SIZES)
    @pytest.mark.parametrize("body, fault", [
        (["1,a,x,yes", ",z,x,no", "2,b,x,no"], None),
        (["1,a,,yes", "2,b,x,"], None),
        (["1,a,x,yes", "2,b,x,maybe", "3,c,x,yes", "oops,a,x,no"],
         ":5: column 'height': 'oops' is not numeric"),
        (["1,a,x,yes", "2,z,x,yes", "3,b,x,no", "oops,a,x,no"],
         ":5: column 'height': 'oops' is not numeric"),
        (["oops,a,x,yes", "1,a,x,yes", "1,a,x"],
         ":4: expected 4 fields, got 3"),
        (["1,a,x,yes", "2,z,x,no", "1,a,x,yes,5"],
         ":4: expected 4 fields, got 5"),
        (['1,a,"x\ny",yes', '2,b,"p\n\nq",no', "3,c,x,yes"], None),
        (['1,a,"x\ny",yes', '2,b,"p\n\nq",no', "3,c,x,maybe"],
         ":7: column 'group': unknown category 'maybe'"),
        ([], ": no usable rows after dropping 0 incomplete rows"),
        ([",a,x,yes", "1,,x,no", "2,b,x,"],
         ": no usable rows after dropping 3 incomplete rows"),
    ], ids=["unknown-only-in-dropped-row", "blank-drop-and-label-cells",
            "faults-in-reverse-schema-order", "unknown-before-numeric-fault",
            "width-after-conversion-fault", "width-after-unknown-category",
            "multi-line-cells", "multi-line-cells-then-fault", "empty-body",
            "every-row-dropped"])
    def test_edge_files(self, tmp_path, monkeypatch, block_rows, body, fault):
        path = tmp_path / "t.csv"
        write_csv(path, body)
        want = _outcome(_whole_file_load_csv, path, TOY_SCHEMA)
        monkeypatch.setattr(dataio, "BLOCK_ROWS", block_rows)
        assert _outcome(load_csv, path, TOY_SCHEMA) == want
        if fault is None:
            assert len(want) > 2
        else:
            assert want[1] == f"{path}{fault}"

    @pytest.mark.parametrize("block_rows", BLOCK_SIZES)
    def test_recoders_see_each_kept_value_once_in_order(self, tmp_path,
                                                        monkeypatch,
                                                        block_rows):
        path = tmp_path / "t.csv"
        write_csv(path, ["1,b,x,yes", "2,a,x,no", ",z,x,maybe", "3,b,x,no",
                         "4,c,,yes", "5,,x,nope", "6,a,x,yes", "7,c,x,no"])
        calls = {"color": [], "group": []}

        def counting(name):
            def recode(value):
                calls[name].append(value)
                return value
            return recode

        monkeypatch.setattr(dataio, "BLOCK_ROWS", block_rows)
        loaded = load_csv(path, TOY_SCHEMA,
                          recoders={name: counting(name) for name in calls})
        assert calls == {"color": ["b", "a", "c"], "group": ["yes", "no"]}
        assert loaded.n_rows_kept == 6 and loaded.n_rows_dropped == 2
        np.testing.assert_array_equal(loaded.labels["group"].labels,
                                      [0, 1, 1, 0, 0, 1])


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
        special = np.array([[-0.0, 5e-324, 1.7976931348623157e308, 1 / 3],
                            [3.0, -17.0, 0.0, 2.0 ** 53]])
        for d in (Dataset(rng.standard_normal((3, 17)) * 1e-7,
                          feature_names=("a", "b", "c")),
                  Dataset(special)):
            path = tmp_path / "d.csv"
            save_dataset_csv(d, path)
            back = load_dataset_csv(path)
            assert back.x.tobytes() == d.x.tobytes()  # keeps the sign of -0.0
            names = d.feature_names or ("x0", "x1")
            assert back.feature_names == names
            reference = [",".join(names)] + [
                ",".join(format(float(v), ".17g") for v in d.x[:, j])
                for j in range(d.n_samples)]
            assert path.read_bytes() == ("\n".join(reference) + "\n").encode()

    def test_labels_round_trip(self, tmp_path):
        l = LabelSet(np.array([2, 0, 1, 1, 2]), 3)
        path = tmp_path / "l.csv"
        save_labels_csv(l, path)
        back = load_labels_csv(path)
        assert np.array_equal(back.labels, l.labels)
        assert back.class_count == 3

    @pytest.mark.parametrize("load, text, where, message", [
        (load_dataset_csv, "a,b\n1,2\n3\n", ":3", "expected 2 fields, got 1"),
        (load_dataset_csv, "a,b\n1,2\n3,4,5\n", ":3",
         "expected 2 fields, got 3"),
        (load_dataset_csv, "a,b\n1,2\n\n3,4\n", ":3",
         "expected 2 fields, got 0"),
        (load_dataset_csv, "a,b\n1,2\nabc,4\n", ":3",
         "could not convert string to float: 'abc'"),
        (load_dataset_csv, "", "", "empty file"),
        (load_dataset_csv, "a,b\n", "", "no data rows"),
        (load_dataset_csv, "a\n1\n1_0\n", ":3", "'1_0' is not a number"),
        (load_labels_csv, "", "", "empty file"),
        (load_labels_csv, "label:2\n", "", "no label rows"),
        (load_labels_csv, "class:2\n0\n", "",
         'expected single header "label:<classes>"'),
        (load_labels_csv, "label:two\n0\n", "",
         "bad class count in header 'label:two'"),
        (load_labels_csv, "label:2\n0\n\n1\n", ":3", "bad label row []"),
        (load_labels_csv, "label:2\n1\nx\n", ":3", "bad label row ['x']"),
        (load_labels_csv, "label:2\n1.7\n0\n", ":2", "bad label row ['1.7']"),
        (load_labels_csv, "label:2\n0,7\n1\n", ":2",
         "bad label row ['0', '7']"),
        (load_dataset_csv, f"a,{LONG_FIELD}\n1,2\n", ":1", LONG_FIELD_REASON),
        (load_dataset_csv, f"a,b\n1,2\n3,{LONG_FIELD}\n", ":3",
         LONG_FIELD_REASON),
        (load_labels_csv, f"label:2\n0\n{LONG_FIELD}\n", ":3",
         LONG_FIELD_REASON),
    ], ids=["short", "long", "blank", "non-numeric", "empty", "header-only",
            "numpy-rejects", "labels-empty", "labels-header-only",
            "labels-bad-header", "labels-bad-count", "labels-blank",
            "labels-non-integer", "labels-float", "labels-extra-field",
            "header-over-csv-limit", "field-over-csv-limit",
            "labels-field-over-csv-limit"])
    def test_malformed_table_names_file_and_line(self, tmp_path, load, text,
                                                 where, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with warnings.catch_warnings():
            # numpy's empty-input warning must not leak; other warnings keep
            # the action callers outside the tests see.
            warnings.simplefilter("error", UserWarning)
            with pytest.raises(ParseError) as info:
                load(path)
        assert str(info.value) == f"{path}{where}: {message}"

    def test_numpy_warning_is_a_fault(self, tmp_path, monkeypatch):
        def truncating_loadtxt(lines, dtype, **kwargs):  # as older numpy does
            warnings.warn("loadtxt(): Parsing an integer via a float is "
                          "deprecated.", DeprecationWarning)
            return np.array([[1], [0]])
        monkeypatch.setattr(np, "loadtxt", truncating_loadtxt)
        path = tmp_path / "l.csv"
        path.write_text("label:2\n1.7\n0\n")
        with pytest.raises(ParseError, match=r":2: bad label row \['1.7'\]"):
            load_labels_csv(path)

    def test_save_is_deterministic(self, tmp_path):
        d = Dataset(np.random.default_rng(1).standard_normal((2, 9)))
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_dataset_csv(d, p1)
        save_dataset_csv(d, p2)
        assert p1.read_bytes() == p2.read_bytes()


def _unchecked_dataset(x):
    """A Dataset over x without the constructor's checks, which reject the
    non-finite and empty matrices the writer must still write as before."""
    d = object.__new__(Dataset)
    object.__setattr__(d, "x", np.asarray(x, dtype=np.float64))
    object.__setattr__(d, "feature_names", None)
    return d


def _savetxt_dataset_bytes(d, path):
    """The dataset writer as it was: every value through np.savetxt's %.17g."""
    names = d.feature_names or tuple(f"x{i}" for i in range(d.n_features))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(names)
        np.savetxt(fh, d.x.T, fmt="%.17g", delimiter=",")
    return path.read_bytes()


def _savetxt_labels_bytes(l, path):
    """The label writer as it was: np.savetxt's %d, one value per row."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow([f"label:{l.class_count}"])
        np.savetxt(fh, l.labels, fmt="%d")
    return path.read_bytes()


# Values at the edges of the integer format: -0.0 prints "-0" under %.17g,
# above 2**53 floats are spaced 2 or more apart, and 1e16 and 1e17 sit on
# either side of %.17g's switch to exponent notation.
EDGE_VALUES = (-0.0, 0.0, 2.0 ** 53 - 1, -(2.0 ** 53 - 1), 2.0 ** 53,
               -(2.0 ** 53), 1e16, 1e17, 5e-324, np.nan, np.inf, -np.inf)

_integral_values = st.integers(-(2 ** 53 - 1), 2 ** 53 - 1).map(float)
_any_values = st.one_of(st.sampled_from(EDGE_VALUES), st.floats(),
                        st.integers(-3, 3).map(float), _integral_values)


@st.composite
def _tables(draw):
    """(m, n) float matrices whose columns are all-integral or anything."""
    m, n = draw(st.integers(1, 5)), draw(st.integers(0, 6))
    return np.array([draw(st.lists(draw(st.sampled_from(
        (_integral_values, _any_values))), min_size=n, max_size=n))
        for _ in range(m)], dtype=np.float64).reshape(m, n)


class TestWriterBytes:
    """save_dataset_csv / save_labels_csv write np.savetxt's bytes; the
    dataset writer at every block size of BLOCK_SIZES."""

    @pytest.mark.parametrize("x", [
        [[0, 1, 1, 0], [1, 0, 1, 1], [39, 50, 38, 53], [77516, 83311, 0, 7]],
        [[0, 1, 1, 0], [0.5, -1 / 3, 2.0, 1e-7], [3, -4, 5, 2 ** 40]],
        [[0.5, -1 / 3, 1e300, 1e-7], [np.pi, -np.e, 2.5, 1e-310]],
        *([[1, 2, 3], [v, 4, 5]] for v in EDGE_VALUES),
        [[0, 1, 2, -3]],
        np.empty((3, 0)),
    ], ids=["integral", "mixed", "float",
            *(f"edge-{v!r}" for v in EDGE_VALUES), "one-feature", "no-samples"])
    def test_dataset_matches_savetxt(self, tmp_path, x):
        d = _unchecked_dataset(x)
        want = _savetxt_dataset_bytes(d, tmp_path / "old.csv")
        for block_rows in BLOCK_SIZES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dataio, "BLOCK_ROWS", block_rows)
                save_dataset_csv(d, tmp_path / "new.csv")
            assert (tmp_path / "new.csv").read_bytes() == want, block_rows

    @given(_tables())
    @settings(max_examples=200, deadline=None)
    def test_dataset_matches_savetxt_on_random_tables(self, tmp_path_factory, x):
        tmp = tmp_path_factory.mktemp("writer")
        d = _unchecked_dataset(x)
        want = _savetxt_dataset_bytes(d, tmp / "old.csv")
        for block_rows in BLOCK_SIZES:
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dataio, "BLOCK_ROWS", block_rows)
                save_dataset_csv(d, tmp / "new.csv")
            assert (tmp / "new.csv").read_bytes() == want, block_rows

    @pytest.mark.parametrize("n", [1, 2, 37, 4096])
    @pytest.mark.parametrize("classes", [2, 3, 12])
    def test_labels_match_savetxt(self, tmp_path, n, classes):
        l = LabelSet(np.random.default_rng(n).integers(0, classes, n), classes)
        save_labels_csv(l, tmp_path / "new.csv")
        assert (tmp_path / "new.csv").read_bytes() == \
            _savetxt_labels_bytes(l, tmp_path / "old.csv")


class TestReaderEdges:
    """Line endings and trailing blank lines, pinned at the lines, values and
    faults a line-by-line read gives."""

    CASES = {  # id: (dataset body, label body, body lines), after the header
        "no-final-newline": (b"1,2\n3,4", b"0\n1", ["1,2", "3,4"]),
        "crlf": (b"1,2\r\n3,4\r\n", b"0\r\n1\r\n", ["1,2", "3,4"]),
        "trailing-blank": (b"1,2\n3,4\n\n", b"0\n1\n\n", ["1,2", "3,4", ""]),
        "two-trailing-blanks": (b"1,2\n3,4\n\n\n", b"0\n1\n\n\n",
                                ["1,2", "3,4", "", ""]),
        "lone-cr": (b"1,2\r3,4\n", b"0\r1\n", ["1,2", "3,4"]),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_read_table_lines(self, tmp_path, case):
        body, _, lines = self.CASES[case]
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\r\n" + body)
        assert dataio._read_table(path) == (["a", "b"], lines)

    @pytest.mark.parametrize("text, lines", [(b"a,b", []), (b"a,b\n", []),
                                             (b"a,b\n\n", [""])],
                             ids=["header-no-newline", "header-only", "blank"])
    def test_read_table_header_only(self, tmp_path, text, lines):
        path = tmp_path / "d.csv"
        path.write_bytes(text)
        assert dataio._read_table(path) == (["a", "b"], lines)

    @pytest.mark.parametrize("case, fault", [
        ("no-final-newline", None), ("crlf", None),
        ("trailing-blank", ":4: expected 2 fields, got 0"),
        ("two-trailing-blanks", ":4: expected 2 fields, got 0"),
        ("lone-cr", None)])
    def test_load_dataset(self, tmp_path, case, fault):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b\n" + self.CASES[case][0])
        if fault is None:
            d = load_dataset_csv(path)
            assert d.x.tolist() == [[1.0, 3.0], [2.0, 4.0]]
            assert d.feature_names == ("a", "b")
        else:
            with pytest.raises(ParseError) as info:
                load_dataset_csv(path)
            assert str(info.value) == f"{path}{fault}"

    @pytest.mark.parametrize("case, fault", [
        ("no-final-newline", None), ("crlf", None),
        ("trailing-blank", ":4: bad label row []"),
        ("two-trailing-blanks", ":4: bad label row []"),
        ("lone-cr", None)])
    def test_load_labels(self, tmp_path, case, fault):
        path = tmp_path / "l.csv"
        path.write_bytes(b"label:2\n" + self.CASES[case][1])
        if fault is None:
            l = load_labels_csv(path)
            assert l.labels.tolist() == [0, 1] and l.class_count == 2
        else:
            with pytest.raises(ParseError) as info:
                load_labels_csv(path)
            assert str(info.value) == f"{path}{fault}"


class TestShippedSchemas:
    def test_census_schema_is_29_features(self):
        from importlib import resources
        text = (resources.files("privproj") / "schemas" /
                "census_adult.json").read_text()
        schema = schema_from_json(text)
        assert schema.n_features == 29
        assert ({c.name for c in schema.columns if c.kind == "label"}
                == {"marital-status", "sex", "income"})

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
