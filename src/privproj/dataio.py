"""CSV ingestion, categorical bit-encoding, balancing, and subsampling.

Input tables are RFC-4180 CSV with a header row. A JSON schema assigns each
column a kind, and load_csv converts each column whole, not cell by cell:

  numeric      parsed with float, passed through as one feature
  categorical  mapped to its 0-based index in the schema's ordered category
               list, then emitted as ceil(log2(n_categories)) features
               holding the index bits, most significant bit first
  label        mapped to a class id (index in the ordered category list);
               returned as a LabelSet, not a feature
  drop         ignored entirely

A row with an empty value in any non-drop column is removed (the loader
reports how many). The bit order of the categorical encoding is frozen:
with categories [a, b, c], value "c" has index 2 and encodes as (1, 0).
"""

from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, LabelSet
from .errors import InputError, ParseError, UnknownCategory
from .seeds import mix, rng_from

__all__ = [
    "ColumnSchema", "TableSchema", "LoadedCsv",
    "schema_from_json", "load_schema", "load_csv", "recode_census_marital",
    "ADULT_COLUMNS", "normalize_adult_csv",
    "balance_indices", "joint_labels", "subsample",
    "stratified_holdout", "save_dataset_csv", "load_dataset_csv",
    "save_labels_csv", "load_labels_csv",
]

COLUMN_KINDS = ("numeric", "categorical", "label", "drop")


@dataclass(frozen=True)
class ColumnSchema:
    name: str
    kind: str
    categories: tuple[str, ...] | None = None

    def __post_init__(self):
        if self.kind not in COLUMN_KINDS:
            raise InputError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.kind in ("categorical", "label"):
            if not self.categories or len(self.categories) < 2:
                raise InputError(
                    f"column {self.name!r}: {self.kind} columns need >= 2 "
                    f"ordered categories")
            if len(set(self.categories)) != len(self.categories):
                raise InputError(f"column {self.name!r}: duplicate categories")
            object.__setattr__(self, "categories", tuple(self.categories))
        elif self.categories is not None:
            raise InputError(
                f"column {self.name!r}: categories only apply to "
                f"categorical/label columns")

    @property
    def n_bits(self) -> int:
        return math.ceil(math.log2(len(self.categories)))


@dataclass(frozen=True)
class TableSchema:
    columns: tuple[ColumnSchema, ...]

    def __post_init__(self):
        names = [c.name for c in self.columns]
        if len(set(names)) != len(names):
            raise InputError("schema has duplicate column names")
        if not any(c.kind in ("numeric", "categorical") for c in self.columns):
            raise InputError("schema has no feature columns")
        object.__setattr__(self, "columns", tuple(self.columns))

    @property
    def feature_names(self) -> tuple[str, ...]:
        names = []
        for col in self.columns:
            if col.kind == "numeric":
                names.append(col.name)
            elif col.kind == "categorical":
                names.extend(f"{col.name}:b{i}" for i in range(col.n_bits))
        return tuple(names)

    @property
    def n_features(self) -> int:
        return len(self.feature_names)


def schema_from_json(text: str) -> TableSchema:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"schema JSON does not parse: {exc}") from exc
    if not isinstance(doc, dict) or "columns" not in doc:
        raise InputError('schema JSON must be an object with a "columns" list')
    columns = []
    for entry in doc["columns"]:
        unknown = set(entry) - {"name", "kind", "categories"}
        if unknown:
            raise InputError(f"schema column has unknown keys: {sorted(unknown)}")
        columns.append(ColumnSchema(
            name=entry["name"], kind=entry["kind"],
            categories=tuple(entry["categories"]) if "categories" in entry else None))
    return TableSchema(tuple(columns))


def load_schema(path) -> TableSchema:
    with open(path, encoding="utf-8") as fh:
        return schema_from_json(fh.read())


def _encode_bits(index: np.ndarray, n_bits: int) -> np.ndarray:
    """(n, n_bits) bits of n category indices, most significant bit first."""
    return (index[:, None] >> np.arange(n_bits - 1, -1, -1)) & 1


def _read_table(path) -> tuple[list[str], list[str]]:
    """(header fields, body lines) of a numeric table file."""
    with open(path, encoding="utf-8") as fh:
        header = next(csv.reader(fh), None)
        if header is None:
            raise ParseError(f"{path}: empty file")
        lines = fh.read().split("\n")
    if lines[-1] == "":  # split's remainder after a final line break
        lines.pop()
    return header, lines


@dataclass(frozen=True)
class LoadedCsv:
    """load_csv result; unpacks as (dataset, labels) per the two-value contract."""

    dataset: Dataset
    labels: dict[str, LabelSet]
    n_rows_kept: int
    n_rows_dropped: int

    def __iter__(self):
        yield self.dataset
        yield self.labels


def load_csv(path, schema: TableSchema, recoders=None) -> LoadedCsv:
    """Parse, clean, and encode one CSV file against a schema.

    recoders: optional {column_name: str -> str} transforms applied to raw
    cell values before category lookup (e.g. the census marital regrouping),
    once per distinct value.
    """
    expected = [c.name for c in schema.columns]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise ParseError(f"{path}: empty file" if header is None else
                             f"{path}: header {header!r} does not match schema "
                             f"columns {expected!r}")
        rows, starts = [], [reader.line_num + 1]  # a cell may span lines
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

    table = np.empty((kept.size, schema.n_features))  # a row per sample
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
                table[:, feature:feature + col.n_bits] = _encode_bits(
                    codes, col.n_bits)
                feature += col.n_bits
    return LoadedCsv(Dataset(table.T, schema.feature_names), labels,
                     n_rows_kept=kept.size, n_rows_dropped=len(rows) - kept.size)


#: Census marital-status regrouping: 7 raw categories down to 3.
_MARITAL_GROUPS = {
    "Married-civ-spouse": "Married",
    "Married-spouse-absent": "Married",
    "Married-AF-spouse": "Married",
    "Divorced": "Used to be Married",
    "Separated": "Used to be Married",
    "Widowed": "Used to be Married",
    "Never-married": "Never Married",
}


def recode_census_marital(raw_label: str) -> str:
    try:
        return _MARITAL_GROUPS[raw_label]
    except KeyError:
        raise UnknownCategory(
            f"unknown marital status {raw_label!r}; expected one of "
            f"{sorted(_MARITAL_GROUPS)}") from None


#: Header for the raw UCI adult files, which ship without one.
ADULT_COLUMNS = ("age", "workclass", "fnlwgt", "education", "education-num",
                 "marital-status", "occupation", "relationship", "race",
                 "sex", "capital-gain", "capital-loss", "hours-per-week",
                 "native-country", "income")


def normalize_adult_csv(src_path, dst_path) -> int:
    """Rewrite a raw UCI adult file into the CSV form load_csv expects.

    The raw files have no header, put a space after every comma, mark
    missing values with "?", and (in the test split) start with a comment
    line and suffix the income labels with a period. Returns the number of
    data rows written.
    """
    written = 0
    with open(src_path, encoding="utf-8") as src, \
            open(dst_path, "w", encoding="utf-8", newline="") as dst:
        writer = csv.writer(dst, lineterminator="\n")
        writer.writerow(ADULT_COLUMNS)
        for line in src:
            line = line.strip()
            if not line or line.startswith("|"):
                continue
            fields = [f.strip() for f in line.split(",")]
            if len(fields) != len(ADULT_COLUMNS):
                raise ParseError(
                    f"{src_path}: expected {len(ADULT_COLUMNS)} fields, "
                    f"got {len(fields)} in line {line!r}")
            fields = ["" if f == "?" else f for f in fields]
            fields[-1] = fields[-1].rstrip(".")
            writer.writerow(fields)
            written += 1
    return written


def balance_indices(l: LabelSet, seed: int) -> np.ndarray:
    """Indices of a per-class uniform undersample down to the smallest class
    count, in ascending (original) order. Deterministic for a fixed seed."""
    l.require_all_classes("balance_indices")
    counts = l.counts()
    target = int(counts.min())
    rng = rng_from(seed, "balance")
    kept = []
    for class_id in range(l.class_count):
        positions = np.flatnonzero(l.labels == class_id)
        if positions.size > target:
            positions = rng.choice(positions, size=target, replace=False)
        kept.append(positions)
    return np.sort(np.concatenate(kept))


def joint_labels(label_sets: list[LabelSet] | tuple[LabelSet, ...]) -> LabelSet:
    """Cross-product labeling: one class per observed combination of the
    given labelings (for balancing several label columns jointly)."""
    if not label_sets:
        raise InputError("joint_labels needs at least one labeling")
    combo = np.zeros(label_sets[0].n_samples, dtype=np.int64)
    total = 1
    for ls in label_sets:
        if ls.n_samples != label_sets[0].n_samples:
            raise InputError("labelings cover different sample counts")
        combo = combo * ls.class_count + ls.labels
        total *= ls.class_count
    return LabelSet(combo, total)


def subsample(d: Dataset, l: list[LabelSet] | tuple[LabelSet, ...], seed: int,
              fraction: float, iteration: int) -> tuple[Dataset, list[LabelSet]]:
    """floor(fraction*n) samples drawn without replacement, in ascending
    order, with the labelings in l taken at the same indices. The draw
    depends only on (seed, iteration), never on call order."""
    n = d.n_samples
    size = int(math.floor(fraction * n))
    if not 1 <= size <= n:
        raise InputError(f"fraction {fraction} keeps {size} of {n} samples")
    if size == n:
        return d, list(l)
    rng = rng_from(mix(seed, iteration))
    indices = np.sort(rng.choice(n, size=size, replace=False))
    return d.take(indices), [ls.take(indices) for ls in l]


def stratified_holdout(l: LabelSet, fraction: float,
                       seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Per-class seeded split: floor(fraction*n_c) of each class is held out.

    Returns (kept_indices, held_indices), both ascending. Used to carve an
    identity-test set out of a training pool when the published split does
    not share subjects across sides.
    """
    if not 0.0 < fraction < 1.0:
        raise InputError(f"holdout fraction must be in (0, 1), got {fraction}")
    l.require_all_classes("stratified_holdout")
    rng = rng_from(seed, "holdout")
    held = []
    for class_id in range(l.class_count):
        positions = np.flatnonzero(l.labels == class_id)
        take = int(math.floor(fraction * positions.size))
        if take > 0:
            held.append(rng.choice(positions, size=take, replace=False))
    held_idx = np.sort(np.concatenate(held)) if held else np.array([], dtype=np.intp)
    mask = np.ones(l.n_samples, dtype=bool)
    mask[held_idx] = False
    return np.flatnonzero(mask), held_idx


# --- dataset/label CSV persistence ------------------------------------------
# Header rows go through csv. Values are written with the bytes np.savetxt's
# %.17g gives, 17 significant digits that make save -> load bit-exact; where a
# column holds only integers these are its %d digits, formatted from ints. The
# body is read in one piece and parsed a table at a time by numpy's text codec.

def _parse_lines(lines: list[str], dtype, n_fields: int) -> np.ndarray | None:
    """(n_lines, n_fields) array of the comma-separated lines; None if numpy's
    reader rejects a value or the lines hold another shape."""
    with warnings.catch_warnings():
        # numpy only warns on empty input, and older numpy as it reads "1.7"
        # as the integer 1; a blank line it skips shows in the shape.
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(lines, dtype, delimiter=",", comments=None, ndmin=2)
        except (ValueError, Warning):
            return None
    return table if table.shape == (len(lines), n_fields) else None


def _first_fault(lines: list[str], dtype, n_fields: int):
    """(file line, csv fields, reason) of the first line _parse_lines rejects
    alone; the reason is float's or int's message where that fails too, else
    it names the first field only numpy rejects."""
    for line_no, line in enumerate(lines, start=2):
        row = next(csv.reader([line]))
        try:
            if len(row) != n_fields:
                raise ValueError(f"expected {n_fields} fields, got {len(row)}")
            np.array(row, dtype=dtype)
        except ValueError as exc:
            return line_no, row, str(exc)
        for field in line.split(","):
            if _parse_lines([field], dtype, 1) is None:
                return line_no, row, f"{field!r} is not a number"


def save_dataset_csv(d: Dataset, path) -> None:
    """One sample per row; header = feature names (x0.. if unnamed)."""
    names = d.feature_names or tuple(f"x{i}" for i in range(d.n_features))
    x = d.x
    # %.17g prints an integer below 2**53 in its %d digits, except -0.0 as
    # "-0"; |x| < 2**53 also rules out nan and inf.
    integral = ((np.abs(x) < 2.0 ** 53) & (x == np.floor(x))
                & ~((x == 0) & np.signbit(x))).all(axis=1)
    row = ",".join(["%d" if i else "%.17g" for i in integral]) + "\n"
    columns = [(c.astype(np.int64) if i else c).tolist()
               for c, i in zip(x, integral)]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(names)
        fh.write("".join([row % values for values in zip(*columns)]))


def load_dataset_csv(path) -> Dataset:
    header, lines = _read_table(path)
    if not lines:
        raise ParseError(f"{path}: no data rows")
    rows = _parse_lines(lines, np.float64, len(header))
    if rows is None:
        line_no, _, reason = _first_fault(lines, np.float64, len(header))
        raise ParseError(f"{path}:{line_no}: {reason}")
    return Dataset(rows.T, feature_names=tuple(header))


def save_labels_csv(l: LabelSet, path) -> None:
    """Single column of class ids; the header carries the class count."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow([f"label:{l.class_count}"])
        fh.write(("%d\n" * l.n_samples) % tuple(l.labels.tolist()))


def load_labels_csv(path) -> LabelSet:
    header, lines = _read_table(path)
    if len(header) != 1 or not header[0].startswith("label:"):
        raise ParseError(f'{path}: expected single header "label:<classes>"')
    try:
        class_count = int(header[0].split(":", 1)[1])
    except ValueError:
        raise ParseError(f"{path}: bad class count in header {header[0]!r}") from None
    if not lines:
        raise ParseError(f"{path}: no label rows")
    rows = _parse_lines(lines, np.int64, 1)
    if rows is None:
        line_no, row, _ = _first_fault(lines, np.int64, 1)
        raise ParseError(f"{path}:{line_no}: bad label row {row!r}")
    return LabelSet(rows[:, 0], class_count)
