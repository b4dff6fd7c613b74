"""CSV ingestion, categorical bit-encoding, balancing, and subsampling.

Input tables are RFC-4180 CSV with a header row. A JSON schema assigns each
column a kind:

  numeric      parsed as float, passed through as one feature
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
    def label_names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.columns if c.kind == "label")

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


def _encode_bits(index: int, n_bits: int) -> list[float]:
    return [float((index >> (n_bits - 1 - b)) & 1) for b in range(n_bits)]


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
    cell values before category lookup (e.g. the census marital regrouping).
    """
    recoders = recoders or {}
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        expected = [c.name for c in schema.columns]
        if header != expected:
            raise ParseError(
                f"{path}: header {header!r} does not match schema columns "
                f"{expected!r}")

        feature_rows: list[list[float]] = []
        label_rows: dict[str, list[int]] = {name: [] for name in schema.label_names}
        n_dropped = 0
        for row_num, row in enumerate(reader, start=2):
            if len(row) != len(schema.columns):
                raise ParseError(
                    f"{path}:{row_num}: expected {len(schema.columns)} fields, "
                    f"got {len(row)}")
            if any(cell == "" for cell, col in zip(row, schema.columns)
                   if col.kind != "drop"):
                n_dropped += 1
                continue
            features: list[float] = []
            labels: dict[str, int] = {}
            for cell, col in zip(row, schema.columns):
                if col.kind == "drop":
                    continue
                if col.kind == "numeric":
                    try:
                        features.append(float(cell))
                    except ValueError:
                        raise ParseError(
                            f"{path}:{row_num}: column {col.name!r}: "
                            f"{cell!r} is not numeric") from None
                    continue
                value = recoders[col.name](cell) if col.name in recoders else cell
                try:
                    index = col.categories.index(value)
                except ValueError:
                    raise UnknownCategory(
                        f"{path}:{row_num}: column {col.name!r}: unknown "
                        f"category {value!r}") from None
                if col.kind == "categorical":
                    features.extend(_encode_bits(index, col.n_bits))
                else:
                    labels[col.name] = index
            feature_rows.append(features)
            for name, idx in labels.items():
                label_rows[name].append(idx)

    if not feature_rows:
        raise ParseError(f"{path}: no usable rows after dropping "
                         f"{n_dropped} incomplete rows")
    x = np.array(feature_rows, dtype=np.float64).T
    dataset = Dataset(x, feature_names=schema.feature_names)
    by_name = {c.name: c for c in schema.columns}
    label_sets = {
        name: LabelSet(np.array(values, dtype=np.int64),
                       len(by_name[name].categories))
        for name, values in label_rows.items()
    }
    return LoadedCsv(dataset=dataset, labels=label_sets,
                     n_rows_kept=len(feature_rows), n_rows_dropped=n_dropped)


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
# Floats use 17 significant digits so save -> load is bit-exact.

def _fmt(value: float) -> str:
    return format(float(value), ".17g")


def save_dataset_csv(d: Dataset, path) -> None:
    """One sample per row; header = feature names (x0.. if unnamed)."""
    names = d.feature_names or tuple(f"x{i}" for i in range(d.n_features))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(names)
        for col in range(d.n_samples):
            writer.writerow([_fmt(v) for v in d.x[:, col]])


def load_dataset_csv(path) -> Dataset:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        rows = []
        for row_num, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise ParseError(f"{path}:{row_num}: expected {len(header)} "
                                 f"fields, got {len(row)}")
            try:
                rows.append([float(v) for v in row])
            except ValueError as exc:
                raise ParseError(f"{path}:{row_num}: {exc}") from None
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return Dataset(np.array(rows, dtype=np.float64).T, feature_names=tuple(header))


def save_labels_csv(l: LabelSet, path) -> None:
    """Single column of class ids; the header carries the class count."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([f"label:{l.class_count}"])
        for value in l.labels:
            writer.writerow([int(value)])


def load_labels_csv(path) -> LabelSet:
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ParseError(f"{path}: empty file") from None
        if len(header) != 1 or not header[0].startswith("label:"):
            raise ParseError(f'{path}: expected single header "label:<classes>"')
        try:
            class_count = int(header[0].split(":", 1)[1])
        except ValueError:
            raise ParseError(f"{path}: bad class count in header "
                             f"{header[0]!r}") from None
        values = []
        for row_num, row in enumerate(reader, start=2):
            try:
                values.append(int(row[0]))
            except (IndexError, ValueError):
                raise ParseError(f"{path}:{row_num}: bad label row "
                                 f"{row!r}") from None
    if not values:
        raise ParseError(f"{path}: no label rows")
    return LabelSet(np.array(values, dtype=np.int64), class_count)
