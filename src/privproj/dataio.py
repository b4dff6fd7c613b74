"""CSV ingestion, categorical bit-encoding, balancing, and subsampling.

Input tables are RFC-4180 CSV with a header row. A JSON schema assigns each
column a kind. load_csv streams the file in blocks of BLOCK_ROWS rows and
converts each column of a block whole, not cell by cell, while the block's
cells are still in cache; only the floats and codes are kept. The blocks'
tables are joined at the end, so the peak is about twice the output table
plus one block (traced: 8.73 MiB for a 16200 x 29 census table of
3.58 MiB). save_dataset_csv holds one block of samples at a time, so its
peak does not grow with the row count. A file with a fault is read again as
one block, which reports the fault a whole-file read meets first: a row of
the wrong width, else the first column in schema order that fails, at its
first failing row's file line. The kinds:

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

import contextlib
import csv
import json
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .data import Dataset, LabelSet
from .errors import InputError, ParseError, PrivprojError, UnknownCategory
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

#: Rows load_csv reads and converts, save_dataset_csv checks, formats and
#: writes, and write_adult_like_csv formats, at a time: a block's cells are
#: converted while they are still in cache, and only one block is held as
#: Python objects, masks or text.
BLOCK_ROWS = 512


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


@contextlib.contextmanager
def open_text(path, newline=None):
    """path read as UTF-8 text; a byte that does not decode is a ParseError."""
    with open(path, encoding="utf-8", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text: byte "
                             f"{exc.object[exc.start]:#04x} ({exc.reason})"
                             ) from None


def schema_from_json(text: str) -> TableSchema:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"schema JSON does not parse: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("columns"), list):
        raise InputError('schema JSON must be an object with a "columns" list')
    columns = []
    for entry in doc["columns"]:
        if not (isinstance(entry, dict) and isinstance(entry.get("name"), str)
                and "kind" in entry):
            raise InputError(f'schema column must be an object with a string '
                             f'"name" and a "kind", got {entry!r}')
        unknown = set(entry) - {"name", "kind", "categories"}
        if unknown:
            raise InputError(f"schema column has unknown keys: {sorted(unknown)}")
        categories = entry.get("categories")
        if categories is not None and not (
                isinstance(categories, list)
                and all(isinstance(c, str) for c in categories)):
            raise InputError(f"column {entry['name']!r}: categories must be a "
                             f"list of strings, got {categories!r}")
        columns.append(ColumnSchema(
            name=entry["name"], kind=entry["kind"],
            categories=None if categories is None else tuple(categories)))
    return TableSchema(tuple(columns))


def load_schema(path) -> TableSchema:
    with open_text(path) as fh:
        return schema_from_json(fh.read())


def _encode_bits(index: np.ndarray, n_bits: int) -> np.ndarray:
    """(n, n_bits) bits of n category indices, most significant bit first."""
    return (index[:, None] >> np.arange(n_bits - 1, -1, -1)) & 1


def _read_table(path) -> tuple[list[str], list[str]]:
    """(header fields, body lines) of a numeric table file."""
    with open_text(path) as fh:
        try:
            header = next(csv.reader(fh), None)
        except csv.Error as exc:
            raise ParseError(f"{path}:1: {exc}") from None
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
    once per distinct value of the kept rows, in first-seen order.

    The file is read and converted BLOCK_ROWS rows at a time, and the
    converted blocks are joined at the end, so memory peaks near twice the
    output table plus one block of cells. If a block fails, the
    whole file is read again as one block, so the error is the one a
    whole-file read gives: width faults first, then columns in schema order.
    """
    try:
        return _load_blocks(path, schema, recoders, BLOCK_ROWS)
    except PrivprojError:
        # A block's fault need not be the file's first: a later row may have
        # the wrong width, or a later block fail in an earlier column. Read
        # as one block, the file raises the fault it meets first.
        return _load_blocks(path, schema, recoders, None)


def _load_blocks(path, schema: TableSchema, recoders,
                 block_rows: int | None) -> LoadedCsv:
    """load_csv reading block_rows rows at a time, or all rows if None."""
    expected = [c.name for c in schema.columns]
    parts, code_maps, n_rows = [], {}, 0
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise ParseError(f"{path}:1: {exc}") from None
        if header != expected:
            raise ParseError(f"{path}: empty file" if header is None else
                             f"{path}: header {header!r} does not match schema "
                             f"columns {expected!r}")
        for rows, starts in _read_blocks(path, reader, len(expected),
                                         block_rows):
            n_rows += len(rows)
            part = _convert_block(path, schema, rows, starts, code_maps,
                                  recoders or {})
            if part is not None:
                parts.append(part)
    if not parts:
        raise ParseError(f"{path}: no usable rows after dropping "
                         f"{n_rows} incomplete rows")
    tables, codes = zip(*parts)
    table = np.concatenate(tables)  # a row per sample
    labels = {col.name: LabelSet(np.concatenate([c[col.name] for c in codes]),
                                 len(col.categories))
              for col in schema.columns if col.kind == "label"}
    return LoadedCsv(Dataset(table.T, schema.feature_names), labels,
                     n_rows_kept=len(table), n_rows_dropped=n_rows - len(table))


def _read_blocks(path, reader, width: int, block_rows: int | None):
    """(rows, their first file lines) of up to block_rows csv rows at a time,
    or of every row if block_rows is None."""
    rows, starts, start = [], [], reader.line_num + 1  # a cell may span lines
    try:
        for row in reader:
            if len(row) != width:
                raise ParseError(f"{path}:{start}: expected {width} fields, "
                                 f"got {len(row)}")
            rows.append(row)
            starts.append(start)
            start = reader.line_num + 1
            if len(rows) == block_rows:
                yield rows, starts
                rows, starts = [], []
    except csv.Error as exc:
        raise ParseError(f"{path}:{start}: {exc}") from None
    if rows:
        yield rows, starts


def _convert_block(path, schema: TableSchema, rows, starts, code_maps,
                   recoders):
    """(table, {label column: codes}) of the block's rows without a blank
    non-drop cell, or None if there are none. code_maps holds each coded
    column's {cell: code} from block to block."""
    used = [j for j, col in enumerate(schema.columns) if col.kind != "drop"]
    columns = list(zip(*rows))
    kept = range(len(rows))
    blank = {i for j in used if not all(columns[j])
             for i, cell in enumerate(columns[j]) if not cell}
    if blank:
        kept = [i for i in kept if i not in blank]
        if not kept:
            return None
        columns = list(zip(*map(rows.__getitem__, kept)))

    table = np.empty((len(kept), schema.n_features))
    labels, feature = {}, 0
    for j, col in enumerate(schema.columns):
        column = columns[j]
        if col.kind == "numeric":
            try:
                table[:, feature] = np.fromiter(map(float, column), np.float64,
                                                len(column))
            except ValueError:
                for i, cell in zip(kept, column):
                    try:
                        float(cell)
                    except ValueError:
                        raise ParseError(f"{path}:{starts[i]}: column {col.name!r}: "
                                         f"{cell!r} is not numeric") from None
            feature += 1
        elif col.kind != "drop":
            recode = recoders.get(col.name, str)
            code_of = code_maps.setdefault(j, {})
            try:
                codes = np.fromiter(map(code_of.__getitem__, column), np.int64,
                                    len(column))
            except KeyError:  # values no earlier block held
                codes = None
            if codes is None:
                index = {category: i for i, category in enumerate(col.categories)}
                code_of.update((v, index.get(recode(v), -1))
                               for v in dict.fromkeys(column) if v not in code_of)
                codes = np.fromiter(map(code_of.__getitem__, column), np.int64,
                                    len(column))
            if codes.min() < 0:
                first = np.argmax(codes < 0)
                raise UnknownCategory(
                    f"{path}:{starts[kept[first]]}: column {col.name!r}: "
                    f"unknown category {recode(column[first])!r}")
            if col.kind == "label":
                labels[col.name] = codes
            else:
                table[:, feature:feature + col.n_bits] = _encode_bits(
                    codes, col.n_bits)
                feature += col.n_bits
    return table, labels


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
    with open_text(src_path) as src, \
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
# body is written BLOCK_ROWS rows at a time, and read in one piece and parsed
# a table at a time by numpy's text codec.

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


def _first_fault(path, lines: list[str], dtype, n_fields: int):
    """(file line, csv fields, reason) of the first line _parse_lines rejects
    alone; the reason is float's or int's message where that fails too, else
    it names the first field only numpy rejects. A line csv rejects raises
    ParseError."""
    for line_no, line in enumerate(lines, start=2):
        try:
            row = next(csv.reader([line]))
        except csv.Error as exc:
            raise ParseError(f"{path}:{line_no}: {exc}") from None
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
    """One sample per row; header = feature names (x0.. if unnamed).

    Each column's format is decided, and the rows are then written,
    BLOCK_ROWS samples at a time, so beyond d the writer holds one block's
    masks, values and text however many rows there are."""
    names = d.feature_names or tuple(f"x{i}" for i in range(d.n_features))
    x = d.x
    # %.17g prints an integer below 2**53 in its %d digits, except -0.0 as
    # "-0"; |x| < 2**53 also rules out nan and inf.
    integral = np.ones(x.shape[0], dtype=bool)
    for lo in range(0, x.shape[1], BLOCK_ROWS):
        block = x[:, lo:lo + BLOCK_ROWS]
        integral &= ((np.abs(block) < 2.0 ** 53) & (block == np.floor(block))
                     & ~((block == 0) & np.signbit(block))).all(axis=1)
    row = ",".join(["%d" if i else "%.17g" for i in integral]) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh, lineterminator="\n").writerow(names)
        for lo in range(0, x.shape[1], BLOCK_ROWS):
            block = x[:, lo:lo + BLOCK_ROWS]
            columns = [(c.astype(np.int64) if i else c).tolist()
                       for c, i in zip(block, integral)]
            fh.write("".join([row % values for values in zip(*columns)]))


def load_dataset_csv(path) -> Dataset:
    header, lines = _read_table(path)
    if not lines:
        raise ParseError(f"{path}: no data rows")
    rows = _parse_lines(lines, np.float64, len(header))
    if rows is None:
        line_no, _, reason = _first_fault(path, lines, np.float64, len(header))
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
        line_no, row, _ = _first_fault(path, lines, np.int64, 1)
        raise ParseError(f"{path}:{line_no}: bad label row {row!r}")
    return LabelSet(rows[:, 0], class_count)
