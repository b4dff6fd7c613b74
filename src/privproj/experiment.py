"""Sweep orchestration: repeated subsampled fits over a (method, k, weights)
grid, accuracy aggregation, the utility/privacy performance criterion, and
trade-off table/chart emission.

The sweep is iteration-major: each iteration draws its subsample once, fits
every live cell with one `fit_methods` call (each labeling's scatter and
each distinct pencil once, all eigenproblems in one stacked solve), then
scores the cells on the worker threads while the next iteration is fitted.

Determinism contract: an iteration's subsample depends only on (seed,
iteration), so every cell sees the same draws; only RANDOM fits are salted
with (method, k, weights). Every fit is bit-identical to fitting its cell
alone, and one failing cell leaves the other rows unchanged. With any
number of sweep workers, a sweep reproduces its CSV byte-for-byte on the
same numpy/BLAS build at the same BLAS thread count; on wide data BLAS
products can change their last bits with that thread count.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace

import numpy as np

from .classify import ClassifierSpec, train_eval
from .data import Dataset, LabelSet
from .dataio import open_text, subsample
from .errors import (DimensionMismatch, InputError, LengthMismatch,
                     PrivprojError, as_floats, as_tuple, is_integer, is_real)
# fit_method is unused here but stays importable: bench/workloads.py wraps
# experiment.fit_method by name.
from .projections import (ProjectionConfig, fit_method,  # noqa: F401
                          fit_methods, project)
from .seeds import mix

__all__ = [
    "MethodGrid", "ExperimentConfig", "DataBundle", "TradeoffPoint",
    "performance", "run_sweep", "emit_tradeoff_curve", "read_tradeoff_csv",
    "read_tradeoff_points",
    "config_from_json", "config_to_json", "load_config", "FULL_BASELINE",
    "render_svg",
]

#: Method name used for the no-projection baseline row.
FULL_BASELINE = "FULL"

SCORED_PRIVACY_MODES = ("first", "max")


@dataclass(frozen=True)
class MethodGrid:
    """One method's grid: every k in k_values crossed with every weight row.

    A weight row assigns one non-negative weight per privacy task. Only
    RUCA takes weights; every other method has the single empty row, since
    a row there would only repeat the same fit under a label it ignores.
    `cells` holds each (k, row) as a `ProjectionConfig`, which checks it."""

    method: str
    k_values: tuple[int, ...]
    weight_rows: tuple[tuple[float, ...], ...] = ((),)

    def __post_init__(self):
        ks = as_tuple(self.k_values, "k_values")
        rows = tuple(as_tuple(row, "weight row")
                     for row in as_tuple(self.weight_rows, "weight_rows"))
        if not ks or not rows:
            raise InputError(f"{self.method} grid: k_values and weight_rows "
                             f"must not be empty, got {ks} and {rows}")
        cells = tuple(ProjectionConfig(self.method, k, privacy_weights=row)
                      for k in ks for row in rows)
        if self.method != "RUCA" and rows != ((),):
            raise InputError(f"{self.method} takes no privacy weights; its "
                             f"weight_rows must be ((),), got {rows}")
        # The fields keep the cells' ints and floats.
        object.__setattr__(self, "k_values",
                           tuple(cell.k for cell in cells[::len(rows)]))
        object.__setattr__(self, "weight_rows", tuple(
            cell.privacy_weights for cell in cells[:len(rows)]))
        object.__setattr__(self, "cells", cells)


@dataclass(frozen=True)
class ExperimentConfig:
    methods: tuple[MethodGrid, ...]
    classifier: ClassifierSpec
    iterations: int
    fraction: float
    betas: tuple[float, ...] = (1.0,)
    seed: int | None = None
    scored_privacy: str = "first"
    rho: float | None = None
    rho_prime: float | None = None

    def __post_init__(self):
        methods = as_tuple(self.methods, "methods")
        if not methods or not all(isinstance(g, MethodGrid) for g in methods):
            raise InputError(f"config needs one or more method grids, got "
                             f"{self.methods!r}")
        if not isinstance(self.classifier, ClassifierSpec):
            raise InputError(f"classifier must be a ClassifierSpec, got "
                             f"{self.classifier!r}")
        if not is_integer(self.iterations) or self.iterations < 1:
            raise InputError(f"iterations must be >= 1, got {self.iterations}")
        if not (is_real(self.fraction) and 0.0 < self.fraction <= 1.0):
            raise InputError(f"fraction must be in (0, 1], got {self.fraction}")
        betas = as_floats(self.betas, "betas")
        if not all(0 <= b < math.inf for b in betas):
            raise InputError(f"betas must be >= 0 and finite, got {betas}")
        if self.scored_privacy not in SCORED_PRIVACY_MODES:
            raise InputError(f"scored_privacy must be one of "
                             f"{SCORED_PRIVACY_MODES}, got {self.scored_privacy!r}")
        object.__setattr__(self, "methods", methods)
        object.__setattr__(self, "iterations", int(self.iterations))
        object.__setattr__(self, "betas", betas)
        if self.seed is not None:
            if not is_integer(self.seed):
                raise InputError(f"seed must be an integer, got {self.seed!r}")
            object.__setattr__(self, "seed", int(self.seed))
        # Every grid cell with the ridges, in emission order. Not a field:
        # == and asdict see only what the cells are built from.
        object.__setattr__(self, "cells", tuple(
            replace(cell, rho=self.rho, rho_prime=self.rho_prime)
            for grid in self.methods for cell in grid.cells))


@dataclass(frozen=True)
class DataBundle:
    """Train/test datasets with one utility labeling and >= 0 privacy
    labelings, each with one label per sample and the same classes on both."""

    train: Dataset
    train_utility: LabelSet
    train_privacy: tuple[LabelSet, ...]
    test: Dataset
    test_utility: LabelSet
    test_privacy: tuple[LabelSet, ...]
    privacy_names: tuple[str, ...] = ()

    def __post_init__(self):
        if self.train.n_features != self.test.n_features:
            raise InputError("train/test feature dimensions differ")
        if len(self.train_privacy) != len(self.test_privacy):
            raise InputError("train/test privacy task counts differ")
        object.__setattr__(self, "train_privacy", tuple(self.train_privacy))
        object.__setattr__(self, "test_privacy", tuple(self.test_privacy))
        names = tuple(self.privacy_names) or tuple(
            f"p{i}" for i in range(len(self.train_privacy)))
        if len(names) != len(self.train_privacy):
            raise InputError("privacy_names length mismatch")
        object.__setattr__(self, "privacy_names", names)
        for task, train_l, test_l in zip(
                ("utility", *names), (self.train_utility, *self.train_privacy),
                (self.test_utility, *self.test_privacy)):
            for side, data, labels in (("train", self.train, train_l),
                                       ("test", self.test, test_l)):
                if labels.n_samples != data.n_samples:
                    raise LengthMismatch(
                        f"{side} {task} labels: {labels.n_samples} labels "
                        f"for {data.n_samples} samples")
            if train_l.class_count != test_l.class_count:
                raise DimensionMismatch(
                    f"{task} labels: {train_l.class_count} classes in train, "
                    f"{test_l.class_count} in test")

    @property
    def n_privacy(self) -> int:
        return len(self.train_privacy)


@dataclass(frozen=True)
class TradeoffPoint:
    method: str
    k: int
    privacy_weights: tuple[float, ...]
    acc_u_mean: float
    acc_u_std: float
    acc_p_means: tuple[float, ...]
    acc_p_stds: tuple[float, ...]
    performance: dict[float, float]
    status: str = "ok"

    @property
    def failed(self) -> bool:
        return self.status != "ok"


def performance(acc_u: float, acc_p: float, beta: float) -> float:
    """Scalar criterion rewarding utility accuracy and privacy *error*:
    acc_u + beta * (1 - acc_p), accuracies as fractions in [0, 1]."""
    if not 0.0 <= acc_u <= 1.0 or not 0.0 <= acc_p <= 1.0:
        raise InputError(f"accuracies must be fractions in [0,1], "
                         f"got ({acc_u}, {acc_p})")
    if beta < 0:
        raise InputError(f"beta must be >= 0, got {beta}")
    return acc_u + beta * (1.0 - acc_p)


def _score(model, train: Dataset, train_labels, bundle: DataBundle,
           spec: ClassifierSpec):
    """(acc_u, acc_p per task) of one fitted projection (None: no
    projection) on one iteration's subsample, or the PrivprojError raised.
    One `train_eval` call scores every labeling over one neighbour search."""
    try:
        if model is None:
            train_z, test_z = train, bundle.test
        else:
            train_z, test_z = project(model, train), project(model, bundle.test)
        reports = train_eval(train_z, train_labels, test_z,
                             (bundle.test_utility, *bundle.test_privacy), spec)
    except PrivprojError as exc:
        return exc
    return reports[0].accuracy, [report.accuracy for report in reports[1:]]


def _std(values: np.ndarray) -> float:
    return float(values.std(ddof=1)) if values.size > 1 else 0.0


def _scored_privacy_mean(cfg: ExperimentConfig,
                         acc_p_means: tuple[float, ...]) -> float | None:
    if not acc_p_means:
        return None
    if cfg.scored_privacy == "max":
        return max(acc_p_means)
    return acc_p_means[0]


def _point(cell, outcomes, cfg: ExperimentConfig,
           n_privacy: int) -> TradeoffPoint:
    """Aggregate one cell's per-iteration outcomes; the cell fails with the
    error of its first failing iteration."""
    method, k, weights = cell
    error = next((o for o in outcomes if isinstance(o, PrivprojError)), None)
    if error is not None:
        nan_p = (math.nan,) * n_privacy
        return TradeoffPoint(
            method=method, k=k, privacy_weights=weights,
            acc_u_mean=math.nan, acc_u_std=math.nan,
            acc_p_means=nan_p, acc_p_stds=nan_p,
            performance={beta: math.nan for beta in cfg.betas},
            status=f"failed: {type(error).__name__}: {error}")
    acc_u = np.empty(cfg.iterations)
    acc_p = np.empty((n_privacy, cfg.iterations))
    for it, (u, p) in enumerate(outcomes):
        acc_u[it] = u
        acc_p[:, it] = p
    acc_p_means = tuple(float(acc_p[t].mean()) for t in range(n_privacy))
    scored = _scored_privacy_mean(cfg, acc_p_means)
    perf = {beta: performance(float(acc_u.mean()), scored, beta)
            for beta in cfg.betas} if scored is not None else {
        beta: float(acc_u.mean()) for beta in cfg.betas}
    return TradeoffPoint(
        method=method, k=k, privacy_weights=weights,
        acc_u_mean=float(acc_u.mean()), acc_u_std=_std(acc_u),
        acc_p_means=acc_p_means,
        acc_p_stds=tuple(_std(acc_p[t]) for t in range(n_privacy)),
        performance=perf)


def run_sweep(cfg: ExperimentConfig, bundle: DataBundle,
              threads: int = 1) -> list[TradeoffPoint]:
    """Evaluate every grid cell plus the full-dimensional baseline.

    Works one iteration at a time: draw the subsample, fit every live
    cell's projection with one `fit_methods` call (shared scatters and
    pencils, one stacked eigensolve), then score each cell. Scoring runs on
    `threads` workers (threads=0 picks the CPU count) while the next
    iteration is fitted; any thread count produces the same result list.
    A failing cell yields a row with the status of its first failing
    iteration instead of aborting the run; once its failure is known, it
    is not fitted again.
    """
    cells = (None, *cfg.cells)  # None: the full-dimensional baseline
    if threads == 0:
        threads = min(len(cells), os.cpu_count() or 1)
    split_seed = mix(cfg.seed or 0, "subsample")
    all_labels = [bundle.train_utility, *bundle.train_privacy]
    outcomes = [[] for _ in cells]
    with (ThreadPoolExecutor(max_workers=threads) if threads > 1
          else contextlib.nullcontext()) as pool:
        for it in range(cfg.iterations):
            live = [c for c, out in enumerate(outcomes)
                    if not any(isinstance(o, PrivprojError) for o in out)]
            try:
                sub_train, sub_labels = subsample(
                    bundle.train, all_labels, split_seed, cfg.fraction, it)
            except PrivprojError as exc:
                for c in live:
                    outcomes[c].append(exc)
                continue
            utility, privacy = sub_labels[0], tuple(sub_labels[1:])
            fitted = [c for c in live if cells[c] is not None]
            models = dict.fromkeys(live)
            models.update(zip(fitted, fit_methods(
                sub_train, utility, privacy,
                [_salted(cells[c], cfg.seed, it) for c in fitted])))
            for c in live:
                model = models[c]
                if isinstance(model, PrivprojError):
                    outcomes[c].append(model)
                    continue
                task = (model, sub_train, (utility, *privacy), bundle,
                        cfg.classifier)
                outcomes[c].append(pool.submit(_score, *task) if pool
                                   else _score(*task))
    rows = [(FULL_BASELINE, bundle.train.n_features, ()),
            *((c.method, c.k, c.privacy_weights) for c in cfg.cells)]
    return [_point(row, [o.result() if isinstance(o, Future) else o
                         for o in out], cfg, bundle.n_privacy)
            for row, out in zip(rows, outcomes)]


def _salted(cell: ProjectionConfig, seed: int | None,
            it: int) -> ProjectionConfig:
    """The cell as iteration it fits it; only RANDOM's seed changes."""
    if cell.method != "RANDOM":
        return cell
    return replace(cell, seed=mix(mix(seed or 0, cell.method, cell.k),
                                  "fit", it))


# --- config JSON -------------------------------------------------------------

def config_from_json(text: str) -> ExperimentConfig:
    """ExperimentConfig from JSON holding its fields, with MethodGrid fields
    in each "methods" entry and ClassifierSpec fields in "classifier". A
    key left out takes its dataclass default; an unknown key is an InputError."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"config JSON does not parse: {exc}") from exc
    try:
        return ExperimentConfig(**{
            **doc,
            "methods": tuple(MethodGrid(**entry) for entry in doc["methods"]),
            "classifier": ClassifierSpec(**doc.get("classifier", {}))})
    except KeyError as exc:
        raise InputError(f"config JSON missing key: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"config JSON malformed: {exc}") from exc


def config_to_json(cfg: ExperimentConfig) -> str:
    return json.dumps(asdict(cfg), indent=2) + "\n"


def load_config(path) -> ExperimentConfig:
    with open_text(path) as fh:
        return config_from_json(fh.read())


# --- trade-off table and chart ----------------------------------------------

def _beta_label(beta: float) -> str:
    return f"perf@{format(beta, 'g')}"


def _csv_value(value: float) -> str:
    return "" if math.isnan(value) else repr(float(value))


def tradeoff_csv_header(n_privacy: int, betas: tuple[float, ...]) -> list[str]:
    header = ["method", "k", "privacy_weights", "acc_u_mean", "acc_u_std"]
    for i in range(n_privacy):
        header += [f"acc_p{i}_mean", f"acc_p{i}_std"]
    header += [_beta_label(b) for b in betas]
    header.append("status")
    return header


def _tradeoff_rows(points: list[TradeoffPoint], betas: tuple[float, ...]):
    for p in points:
        row = [p.method, str(p.k), ";".join(format(w, "g")
                                            for w in p.privacy_weights),
               _csv_value(p.acc_u_mean), _csv_value(p.acc_u_std)]
        for mean, std in zip(p.acc_p_means, p.acc_p_stds):
            row += [_csv_value(mean), _csv_value(std)]
        row += [_csv_value(p.performance.get(b, math.nan)) for b in betas]
        row.append(p.status)
        yield row


def read_tradeoff_csv(path) -> list[dict]:
    with open_text(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _float_or_nan(text: str) -> float:
    return float(text) if text else math.nan


def read_tradeoff_points(path) -> list[TradeoffPoint]:
    """Parse a trade-off CSV back into points; emitting them again writes
    the same bytes."""
    rows = read_tradeoff_csv(path)
    if not rows:
        raise InputError(f"{path}: no rows")
    header = list(rows[0].keys())
    p_means = [c for c in header if c.startswith("acc_p") and
               c.endswith("_mean")]
    betas = [c for c in header if c.startswith("perf@")]
    points = []
    for row in rows:
        weights = tuple(float(w) for w in row["privacy_weights"].split(";")
                        if w)
        points.append(TradeoffPoint(
            method=row["method"], k=int(row["k"]), privacy_weights=weights,
            acc_u_mean=_float_or_nan(row["acc_u_mean"]),
            acc_u_std=_float_or_nan(row["acc_u_std"]),
            acc_p_means=tuple(_float_or_nan(row[c]) for c in p_means),
            acc_p_stds=tuple(_float_or_nan(row[c.replace("_mean", "_std")])
                             for c in p_means),
            performance={float(c.split("@", 1)[1]): _float_or_nan(row[c])
                         for c in betas},
            status=row["status"]))
    return points


_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
            "#8c564b", "#e377c2", "#17becf")


def render_svg(points: list[TradeoffPoint], scored_task: int) -> str:
    """Self-contained SVG: one polyline per (method, weights) group, points
    ordered by k; dashed horizontal line at full-dimensional utility accuracy.
    Axes are fixed to [0, 1] so output depends only on the data."""
    width, height, margin = 640, 480, 60

    def sx(v):
        return margin + v * (width - 2 * margin)

    def sy(v):
        return height - margin - v * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
    ]
    for tick in (0.0, 0.25, 0.5, 0.75, 1.0):
        parts.append(f'<line x1="{sx(tick):.1f}" y1="{sy(0):.1f}" '
                     f'x2="{sx(tick):.1f}" y2="{sy(0) + 5:.1f}" stroke="black"/>')
        parts.append(f'<text x="{sx(tick):.1f}" y="{sy(0) + 20:.1f}" '
                     f'font-size="12" text-anchor="middle">{tick:g}</text>')
        parts.append(f'<line x1="{sx(0):.1f}" y1="{sy(tick):.1f}" '
                     f'x2="{sx(0) - 5:.1f}" y2="{sy(tick):.1f}" stroke="black"/>')
        parts.append(f'<text x="{sx(0) - 8:.1f}" y="{sy(tick) + 4:.1f}" '
                     f'font-size="12" text-anchor="end">{tick:g}</text>')
    parts.append(f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" x2="{sx(1):.1f}" '
                 f'y2="{sy(0):.1f}" stroke="black"/>')
    parts.append(f'<line x1="{sx(0):.1f}" y1="{sy(0):.1f}" x2="{sx(0):.1f}" '
                 f'y2="{sy(1):.1f}" stroke="black"/>')
    parts.append(f'<text x="{width / 2:.1f}" y="{height - 15:.1f}" '
                 f'font-size="14" text-anchor="middle">'
                 f'1 - privacy accuracy</text>')
    parts.append(f'<text x="18" y="{height / 2:.1f}" font-size="14" '
                 f'text-anchor="middle" transform="rotate(-90 18 '
                 f'{height / 2:.1f})">utility accuracy</text>')

    baseline = next((p for p in points
                     if p.method == FULL_BASELINE and not p.failed), None)
    if baseline is not None:
        y = sy(baseline.acc_u_mean)
        parts.append(f'<line x1="{sx(0):.1f}" y1="{y:.1f}" x2="{sx(1):.1f}" '
                     f'y2="{y:.1f}" stroke="gray" stroke-dasharray="6,4"/>')
        parts.append(f'<text x="{sx(1):.1f}" y="{y - 4:.1f}" font-size="11" '
                     f'text-anchor="end" fill="gray">full-dimensional</text>')

    groups: dict[tuple, list[TradeoffPoint]] = {}
    for p in points:
        if p.method == FULL_BASELINE or p.failed:
            continue
        groups.setdefault((p.method, p.privacy_weights), []).append(p)

    legend_y = margin
    for color_idx, (key, members) in enumerate(groups.items()):
        method, weights = key
        color = _PALETTE[color_idx % len(_PALETTE)]
        members = sorted(members, key=lambda p: p.k)
        coords = []
        for p in members:
            acc_p = p.acc_p_means[scored_task] if p.acc_p_means else 0.0
            coords.append((sx(1.0 - acc_p), sy(p.acc_u_mean)))
        if len(coords) > 1:
            path = " ".join(f"{x:.2f},{y:.2f}" for x, y in coords)
            parts.append(f'<polyline points="{path}" fill="none" '
                         f'stroke="{color}" stroke-width="1.5"/>')
        for x, y in coords:
            parts.append(f'<circle cx="{x:.2f}" cy="{y:.2f}" r="3.5" '
                         f'fill="{color}"/>')
        label = method if not weights else (
            method + "[" + ";".join(format(w, "g") for w in weights) + "]")
        parts.append(f'<rect x="{width - margin - 150}" y="{legend_y:.1f}" '
                     f'width="12" height="12" fill="{color}"/>')
        parts.append(f'<text x="{width - margin - 132}" y="{legend_y + 10:.1f}" '
                     f'font-size="12">{label}</text>')
        legend_y += 18
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def emit_tradeoff_curve(points: list[TradeoffPoint], base_path,
                        betas: tuple[float, ...] | None = None,
                        scored_task: int = 0) -> tuple[str, str]:
    """Write <base>.csv and <base>.svg; returns both paths. Output bytes are
    a pure function of the points (no timestamps or environment data)."""
    if not points:
        raise InputError("no trade-off points to emit")
    if betas is None:
        betas = tuple(points[0].performance.keys())
    n_privacy = len(points[0].acc_p_means)
    base = str(base_path)
    csv_path, svg_path = base + ".csv", base + ".svg"
    parent = os.path.dirname(base)
    if parent:
        os.makedirs(parent, exist_ok=True)
    with open(csv_path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(tradeoff_csv_header(n_privacy, betas))
        writer.writerows(_tradeoff_rows(points, betas))
    with open(svg_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_svg(points, scored_task))
    return csv_path, svg_path
