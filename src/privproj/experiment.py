"""Sweep orchestration: repeated subsampled fits over a (method, k, weights)
grid, accuracy aggregation, the utility/privacy performance criterion, and
trade-off table/chart emission.

Determinism contract: an iteration's subsample depends only on (seed,
iteration), so every cell sees the same draws; only RANDOM fits are salted
with (method, k, weights). Results are identical regardless of worker count
or scheduling order, and rerunning a sweep on the same numpy/BLAS build
reproduces its CSV byte-for-byte.
"""

from __future__ import annotations

import csv
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .classify import ClassifierSpec, train_eval
from .data import Dataset, LabelSet
from .dataio import subsample
from .errors import InputError, PrivprojError
from .projections import METHODS, ProjectionConfig, fit_method, project
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
    a row there would only repeat the same fit under a label it ignores."""

    method: str
    k_values: tuple[int, ...]
    weight_rows: tuple[tuple[float, ...], ...] = ((),)

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(f"unknown method {self.method!r}")
        ks = tuple(int(k) for k in self.k_values)
        if not ks or any(k < 1 for k in ks):
            raise InputError(f"k_values must be positive integers, got {ks}")
        rows = tuple(tuple(float(w) for w in row) for row in self.weight_rows)
        if not rows:
            raise InputError("weight_rows must not be empty; use ((),)")
        if self.method != "RUCA" and rows != ((),):
            raise InputError(f"{self.method} takes no privacy weights; its "
                             f"weight_rows must be ((),), got {rows}")
        object.__setattr__(self, "k_values", ks)
        object.__setattr__(self, "weight_rows", rows)


@dataclass(frozen=True)
class ExperimentConfig:
    methods: tuple[MethodGrid, ...]
    classifier: ClassifierSpec
    iterations: int
    fraction: float
    betas: tuple[float, ...]
    seed: int | None = None
    scored_privacy: str = "first"
    rho: float | None = None
    rho_prime: float | None = None

    def __post_init__(self):
        if not self.methods:
            raise InputError("config needs at least one method grid")
        if int(self.iterations) != self.iterations or self.iterations < 1:
            raise InputError(f"iterations must be >= 1, got {self.iterations}")
        if not 0.0 < self.fraction <= 1.0:
            raise InputError(f"fraction must be in (0, 1], got {self.fraction}")
        betas = tuple(float(b) for b in self.betas)
        if any(b < 0 for b in betas):
            raise InputError(f"betas must be >= 0, got {betas}")
        if self.scored_privacy not in SCORED_PRIVACY_MODES:
            raise InputError(f"scored_privacy must be one of "
                             f"{SCORED_PRIVACY_MODES}, got {self.scored_privacy!r}")
        object.__setattr__(self, "methods", tuple(self.methods))
        object.__setattr__(self, "iterations", int(self.iterations))
        object.__setattr__(self, "betas", betas)
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class DataBundle:
    """Train/test datasets with one utility labeling and >= 0 privacy labelings."""

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


def _cell_list(cfg: ExperimentConfig, m: int):
    """Grid cells in emission order, full-dimensional baseline first."""
    cells = [(FULL_BASELINE, m, ())]
    for grid in cfg.methods:
        for k in grid.k_values:
            for weights in grid.weight_rows:
                cells.append((grid.method, k, weights))
    return cells


def _run_cell(bundle: DataBundle, method: str, k: int,
              weights: tuple[float, ...], cfg: ExperimentConfig):
    """Per-iteration accuracies for one grid cell.

    Returns (acc_u, acc_p) with shapes (iterations,) and (n_privacy,
    iterations). Raises on numerical/input failure; the caller records it.

    Iteration subsamples are shared across cells (paired comparisons: the
    RUCA row at zero weights is identical to the DCA row); only the fit's
    own randomness is salted with (method, k, weights). Each iteration's
    projection is scored by one `train_eval` call over (utility,
    *privacy): KNN neighbours are found once and shared by every labeling.
    """
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


def _std(values: np.ndarray) -> float:
    return float(values.std(ddof=1)) if values.size > 1 else 0.0


def _scored_privacy_mean(cfg: ExperimentConfig,
                         acc_p_means: tuple[float, ...]) -> float | None:
    if not acc_p_means:
        return None
    if cfg.scored_privacy == "max":
        return max(acc_p_means)
    return acc_p_means[0]


def _point_from_cell(bundle, method, k, weights, cfg) -> TradeoffPoint:
    try:
        acc_u, acc_p = _run_cell(bundle, method, k, weights, cfg)
    except PrivprojError as exc:
        nan_p = (math.nan,) * bundle.n_privacy
        return TradeoffPoint(
            method=method, k=k, privacy_weights=weights,
            acc_u_mean=math.nan, acc_u_std=math.nan,
            acc_p_means=nan_p, acc_p_stds=nan_p,
            performance={beta: math.nan for beta in cfg.betas},
            status=f"failed: {type(exc).__name__}: {exc}")
    acc_p_means = tuple(float(acc_p[t].mean()) for t in range(bundle.n_privacy))
    scored = _scored_privacy_mean(cfg, acc_p_means)
    perf = {beta: performance(float(acc_u.mean()), scored, beta)
            for beta in cfg.betas} if scored is not None else {
        beta: float(acc_u.mean()) for beta in cfg.betas}
    return TradeoffPoint(
        method=method, k=k, privacy_weights=weights,
        acc_u_mean=float(acc_u.mean()), acc_u_std=_std(acc_u),
        acc_p_means=acc_p_means,
        acc_p_stds=tuple(_std(acc_p[t]) for t in range(bundle.n_privacy)),
        performance=perf)


def run_sweep(cfg: ExperimentConfig, bundle: DataBundle,
              threads: int = 1) -> list[TradeoffPoint]:
    """Evaluate every grid cell plus the full-dimensional baseline.

    A failing cell yields a row with a failure status instead of aborting
    the run. threads=0 picks the CPU count; any thread count produces the
    same result list.
    """
    cells = _cell_list(cfg, bundle.train.n_features)
    if threads == 0:
        threads = min(len(cells), os.cpu_count() or 1)
    if threads <= 1:
        return [_point_from_cell(bundle, m, k, w, cfg) for m, k, w in cells]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(_point_from_cell, bundle, m, k, w, cfg)
                   for m, k, w in cells]
        return [f.result() for f in futures]


# --- config JSON -------------------------------------------------------------

def config_from_json(text: str) -> ExperimentConfig:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"config JSON does not parse: {exc}") from exc
    try:
        methods = tuple(MethodGrid(
            method=entry["method"],
            k_values=tuple(entry["k_values"]),
            weight_rows=tuple(tuple(row) for row in entry.get("weight_rows",
                                                              [[]])),
        ) for entry in doc["methods"])
        classifier = ClassifierSpec(
            kind=doc.get("classifier", {}).get("kind", "KNN"),
            k_neighbors=doc.get("classifier", {}).get("k_neighbors", 5))
        return ExperimentConfig(
            methods=methods, classifier=classifier,
            iterations=doc["iterations"], fraction=doc["fraction"],
            betas=tuple(doc.get("betas", [1.0])), seed=doc.get("seed"),
            scored_privacy=doc.get("scored_privacy", "first"),
            rho=doc.get("rho"), rho_prime=doc.get("rho_prime"))
    except KeyError as exc:
        raise InputError(f"config JSON missing key: {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"config JSON malformed: {exc}") from exc


def config_to_json(cfg: ExperimentConfig) -> str:
    doc = {
        "methods": [
            {"method": g.method, "k_values": list(g.k_values),
             "weight_rows": [list(row) for row in g.weight_rows]}
            for g in cfg.methods],
        "classifier": {"kind": cfg.classifier.kind,
                       "k_neighbors": cfg.classifier.k_neighbors},
        "iterations": cfg.iterations,
        "fraction": cfg.fraction,
        "betas": list(cfg.betas),
        "seed": cfg.seed,
        "scored_privacy": cfg.scored_privacy,
        "rho": cfg.rho,
        "rho_prime": cfg.rho_prime,
    }
    return json.dumps(doc, indent=2) + "\n"


def load_config(path) -> ExperimentConfig:
    with open(path, encoding="utf-8") as fh:
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
    with open(path, newline="", encoding="utf-8") as fh:
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
