"""Projection fitting: PCA, random projection, and the discriminant family.

The discriminant methods all solve one symmetric-definite pencil
(numerator, denominator) built from scatter matrices of the training data;
they differ only in the denominator:

    DCA        (S_BU + rho'·I,  S_bar + rho·I)
    MDR        (S_BU + rho'·I,  S_BP + rho·I)
    weighted   (S_BU + rho'·I,  S_bar + sum_p w_p·S_BP_p + rho·I)

where S_BU is the utility between-class scatter, S_BP a privacy
between-class scatter, and S_bar the total scatter. The weighted method
("RUCA") interpolates: weights all zero reduces to DCA on the same code
path (bit-for-bit), and as a weight grows the solution swings toward MDR.

Columns of every fitted `w` are denominator-orthonormal with the sign
convention inherited from the eigensolver, so fits are fully deterministic.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import linalg
from .data import Dataset, LabelSet
from .errors import (DimensionMismatch, InputError, InvalidK, RankDeficient,
                     WeightMismatch)
from .scatter import compute_scatter, total_scatter
from .seeds import rng_from

__all__ = [
    "METHODS", "ProjectionConfig", "ProjectionModel",
    "fit_pca", "fit_random", "fit_method",
    "project", "subspace_angle", "modified_gram_schmidt",
    "model_to_json", "model_from_json", "save_model", "load_model",
]

METHODS = ("PCA", "DCA", "MDR", "RUCA", "RANDOM")

#: rho defaults to this multiple of mean total-scatter variance, trace(s_bar)/m.
RHO_SCALE = 1e-6
#: rho_prime defaults to this multiple of trace(s_bu)/m.
RHO_PRIME_SCALE = 1e-8
#: Gram-Schmidt column-norm floor below which input is declared rank deficient.
GS_PIVOT_TOL = 1e-10
#: Reseed attempts for random projections before giving up.
RANDOM_RETRIES = 3


@dataclass(frozen=True)
class ProjectionConfig:
    """Method selection plus regularization. rho/rho_prime left as None are
    resolved from the training data at fit time (and stored resolved in the
    fitted model, so serialized models rerun identically). Only RUCA uses
    privacy weights; every other method drops them, so its model records
    none."""

    method: str
    k: int
    rho: float | None = None
    rho_prime: float | None = None
    privacy_weights: tuple[float, ...] = ()
    seed: int | None = None

    def __post_init__(self):
        if self.method not in METHODS:
            raise InputError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if int(self.k) != self.k or self.k < 1:
            raise InvalidK(f"k must be a positive integer, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))
        if self.rho is not None and not 0 < self.rho < math.inf:
            raise InputError(f"rho must be positive and finite, got {self.rho!r}")
        if self.rho_prime is not None and not 0 <= self.rho_prime < math.inf:
            raise InputError(
                f"rho_prime must be >= 0 and finite, got {self.rho_prime!r}")
        weights = tuple(float(w) for w in self.privacy_weights)
        if not all(0 <= w < math.inf for w in weights):
            raise InputError(
                f"privacy_weights must be >= 0 and finite, got {weights}")
        object.__setattr__(self, "privacy_weights",
                           weights if self.method == "RUCA" else ())
        if self.seed is not None:
            object.__setattr__(self, "seed", int(self.seed))


@dataclass(frozen=True)
class ProjectionModel:
    """A fitted projection: columns of w map centered features to components."""

    w: np.ndarray
    eigenvalues: np.ndarray
    config: ProjectionConfig
    feature_mean: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        vals = np.asarray(self.eigenvalues, dtype=np.float64)
        mean = np.asarray(self.feature_mean, dtype=np.float64)
        if w.ndim != 2:
            raise InputError("w must be 2-d")
        if vals.shape != (w.shape[1],):
            raise InputError(
                f"eigenvalues shape {vals.shape} != ({w.shape[1]},)")
        if mean.shape != (w.shape[0],):
            raise InputError(
                f"feature_mean shape {mean.shape} != ({w.shape[0]},)")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(vals))
                and np.all(np.isfinite(mean))):
            raise InputError("model contains non-finite entries")
        for arr, name in ((w, "w"), (vals, "eigenvalues"), (mean, "feature_mean")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def n_features(self) -> int:
        return self.w.shape[0]

    @property
    def k(self) -> int:
        return self.w.shape[1]


def _resolve_rho(cfg: ProjectionConfig, s_bar: np.ndarray) -> float:
    if cfg.rho is not None:
        return cfg.rho
    rho = RHO_SCALE * float(np.trace(s_bar)) / s_bar.shape[0]
    if not rho > 0:
        raise InputError("cannot derive a positive default rho: total scatter "
                         "has zero trace (all samples identical?)")
    return rho


def _resolve_rho_prime(cfg: ProjectionConfig, s_bu: np.ndarray) -> float:
    if cfg.rho_prime is not None:
        return cfg.rho_prime
    return RHO_PRIME_SCALE * float(np.trace(s_bu)) / s_bu.shape[0]


def _fit_pencil(d: Dataset, utility: LabelSet,
                privacy: list[LabelSet] | tuple[LabelSet, ...],
                cfg: ProjectionConfig) -> ProjectionModel:
    """Solve the discriminant pencil (s_bu + rho'·I, denominator + rho·I).

    The denominator follows cfg.method: MDR takes the first privacy
    between-class scatter; DCA and RUCA take s_bar plus w_p·s_bp_p for each
    non-zero weight (only a RUCA config has any). Zero-weight terms are
    skipped outright, so a zero-weight RUCA fit takes the identical
    arithmetic path as DCA.
    """
    if cfg.method == "RUCA" and len(cfg.privacy_weights) != len(privacy):
        raise WeightMismatch(
            f"{len(cfg.privacy_weights)} privacy weights for "
            f"{len(privacy)} privacy labelings")
    util = compute_scatter(d, utility)
    if cfg.method == "MDR":
        denominator = compute_scatter(d, privacy[0]).s_b
    else:
        denominator = util.s_bar
        for weight, labels in zip(cfg.privacy_weights, privacy):
            if weight != 0.0:
                denominator = denominator + weight * compute_scatter(d, labels).s_b
    rho = _resolve_rho(cfg, util.s_bar)
    rho_prime = _resolve_rho_prime(cfg, util.s_b)
    eye = np.eye(d.n_features)
    pairs = linalg.generalized_eig(linalg.symmetrize(util.s_b + rho_prime * eye),
                                   linalg.symmetrize(denominator + rho * eye),
                                   cfg.k)
    resolved = replace(cfg, rho=rho, rho_prime=rho_prime)
    return ProjectionModel(w=pairs.vectors, eigenvalues=pairs.values,
                           config=resolved, feature_mean=util.mean)


def fit_pca(d: Dataset, cfg: ProjectionConfig) -> ProjectionModel:
    """Top-k eigenvectors of the total scatter; columns Euclidean-orthonormal."""
    if not 1 <= cfg.k <= d.n_features:
        raise InvalidK(f"k={cfg.k} out of range 1..{d.n_features}")
    mean, s_bar = total_scatter(d)
    pairs = linalg.sym_eig(s_bar)
    return ProjectionModel(w=pairs.vectors[:, :cfg.k],
                           eigenvalues=pairs.values[:cfg.k],
                           config=cfg, feature_mean=mean)


def modified_gram_schmidt(w: np.ndarray, pivot_tol: float = GS_PIVOT_TOL) -> np.ndarray:
    """Column orthonormalization with a second reorthogonalization pass."""
    q = np.array(w, dtype=np.float64)
    if q.ndim != 2:
        raise InputError("expected a 2-d matrix")
    for j in range(q.shape[1]):
        for _ in range(2):
            for i in range(j):
                q[:, j] -= (q[:, i] @ q[:, j]) * q[:, i]
        norm = float(np.linalg.norm(q[:, j]))
        if norm < pivot_tol:
            raise RankDeficient(f"column {j} collapsed during orthonormalization "
                                f"(norm {norm:g} < {pivot_tol:g})")
        q[:, j] /= norm
    return q


def fit_random(m: int, cfg: ProjectionConfig) -> ProjectionModel:
    """Seeded Gaussian matrix with orthonormalized columns.

    The same seed always yields the same matrix. A rank-deficient draw is
    retried with a derived seed up to RANDOM_RETRIES times.
    """
    if not 1 <= cfg.k <= m:
        raise InvalidK(f"k={cfg.k} out of range 1..{m}")
    if cfg.seed is None:
        raise InputError("random projection requires a seed")
    last_error = None
    for attempt in range(1 + RANDOM_RETRIES):
        rng = rng_from(cfg.seed, "random-projection", attempt)
        draw = rng.standard_normal((m, cfg.k))
        try:
            w = modified_gram_schmidt(draw)
        except RankDeficient as exc:
            last_error = exc
            continue
        return ProjectionModel(w=w, eigenvalues=np.zeros(cfg.k),
                               config=cfg, feature_mean=np.zeros(m))
    raise RankDeficient(
        f"random projection rank deficient after {1 + RANDOM_RETRIES} draws: "
        f"{last_error}")


def fit_method(d: Dataset, utility: LabelSet | None,
               privacy: list[LabelSet] | tuple[LabelSet, ...],
               cfg: ProjectionConfig) -> ProjectionModel:
    """Fit the projection cfg.method names, with uniform arguments.

    PCA and RANDOM ignore the labels. DCA, MDR and RUCA need utility labels;
    MDR needs at least one privacy labeling and uses only the first; RUCA
    needs one privacy weight per privacy labeling.
    """
    if cfg.method == "PCA":
        return fit_pca(d, cfg)
    if cfg.method == "RANDOM":
        return fit_random(d.n_features, cfg)
    if utility is None:
        raise InputError(f"method {cfg.method} requires utility labels")
    if cfg.method == "MDR" and not privacy:
        raise InputError("MDR requires at least one privacy labeling "
                         "(it uses the first)")
    return _fit_pencil(d, utility, privacy, cfg)


def project(model: ProjectionModel, d: Dataset) -> Dataset:
    """Apply w^T to data centered on the *training* mean stored in the model.

    Test data must be centered with the training statistics; recentering on
    the test set itself would leak its distribution into the projection.
    """
    if d.n_features != model.n_features:
        raise DimensionMismatch(
            f"dataset has {d.n_features} features, model expects {model.n_features}")
    z = model.w.T @ (d.x - model.feature_mean[:, None])
    return Dataset(z)


def subspace_angle(w1: np.ndarray, w2: np.ndarray) -> float:
    """Largest principal angle (radians) between the column spans of w1, w2.

    Uses the cosine form arccos(sigma_min(Q1^T Q2)) for angles >= pi/4 and
    the sine (residual) form for smaller ones: the cosine form alone cannot
    resolve angles below ~sqrt(eps) because cos(theta) rounds to 1.
    """
    w1 = np.asarray(w1, dtype=np.float64)
    w2 = np.asarray(w2, dtype=np.float64)
    if w1.ndim != 2 or w2.ndim != 2 or w1.shape != w2.shape:
        raise DimensionMismatch(
            f"expected matching 2-d shapes, got {w1.shape} and {w2.shape}")
    q1 = modified_gram_schmidt(w1)
    q2 = modified_gram_schmidt(w2)
    c = q1.T @ q2
    cos_sq = float(linalg.sym_eig(linalg.symmetrize(c.T @ c)).values[-1])
    if cos_sq <= 0.5:
        return math.acos(math.sqrt(max(cos_sq, 0.0)))
    residual = q2 - q1 @ c
    sin_sq = float(linalg.sym_eig(linalg.symmetrize(residual.T @ residual)).values[0])
    return math.asin(min(math.sqrt(max(sin_sq, 0.0)), 1.0))


# --- serialization ---------------------------------------------------------
# Floats are written with 17 significant digits so that parsing returns the
# exact same IEEE-754 double; models round-trip bit-for-bit.

def _fmt(value: float) -> str:
    if not np.isfinite(value):
        raise InputError(f"cannot serialize non-finite value {value!r}")
    return format(float(value), ".17g")


def _fmt_vector(values) -> str:
    return "[" + ", ".join(_fmt(v) for v in values) + "]"


def model_to_json(model: ProjectionModel) -> str:
    cfg = model.config
    lines = [
        "{",
        f'  "method": {json.dumps(cfg.method)},',
        f'  "k": {cfg.k},',
        f'  "rho": {"null" if cfg.rho is None else _fmt(cfg.rho)},',
        f'  "rho_prime": {"null" if cfg.rho_prime is None else _fmt(cfg.rho_prime)},',
        f'  "privacy_weights": {_fmt_vector(cfg.privacy_weights)},',
        f'  "seed": {"null" if cfg.seed is None else cfg.seed},',
        f'  "feature_mean": {_fmt_vector(model.feature_mean)},',
        f'  "eigenvalues": {_fmt_vector(model.eigenvalues)},',
        '  "w": [',
    ]
    rows = [_fmt_vector(row) for row in model.w]
    lines.append(",\n".join("    " + r for r in rows))
    lines.append("  ]")
    lines.append("}")
    return "\n".join(lines) + "\n"


def model_from_json(text: str) -> ProjectionModel:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"model JSON does not parse: {exc}") from exc
    required = {"method", "k", "rho", "rho_prime", "privacy_weights", "seed",
                "feature_mean", "eigenvalues", "w"}
    missing = required - set(doc)
    if missing:
        raise InputError(f"model JSON missing keys: {sorted(missing)}")
    cfg = ProjectionConfig(
        method=doc["method"], k=doc["k"], rho=doc["rho"],
        rho_prime=doc["rho_prime"],
        privacy_weights=tuple(doc["privacy_weights"]),
        seed=doc["seed"])
    w = np.asarray(doc["w"], dtype=np.float64)
    return ProjectionModel(w=w, eigenvalues=np.asarray(doc["eigenvalues"]),
                           config=cfg, feature_mean=np.asarray(doc["feature_mean"]))


def save_model(model: ProjectionModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))


def load_model(path) -> ProjectionModel:
    with open(path, encoding="utf-8") as fh:
        return model_from_json(fh.read())
