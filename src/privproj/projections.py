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
`fit_methods` fits many configs on one dataset with shared scatters and
pencils and one stacked eigensolve; `fit_method` is that path for one
config.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from . import linalg
from .data import Dataset, LabelSet
from .dataio import open_text
from .errors import (DimensionMismatch, InputError, InvalidK, PrivprojError,
                     RankDeficient, WeightMismatch, as_floats, is_integer,
                     is_real)
from .scatter import compute_scatter, total_scatter
from .seeds import rng_from

__all__ = [
    "METHODS", "ProjectionConfig", "ProjectionModel",
    "fit_random", "fit_method", "fit_methods",
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
        if not is_integer(self.k) or self.k < 1:
            raise InvalidK(f"k must be a positive integer, got {self.k!r}")
        object.__setattr__(self, "k", int(self.k))
        rho, rho_prime = self.rho, self.rho_prime
        if rho is not None and not (is_real(rho) and 0 < rho < math.inf):
            raise InputError(f"rho must be positive and finite, got {rho!r}")
        if rho_prime is not None and not (is_real(rho_prime)
                                          and 0 <= rho_prime < math.inf):
            raise InputError(
                f"rho_prime must be >= 0 and finite, got {rho_prime!r}")
        weights = as_floats(self.privacy_weights, "privacy_weights")
        if not all(0 <= w < math.inf for w in weights):
            raise InputError(
                f"privacy_weights must be >= 0 and finite, got {weights}")
        object.__setattr__(self, "privacy_weights",
                           weights if self.method == "RUCA" else ())
        if self.seed is not None:
            if not is_integer(self.seed):
                raise InputError(f"seed must be an integer, got {self.seed!r}")
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


def _resolve_rho(rho: float | None, s_bar: np.ndarray) -> float:
    if rho is not None:
        return rho
    rho = RHO_SCALE * float(np.trace(s_bar)) / s_bar.shape[0]
    if not rho > 0:
        raise InputError("cannot derive a positive default rho: total scatter "
                         "has zero trace (all samples identical?)")
    return rho


def _resolve_rho_prime(rho_prime: float | None, s_bu: np.ndarray) -> float:
    if rho_prime is not None:
        return rho_prime
    return RHO_PRIME_SCALE * float(np.trace(s_bu)) / s_bu.shape[0]


def _pencil_key(cfg: ProjectionConfig) -> tuple:
    """What defines a discriminant pencil: its denominator terms (None for
    MDR's first privacy scatter; else the non-zero (task, weight) pairs
    added to s_bar) and the configured ridges. DCA and a zero-weight RUCA
    share one key, hence one pencil."""
    terms = None if cfg.method == "MDR" else tuple(
        (task, weight) for task, weight in enumerate(cfg.privacy_weights)
        if weight != 0.0)
    return terms, cfg.rho, cfg.rho_prime


def _solve_stacked(matrices: dict) -> dict:
    """Eigenpairs (or the PrivprojError) of each matrix, from one stacked
    `linalg.sym_eig` call. If the stack fails, each matrix is solved alone,
    which gives the same bits, so one bad matrix fails only itself."""
    keys = list(matrices)
    try:
        stacked = linalg.sym_eig(np.stack(list(matrices.values())))
    except PrivprojError as exc:
        if len(keys) == 1:
            return {keys[0]: exc}
        solved = {}
        for key in keys:
            try:
                solved[key] = linalg.sym_eig(matrices[key])
            except PrivprojError as member_exc:
                solved[key] = member_exc
        return solved
    return {key: linalg.EigenPairs(values=stacked.values[j],
                                   vectors=stacked.vectors[j])
            for j, key in enumerate(keys)}


def fit_methods(d: Dataset, utility: LabelSet | None,
                privacy: list[LabelSet] | tuple[LabelSet, ...],
                configs: list[ProjectionConfig] | tuple[ProjectionConfig, ...]
                ) -> list[ProjectionModel | PrivprojError]:
    """Fit every config on one dataset; one slot per config holds its model,
    or the PrivprojError that config raised.

    Work the configs share is done once: each labeling's scatter (through
    `compute_scatter`, with its checks), PCA's total scatter, and each
    distinct discriminant pencil (s_bu + rho'·I, denominator + rho·I) with
    its Cholesky reduction; a PrivprojError is raised again for each config
    that needs the failing work. One stacked `linalg.sym_eig` call then
    solves every eigenproblem, and each config takes its own top k. The
    pencil denominator follows cfg.method: MDR takes the first privacy
    between-class scatter; DCA and RUCA take s_bar plus w_p·s_bp_p for each
    non-zero weight (only a RUCA config has any), so a zero-weight RUCA fit
    is DCA's fit bit for bit. A failing config does not affect the others,
    and each model is bit-identical to fitting its config alone, with the
    error a lone fit raises: checks run in the order `fit_method` documents,
    labels and k before any scatter.
    """
    m = d.n_features
    labelings = (utility, *privacy)

    @functools.cache
    def scatter(task):
        return compute_scatter(d, labelings[task])

    total = functools.cache(lambda: total_scatter(d))

    @functools.cache
    def pencil(key):
        # Cholesky factor, reduced matrix, resolved ridges, utility mean.
        terms, rho, rho_prime = key
        util = scatter(0)
        if terms is None:
            denominator = scatter(1).s_b
        else:
            denominator = util.s_bar
            for task, weight in terms:
                denominator = denominator + weight * scatter(1 + task).s_b
        rho = _resolve_rho(rho, util.s_bar)
        rho_prime = _resolve_rho_prime(rho_prime, util.s_b)
        eye = np.eye(m)
        # Exactly symmetric sums; check_symmetric rejects an overflowed ridge.
        a = linalg.check_symmetric(util.s_b + rho_prime * eye, "a")
        lower = linalg.cholesky(denominator + rho * eye)
        return lower, linalg.reduce_pencil(lower, a), rho, rho_prime, util.mean

    results: list = [None] * len(configs)
    matrices: dict = {}
    jobs = {}  # slot -> (eig key, Cholesky factor or None, resolved cfg, mean)
    for slot, cfg in enumerate(configs):
        try:
            if cfg.method == "RANDOM":
                results[slot] = fit_random(m, cfg)
                continue
            if cfg.method == "PCA":
                if not 1 <= cfg.k <= m:
                    raise InvalidK(f"k={cfg.k} out of range 1..{m}")
                key, lower = "PCA", None
                mean, matrices[key] = total()
            else:
                if utility is None:
                    raise InputError(
                        f"method {cfg.method} requires utility labels")
                if cfg.method == "MDR" and not privacy:
                    raise InputError("MDR requires at least one privacy "
                                     "labeling (it uses the first)")
                if (cfg.method == "RUCA"
                        and len(cfg.privacy_weights) != len(privacy)):
                    raise WeightMismatch(
                        f"{len(cfg.privacy_weights)} privacy weights for "
                        f"{len(privacy)} privacy labelings")
                if not 1 <= cfg.k <= m:
                    raise InvalidK(f"k={cfg.k} out of range for dim {m}")
                key = _pencil_key(cfg)
                lower, matrices[key], rho, rho_prime, mean = pencil(key)
                cfg = replace(cfg, rho=rho, rho_prime=rho_prime)
            jobs[slot] = key, lower, cfg, mean
        except PrivprojError as exc:
            results[slot] = exc
    solved = _solve_stacked(matrices) if matrices else {}
    for slot, (key, lower, cfg, mean) in jobs.items():
        try:
            pairs = solved[key]
            if isinstance(pairs, PrivprojError):
                raise pairs
            if lower is not None:
                pairs = linalg.back_substitute(lower, pairs, cfg.k)
            results[slot] = ProjectionModel(
                w=pairs.vectors[:, :cfg.k], eigenvalues=pairs.values[:cfg.k],
                config=cfg, feature_mean=mean)
        except PrivprojError as exc:
            results[slot] = exc
    return results


def modified_gram_schmidt(w: np.ndarray) -> np.ndarray:
    """Column orthonormalization with a second reorthogonalization pass."""
    q = np.array(w, dtype=np.float64)
    if q.ndim != 2:
        raise InputError("expected a 2-d matrix")
    for j in range(q.shape[1]):
        for _ in range(2):
            for i in range(j):
                q[:, j] -= (q[:, i] @ q[:, j]) * q[:, i]
        norm = float(np.linalg.norm(q[:, j]))
        if norm < GS_PIVOT_TOL:
            raise RankDeficient(f"column {j} collapsed during orthonormalization "
                                f"(norm {norm:g} < {GS_PIVOT_TOL:g})")
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
    needs one privacy weight per privacy labeling. A discriminant fit then
    checks k, computes the scatters, resolves rho and rho' and factors the
    denominator, in that order. This is `fit_methods` with one config.
    """
    model, = fit_methods(d, utility, privacy, (cfg,))
    if isinstance(model, PrivprojError):
        raise model
    return model


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
    names = [f.name for f in fields(ProjectionConfig)]
    try:
        missing = {*names, "feature_mean", "eigenvalues", "w"} - set(doc)
        if missing:
            raise InputError(f"model JSON missing keys: {sorted(missing)}")
        cfg = ProjectionConfig(**{name: doc[name] for name in names})
        return ProjectionModel(w=doc["w"], eigenvalues=doc["eigenvalues"],
                               config=cfg, feature_mean=doc["feature_mean"])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"model JSON malformed: {exc}") from exc


def save_model(model: ProjectionModel, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(model_to_json(model))


def load_model(path) -> ProjectionModel:
    with open_text(path) as fh:
        return model_from_json(fh.read())
