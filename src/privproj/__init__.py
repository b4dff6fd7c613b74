"""Privacy-aware linear projections with deterministic evaluation tooling.

The package fits linear maps that keep one labeling separable while
suppressing others, scores both sides with simple classifiers, and sweeps
the resulting utility/privacy trade-off reproducibly from a CLI or from
Python. Everything downstream of a seed is deterministic.
"""

from .classify import AccuracyReport, ClassifierSpec, random_guess_baseline, train_eval
from .data import Dataset, LabelSet
from .dataio import (
    ADULT_COLUMNS,
    ColumnSchema,
    LoadedCsv,
    SplitSpec,
    TableSchema,
    balance_classes,
    balance_indices,
    joint_labels,
    load_csv,
    load_dataset_csv,
    load_labels_csv,
    load_schema,
    normalize_adult_csv,
    recode_census_marital,
    save_dataset_csv,
    save_labels_csv,
    schema_from_json,
    stratified_holdout,
    subsample,
)
from .errors import (
    DimensionMismatch,
    EmptyClass,
    EmptyTrainClass,
    InputError,
    InvalidK,
    LengthMismatch,
    NoConvergence,
    NotPositiveDefinite,
    NumericalError,
    ParseError,
    PrivprojError,
    RankDeficient,
    UnknownCategory,
    WeightMismatch,
)
from .experiment import (
    FULL_BASELINE,
    DataBundle,
    ExperimentConfig,
    MethodGrid,
    TradeoffPoint,
    config_from_json,
    config_to_json,
    emit_tradeoff_curve,
    load_config,
    performance,
    read_tradeoff_csv,
    render_svg,
    run_sweep,
)
from .linalg import EigenPairs, generalized_eig, sym_eig
from .projections import (
    METHODS,
    ProjectionConfig,
    ProjectionModel,
    fit_method,
    fit_pca,
    fit_random,
    load_model,
    model_from_json,
    model_to_json,
    project,
    save_model,
    subspace_angle,
)
from .scatter import ScatterSet, compute_scatter, rank_bound_check
from .seeds import mix, rng_from
from .synthetic import tradeoff_bundle, write_adult_like_csv

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # data containers
    "Dataset", "LabelSet",
    # scatter statistics
    "ScatterSet", "compute_scatter", "rank_bound_check",
    # eigensolvers
    "EigenPairs", "sym_eig", "generalized_eig",
    # projections
    "METHODS", "ProjectionConfig", "ProjectionModel",
    "fit_pca", "fit_random", "fit_method",
    "project", "subspace_angle",
    "model_to_json", "model_from_json", "save_model", "load_model",
    # classification
    "ClassifierSpec", "AccuracyReport", "train_eval", "random_guess_baseline",
    # schema-driven CSV i/o and resampling
    "ColumnSchema", "TableSchema", "SplitSpec", "LoadedCsv",
    "schema_from_json", "load_schema", "load_csv", "recode_census_marital",
    "ADULT_COLUMNS", "normalize_adult_csv",
    "balance_indices", "balance_classes", "joint_labels", "subsample",
    "stratified_holdout",
    "save_dataset_csv", "load_dataset_csv", "save_labels_csv", "load_labels_csv",
    # sweep orchestration
    "MethodGrid", "ExperimentConfig", "DataBundle", "TradeoffPoint",
    "FULL_BASELINE", "performance", "run_sweep",
    "emit_tradeoff_curve", "read_tradeoff_csv", "render_svg",
    "config_from_json", "config_to_json", "load_config",
    # synthetic data
    "tradeoff_bundle", "write_adult_like_csv",
    # seeding
    "mix", "rng_from",
    # errors
    "PrivprojError", "InputError", "NumericalError",
    "NotPositiveDefinite", "NoConvergence", "RankDeficient",
    "InvalidK", "LengthMismatch", "EmptyClass", "WeightMismatch",
    "DimensionMismatch", "EmptyTrainClass", "ParseError", "UnknownCategory",
]
