"""Command-line front end.

Subcommands: preprocess (CSV cleaning/encoding/balancing), fit (train one
projection), project (apply a saved model), evaluate (classifier accuracy),
sweep (full trade-off grid), plot (re-render the chart from a sweep CSV).

Exit codes: 0 success, 1 runtime/numerical failure, 2 usage or input error.
All outputs are deterministic functions of the flags and input bytes; no
timestamps are written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import __version__
from .classify import ClassifierSpec, train_eval
from .data import Dataset
from .dataio import (balance_indices, joint_labels, load_csv,
                     load_dataset_csv, load_labels_csv, load_schema,
                     recode_census_marital, save_dataset_csv, save_labels_csv)
from .errors import InputError, NumericalError
from .experiment import (FULL_BASELINE, DataBundle, emit_tradeoff_curve,
                         load_config, read_tradeoff_points, render_svg,
                         run_sweep)
from .projections import (METHODS, ProjectionConfig, fit_method, load_model,
                          project, save_model)

__all__ = ["main", "build_parser"]


def _comma_list(text: str) -> list[str]:
    return [part.strip() for part in text.split(",") if part.strip()]


def _parse_weights(text: str | None) -> tuple[float, ...]:
    if not text:
        return ()
    try:
        return tuple(float(w) for w in text.split(","))
    except ValueError as exc:
        raise InputError(f"bad --privacy-weights value {text!r}: {exc}") from exc


# --- preprocess ---------------------------------------------------------------

def cmd_preprocess(args) -> int:
    schema = load_schema(args.schema)
    recoders = ({"marital-status": recode_census_marital}
                if args.recode_census_marital else None)
    loaded = load_csv(args.input, schema, recoders=recoders)
    print(f"kept {loaded.n_rows_kept} rows, dropped {loaded.n_rows_dropped} rows")
    # Only these names hold the table, so balancing frees the unbalanced one
    # before the balanced one is written.
    dataset, labels = loaded
    del loaded
    print(f"features: {dataset.n_features}")

    if args.balance_on:
        names = _comma_list(args.balance_on)
        missing = [n for n in names if n not in labels]
        if missing:
            raise InputError(f"--balance-on names unknown label columns "
                             f"{missing}; have {sorted(labels)}")
        repeated = sorted({n for n in names if names.count(n) > 1})
        if repeated:
            raise InputError(f"--balance-on names label columns more than "
                             f"once: {repeated}")
        joint = joint_labels([labels[n] for n in names])
        idx = balance_indices(joint, seed=args.seed)
        dataset = dataset.take(idx)
        labels = {name: l.take(idx) for name, l in labels.items()}
        print(f"balanced on {'+'.join(names)}: {dataset.n_samples} rows")

    Path(args.output).parent.mkdir(parents=True, exist_ok=True)
    written = [f"{args.output}.csv"]
    save_dataset_csv(dataset, written[0])
    for name, label_set in labels.items():
        written.append(f"{args.output}.{name}.csv")
        save_labels_csv(label_set, written[-1])
        counts = " ".join(str(c) for c in label_set.counts())
        print(f"label {name}: counts [{counts}]")
    for path in written:
        print(f"wrote {path}")
    return 0


# --- fit / project / evaluate -------------------------------------------------

def cmd_fit(args) -> int:
    dataset = load_dataset_csv(args.data)
    utility = load_labels_csv(args.utility_labels)
    privacy = tuple(load_labels_csv(p) for p in (args.privacy_labels or []))
    cfg = ProjectionConfig(method=args.method, k=args.k, rho=args.rho,
                           rho_prime=args.rho_prime,
                           privacy_weights=_parse_weights(args.privacy_weights),
                           seed=args.seed)
    model = fit_method(dataset, utility, privacy, cfg)
    save_model(model, args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_project(args) -> int:
    model = load_model(args.model)
    dataset = load_dataset_csv(args.data)
    z = project(model, dataset)
    names = tuple(f"z{i}" for i in range(z.n_features))
    save_dataset_csv(Dataset(z.x, feature_names=names), args.out)
    print(f"wrote {args.out}")
    return 0


def cmd_evaluate(args) -> int:
    spec = ClassifierSpec(kind=args.classifier, k_neighbors=args.k_neighbors)
    report, = train_eval(load_dataset_csv(args.train_data),
                         (load_labels_csv(args.train_labels),),
                         load_dataset_csv(args.test_data),
                         (load_labels_csv(args.test_labels),), spec)
    print(json.dumps({
        "accuracy": report.accuracy,
        "n_test": report.n_test,
        "confusion": report.confusion.tolist(),
    }, indent=2))
    return 0


# --- sweep / plot -------------------------------------------------------------

def _load_bundle(args) -> DataBundle:
    train_privacy = tuple(load_labels_csv(p) for p in (args.train_privacy or []))
    test_privacy = tuple(load_labels_csv(p) for p in (args.test_privacy or []))
    names = tuple(Path(p).stem for p in (args.train_privacy or []))
    return DataBundle(
        train=load_dataset_csv(args.train_data),
        train_utility=load_labels_csv(args.train_utility),
        train_privacy=train_privacy,
        test=load_dataset_csv(args.test_data),
        test_utility=load_labels_csv(args.test_utility),
        test_privacy=test_privacy,
        privacy_names=names)


def cmd_sweep(args) -> int:
    cfg = replace(load_config(args.config), seed=args.seed)
    bundle = _load_bundle(args)
    points = run_sweep(cfg, bundle)
    grid_points = [p for p in points if p.method != FULL_BASELINE]
    if grid_points and all(p.failed for p in grid_points):
        for p in grid_points:
            print(f"{p.method} k={p.k}: {p.status}", file=sys.stderr)
        raise NumericalError("every grid cell failed")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    csv_path, svg_path = emit_tradeoff_curve(points, out_dir / "tradeoff",
                                             betas=cfg.betas)
    with open(args.config, "rb") as fh:
        config_sha = hashlib.sha256(fh.read()).hexdigest()
    manifest = {
        "version": __version__,
        "config_sha256": config_sha,
        "seed": cfg.seed,
        "n_points": len(points),
        "n_failed": sum(p.failed for p in points),
        "csv": Path(csv_path).name,
        "svg": Path(svg_path).name,
    }
    manifest_path = out_dir / "manifest.json"
    with open(manifest_path, "w", encoding="utf-8", newline="") as fh:
        fh.write(json.dumps(manifest, indent=2) + "\n")
    for path in (csv_path, svg_path, str(manifest_path)):
        print(f"wrote {path}")
    return 0


def cmd_plot(args) -> int:
    points = read_tradeoff_points(args.csv)
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        fh.write(render_svg(points))
    print(f"wrote {args.out}")
    return 0


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="privproj",
        description="Privacy-aware linear projections: preprocess data, fit "
                    "and apply projections, evaluate classifiers, and sweep "
                    "utility/privacy trade-offs.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("preprocess",
                       help="clean, encode, and optionally balance a raw CSV")
    p.add_argument("--input", required=True, help="raw CSV file")
    p.add_argument("--schema", required=True, help="column schema JSON")
    p.add_argument("--recode-census-marital", action="store_true",
                   help="collapse the 7 census marital categories to 3 groups")
    p.add_argument("--balance-on", default="",
                   help="comma-separated label columns; rows are undersampled "
                        "so every joint class combination has equal count")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for balancing draws (default 0)")
    p.add_argument("--output", required=True,
                   help="output prefix: writes <prefix>.csv plus one "
                        "<prefix>.<label>.csv per label column")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("fit", help="fit a projection model")
    p.add_argument("--data", required=True, help="feature CSV")
    p.add_argument("--utility-labels", required=True, help="utility label CSV")
    p.add_argument("--privacy-labels", action="append",
                   help="privacy label CSV (repeatable)")
    p.add_argument("--method", required=True, choices=METHODS)
    p.add_argument("--k", required=True, type=int,
                   help="number of projection components")
    p.add_argument("--rho", type=float, default=None,
                   help="denominator ridge (default: auto from trace)")
    p.add_argument("--rho-prime", type=float, default=None,
                   help="numerator ridge (default: auto from trace)")
    p.add_argument("--privacy-weights", default="",
                   help="comma-separated weight per privacy task (RUCA)")
    p.add_argument("--seed", type=int, default=None,
                   help="seed (required for RANDOM)")
    p.add_argument("--out", required=True, help="model JSON output path")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("project", help="apply a saved model to a dataset")
    p.add_argument("--model", required=True, help="model JSON")
    p.add_argument("--data", required=True, help="feature CSV")
    p.add_argument("--out", required=True, help="projected CSV output path")
    p.set_defaults(func=cmd_project)

    p = sub.add_parser("evaluate",
                       help="train a classifier and report test accuracy")
    p.add_argument("--train-data", required=True)
    p.add_argument("--train-labels", required=True)
    p.add_argument("--test-data", required=True)
    p.add_argument("--test-labels", required=True)
    p.add_argument("--classifier", default="KNN",
                   choices=("KNN", "NEAREST_CENTROID"))
    p.add_argument("--k-neighbors", type=int, default=5)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep",
                       help="run the full trade-off grid and emit CSV/SVG")
    p.add_argument("--config", required=True, help="experiment config JSON")
    p.add_argument("--train-data", required=True)
    p.add_argument("--train-utility", required=True)
    p.add_argument("--train-privacy", action="append",
                   help="privacy label CSV (repeatable)")
    p.add_argument("--test-data", required=True)
    p.add_argument("--test-utility", required=True)
    p.add_argument("--test-privacy", action="append",
                   help="privacy label CSV (repeatable)")
    p.add_argument("--seed", required=True, type=int,
                   help="master seed (required: overrides config seed)")
    p.add_argument("--out-dir", required=True)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("plot", help="re-render the SVG chart from a sweep CSV")
    p.add_argument("--csv", required=True, help="trade-off CSV from sweep")
    p.add_argument("--out", required=True, help="SVG output path")
    p.set_defaults(func=cmd_plot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
