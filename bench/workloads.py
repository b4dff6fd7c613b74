"""The benchmark's three workloads and the layer wrappings of a traced run.

Each workload has a `setup(work_dir, seed)` that generates its inputs from
the benchmark seed alone and a `body(inputs, out_dir, tracer)` that is the
timed part. A body writes its deterministic outputs under `out_dir` (the
digest gate hashes them) and returns (attempted, failed) operation counts.

Each workload loads one layer heavily and another lightly, so a change to
one layer shows on one workload and is predicted not to move the other:

* census_sweep: KNN (`classify.train_eval`) dominates; pencils are m=29.
* har_wide: the pencil solve (`linalg.*`) dominates; KNN is a small share.
* cli_pipeline: CSV parse/encode/write (`dataio.*`), the threaded cell pool
  and artifact emission; nearest-centroid scoring, so almost no KNN.

BENCHMARK.json lists census_sweep and cli_pipeline only, so that each run
can be long enough for a steady median on a shared 2-CPU machine; har_wide
runs by name with the same command. It has no recorded digests until it is
listed, so its runs report correct = false.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from collections import Counter
from collections.abc import Callable
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import privproj
from privproj import cli, dataio, experiment, linalg, projections
from privproj.classify import ClassifierSpec
from privproj.dataio import balance_indices, joint_labels, load_schema
from privproj.experiment import DataBundle, ExperimentConfig, MethodGrid
from privproj.seeds import mix
from privproj.synthetic import write_adult_like_csv

from har import har_bundle
from spans import digest_args

SCHEMA_PATH = Path(privproj.__file__).parent / "schemas" / "census_adult.json"

# Iteration counts are cut so that one body takes a few seconds: a run then
# holds many units, and their median is steady on a shared machine.

# census_sweep: the census acceptance grid on its raw data sizes.
CENSUS_TRAIN_ROWS, CENSUS_TEST_ROWS = 8000, 4000
# Rows kept per marital x sex class after joint balancing. Balancing keeps
# the smallest class count, which varies with the seed (685-774 train and
# 337-400 test over 40 seeds); a fixed count gives every seed the same work.
CENSUS_PER_CLASS = {"train": 600, "test": 290}
CENSUS_CONFIG = dict(
    methods=(MethodGrid("PCA", (1,)), MethodGrid("DCA", (1,)),
             MethodGrid("MDR", (1,)),
             MethodGrid("RUCA", (1,), tuple((float(r), 0.0)
                                            for r in (1, 2, 4, 8, 16)))),
    classifier=ClassifierSpec("KNN", 5), iterations=1, fraction=0.10,
    betas=(1.0,))

# har_wide: HAR-shaped, but 96 features rather than the real 561. At 561
# the pure-Python Jacobi pencil solver takes about a minute per fit; the
# real width waits until the pencil solve moves to LAPACK.
HAR_FEATURES, HAR_TRAIN, HAR_TEST = 96, 2400, 360
HAR_CONFIG = dict(
    methods=(MethodGrid("PCA", (5,)), MethodGrid("DCA", (1, 2, 3, 4, 5)),
             MethodGrid("MDR", (5,)),
             MethodGrid("RUCA", (5,), ((1.0,), (4.0,), (16.0,)))),
    classifier=ClassifierSpec("KNN", 5), iterations=1, fraction=0.25,
    betas=(1.0,))

# cli_pipeline: raw files drawn at the public adult train/test row counts,
# then trimmed to a fixed number of complete rows per marital x sex class
# and a fixed number of rows with a missing value. `preprocess
# --balance-on` keeps the smallest class count, which would otherwise vary
# with the seed (2770-3061 train and 1377-1547 test over seeds 0-63); the
# trim gives every seed the same work. The trimmed files hold about half
# the adult row counts, so units stay short and a run holds many.
CLI_RAW_ROWS = {"train": 32561, "test": 16281}
CLI_PER_CLASS = {"train": 2700, "test": 1350}
CLI_INCOMPLETE = {"train": 550, "test": 270}
CLI_CONFIG = {
    "methods": [{"method": "PCA", "k_values": [1, 2]},
                {"method": "DCA", "k_values": [1, 2]},
                {"method": "MDR", "k_values": [1]},
                {"method": "RUCA", "k_values": [1],
                 "weight_rows": [[1.0, 0.0], [4.0, 0.0], [16.0, 0.0]]}],
    "classifier": {"kind": "NEAREST_CENTROID"},
    "iterations": 2, "fraction": 0.25, "betas": [0.5, 1.0],
    "scored_privacy": "max"}


def _census_load(path, seed: int, per_class: int):
    """Parse, encode and jointly balance one census-style CSV (marital x sex)."""
    dataset, labels = dataio.load_csv(
        path, load_schema(SCHEMA_PATH),
        recoders={"marital-status": dataio.recode_census_marital})
    marital, sex = labels["marital-status"], labels["sex"]
    joint = joint_labels([marital, sex])
    idx = balance_indices(joint, seed=seed)
    if idx.size < per_class * joint.class_count:
        raise RuntimeError(f"{path}: joint balancing kept {idx.size} rows, "
                           f"fewer than {per_class} per class")
    idx = np.sort(np.concatenate([idx[joint.labels[idx] == c][:per_class]
                                  for c in range(joint.class_count)]))
    return (dataset.take(idx), labels["income"].take(idx),
            (marital.take(idx), sex.take(idx)))


def sweep_body(inputs, out_dir: Path, tracer):
    cfg, bundle = inputs
    points = experiment.run_sweep(cfg, bundle, threads=1)
    experiment.emit_tradeoff_curve(points, out_dir / "tradeoff",
                                   betas=cfg.betas)
    return len(points), sum(p.failed for p in points)


def census_setup(work_dir: Path, seed: int):
    bundle_parts = []
    for side, n_rows in (("train", CENSUS_TRAIN_ROWS),
                         ("test", CENSUS_TEST_ROWS)):
        path = work_dir / f"{side}.csv"
        write_adult_like_csv(path, seed=mix(seed, "census", side),
                             n_rows=n_rows)
        bundle_parts.append(_census_load(path, mix(seed, "balance", side),
                                         CENSUS_PER_CLASS[side]))
    (train, train_u, train_p), (test, test_u, test_p) = bundle_parts
    bundle = DataBundle(train=train, train_utility=train_u,
                        train_privacy=train_p, test=test, test_utility=test_u,
                        test_privacy=test_p,
                        privacy_names=("marital-status", "sex"))
    return ExperimentConfig(seed=seed, **CENSUS_CONFIG), bundle


def har_setup(work_dir: Path, seed: int):
    bundle = har_bundle(seed, HAR_FEATURES, HAR_TRAIN, HAR_TEST)
    return ExperimentConfig(seed=seed, **HAR_CONFIG), bundle


def _trim_by_class(path: Path, per_class: int, incomplete: int) -> None:
    """Keep, in file order, the first `per_class` complete rows of each
    marital x sex class and the first `incomplete` rows with a missing value."""
    with open(path, newline="", encoding="utf-8") as fh:
        lines = fh.readlines()
    header = next(csv.reader(lines[:1]))
    marital, sex = header.index("marital-status"), header.index("sex")
    counts = Counter()
    kept = lines[:1]
    for line, row in zip(lines[1:], csv.reader(lines[1:])):
        if "" in row:
            key, limit = "missing", incomplete
        else:
            key = (dataio.recode_census_marital(row[marital]), row[sex])
            limit = per_class
        if counts[key] < limit:
            counts[key] += 1
            kept.append(line)
    short = [key for key, n in counts.items()
             if n < (incomplete if key == "missing" else per_class)]
    if short or len(counts) != 7:
        raise RuntimeError(f"{path}: too few rows to trim to {per_class} per "
                           f"class and {incomplete} incomplete: {dict(counts)}")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.writelines(kept)


def cli_setup(work_dir: Path, seed: int):
    raw = {}
    for side, n_rows in CLI_RAW_ROWS.items():
        raw[side] = work_dir / f"raw_{side}.csv"
        write_adult_like_csv(raw[side], seed=mix(seed, "cli", side),
                             n_rows=n_rows)
        _trim_by_class(raw[side], CLI_PER_CLASS[side], CLI_INCOMPLETE[side])
    config = work_dir / "config.json"
    config.write_text(json.dumps(CLI_CONFIG, indent=2) + "\n")
    return seed, raw, config


def cli_body(inputs, out_dir: Path, tracer):
    """preprocess -> fit -> project -> evaluate -> sweep -> plot via cli.main."""
    seed, raw, config = inputs
    o = {name: str(out_dir / name) for name in (
        "train", "test", "train.csv", "test.csv", "train.income.csv",
        "test.income.csv", "train.marital-status.csv", "train.sex.csv",
        "test.marital-status.csv", "test.sex.csv", "model.json",
        "train_z.csv", "test_z.csv", "sweep", "plot.svg")}
    commands = []
    for side in ("train", "test"):
        commands.append(["preprocess", "--input", str(raw[side]),
                         "--schema", str(SCHEMA_PATH),
                         "--recode-census-marital",
                         "--balance-on", "marital-status,sex",
                         "--seed", str(mix(seed, "balance", side) >> 33),
                         "--output", o[side]])
    commands += [
        ["fit", "--data", o["train.csv"],
         "--utility-labels", o["train.income.csv"],
         "--privacy-labels", o["train.marital-status.csv"],
         "--privacy-labels", o["train.sex.csv"],
         "--method", "RUCA", "--k", "2", "--privacy-weights", "4,0",
         "--out", o["model.json"]],
        ["project", "--model", o["model.json"], "--data", o["train.csv"],
         "--out", o["train_z.csv"]],
        ["project", "--model", o["model.json"], "--data", o["test.csv"],
         "--out", o["test_z.csv"]],
        ["evaluate", "--train-data", o["train_z.csv"],
         "--train-labels", o["train.income.csv"],
         "--test-data", o["test_z.csv"],
         "--test-labels", o["test.income.csv"],
         "--classifier", "NEAREST_CENTROID"],
        ["sweep", "--config", str(config), "--train-data", o["train.csv"],
         "--train-utility", o["train.income.csv"],
         "--train-privacy", o["train.marital-status.csv"],
         "--train-privacy", o["train.sex.csv"],
         "--test-data", o["test.csv"],
         "--test-utility", o["test.income.csv"],
         "--test-privacy", o["test.marital-status.csv"],
         "--test-privacy", o["test.sex.csv"],
         "--seed", str(seed), "--out-dir", o["sweep"]],
        ["plot", "--csv", str(out_dir / "sweep" / "tradeoff.csv"),
         "--out", o["plot.svg"]],
    ]
    failed = 0
    for argv in commands:
        span = (tracer.span(f"cli.{argv[0]}") if tracer
                else contextlib.nullcontext())
        # The commands report on stdout; the benchmark's stdout is its result.
        with span, contextlib.redirect_stdout(io.StringIO()):
            failed += cli.main(argv) != 0
    table = out_dir / "sweep" / "tradeoff.csv"
    cells = experiment.read_tradeoff_csv(table) if table.exists() else []
    failed += sum(row["status"] != "ok" for row in cells)
    return len(commands) + len(cells), failed


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable
    body: Callable
    sweep_workers: int
    table: str  # the trade-off table, relative to the body's out_dir


def workloads(nproc: int) -> dict[str, Workload]:
    return {w.name: w for w in (
        Workload("census_sweep", census_setup, sweep_body, 1, "tradeoff.csv"),
        Workload("har_wide", har_setup, sweep_body, 1, "tradeoff.csv"),
        Workload("cli_pipeline", cli_setup, cli_body, nproc,
                 "sweep/tradeoff.csv"),
    )}


# --- layer wrappings of a traced run ------------------------------------------
# Each layer is wrapped where its caller looks the name up, so the package's
# own calls are timed. `key` hashes the inputs that define distinct work:
# train_eval by its projected data only (the three labelings of one
# projection share it), generalized_eig by its pencil (not k).

def _train_eval_key(train, train_labels, test, test_labels, spec):
    return digest_args(train, test)


def _train_eval_attrs(result, train, train_labels, test, test_labels, spec):
    return {"work": test.n_samples}


def _geig_key(a, b, k):
    return digest_args(a, b)


def _geig_attrs(result, a, b, k):
    return {"m": a.shape[0]}


def _scatter_key(d, labels):
    return digest_args(d, labels)


def _load_csv_attrs(result, *args, **kwargs):
    return {"work": result.n_rows_kept + result.n_rows_dropped}


WRAPPINGS = (
    (experiment, "train_eval", "classify.train_eval", _train_eval_key,
     _train_eval_attrs),
    (cli, "train_eval", "classify.train_eval", _train_eval_key,
     _train_eval_attrs),
    (linalg, "generalized_eig", "linalg.generalized_eig", _geig_key,
     _geig_attrs),
    (linalg, "sym_eig", "linalg.sym_eig"),
    (projections, "compute_scatter", "scatter.compute_scatter", _scatter_key),
    (experiment, "fit_method", "projections.fit_method"),
    (cli, "fit_method", "projections.fit_method"),
    (experiment, "project", "projections.project"),
    (cli, "project", "projections.project"),
    (dataio, "load_csv", "dataio.load_csv", None, _load_csv_attrs),
    (cli, "load_csv", "dataio.load_csv", None, _load_csv_attrs),
    (cli, "save_dataset_csv", "dataio.save_dataset_csv"),
    (cli, "load_dataset_csv", "dataio.load_dataset_csv"),
    (experiment, "subsample", "dataio.subsample"),
    (experiment, "run_sweep", "experiment.run_sweep"),
    (cli, "run_sweep", "experiment.run_sweep"),
    (experiment, "emit_tradeoff_curve", "experiment.emit_tradeoff_curve"),
    (cli, "emit_tradeoff_curve", "experiment.emit_tradeoff_curve"),
)
