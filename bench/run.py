"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload census_sweep --seed 0 --seconds 55 --trace 1

Inputs are generated from --seed modulo RECORDED_SEEDS (64), the input
sets whose output digests bench/digests.json holds; the package only sees
the generated data. A unit is one set-up of the inputs followed by one
timed body. With --trace 0 the run repeats units within --seconds (at
least MIN_UNITS) and reports the medians of the end-to-end metrics. With
--trace 1 it alternates untraced and traced units and reports per-layer
metrics from the traced ones (medians; counters must repeat exactly); it
also prints the end-to-end figures of its untraced units, so this one
command shows every metric. Human-readable lines go first; the last
stdout line is the JSON result. Outputs are checked against
bench/digests.json: on the numpy/BLAS/CPU build the digests were recorded
on, every output byte must match; on another build, where BLAS may round
the last bits differently, the trade-off table must still match. A run is
correct only if its outputs pass that check, every unit wrote the same
bytes, the traced counters repeat and no operation failed; otherwise it
exits with code 1.

Everything runs in this one process. BLAS is pinned to one thread; the
CLI workload's sweep uses one worker per available CPU, so workers x BLAS
threads never exceeds the CPU count.
"""

from __future__ import annotations

import os
import sys

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
DIGESTS = BENCH_DIR / "digests.json"
WORK_ROOT = ROOT / ".bench_work"
TRACE_OUT = ROOT / ".bench_out"

# Units (setup + body) per run at least, so setup_s is a median of several.
MIN_UNITS = 3
# Input sets with recorded digests: --seed selects one modulo this count.
RECORDED_SEEDS = 64

# Layers whose spans count as covered time; run_sweep and the cli.* spans
# only orchestrate, and their uncovered rest is experiment.run_sweep.self_s.
WORK_LAYERS = ("classify.train_eval", "linalg.generalized_eig",
               "linalg.sym_eig", "scatter.compute_scatter",
               "projections.fit_method", "projections.project",
               "dataio.load_csv", "dataio.save_dataset_csv",
               "dataio.load_dataset_csv", "dataio.subsample",
               "experiment.emit_tradeoff_curve")
CLI_COMMANDS = ("preprocess", "fit", "project", "evaluate", "sweep", "plot")
# Counters that must repeat exactly from one traced unit to the next.
EXACT = ("classify.train_eval.calls", "classify.train_eval.distinct",
         "linalg.generalized_eig.calls", "linalg.generalized_eig.distinct",
         "linalg.sym_eig.calls", "scatter.compute_scatter.calls",
         "scatter.compute_scatter.distinct", "projections.fit_method.calls")


def output_digests(out_dir: Path, table: str) -> dict[str, str]:
    """SHA-256 over every output file's relative path and bytes
    ("outputs"), and SHA-256 of the trade-off table alone ("table")."""
    h = hashlib.sha256()
    for path in sorted(p for p in out_dir.rglob("*") if p.is_file()):
        h.update(path.relative_to(out_dir).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
    table_bytes = (out_dir / table).read_bytes()
    return {"outputs": h.hexdigest(),
            "table": hashlib.sha256(table_bytes).hexdigest()}


def layer_metrics(spans, body_start: float, body_end: float) -> dict:
    """Per-layer metrics of one traced (setup + body) unit."""
    from spans import covered_time, self_times

    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def of(name, top_level_only=False):
        found = [s for s in spans if s["name"] == name]
        if top_level_only:
            # sym_eig calls made inside generalized_eig belong to the pencil.
            found = [s for s in found if s["parent"] is None or
                     by_id[s["parent"]]["name"] != "linalg.generalized_eig"]
        return found

    def total(found):
        return sum(s["end"] - s["start"] for s in found)

    def distinct(found):
        return len({s["key"] for s in found}) / len(found) if found else 0.0

    def rate(found):
        seconds = total(found)
        return sum(s["work"] for s in found) / seconds if seconds else 0.0

    te = of("classify.train_eval")
    ge = of("linalg.generalized_eig")
    se = of("linalg.sym_eig", top_level_only=True)
    sc = of("scatter.compute_scatter")
    fm = of("projections.fit_method")
    lc = of("dataio.load_csv")
    rs = of("experiment.run_sweep")
    body = body_end - body_start
    out = {
        "classify.train_eval.s": total(te),
        "classify.train_eval.calls": len(te),
        "classify.train_eval.distinct": distinct(te),
        "classify.test_points_per_s": rate(te),
        "linalg.generalized_eig.s": total(ge),
        "linalg.generalized_eig.calls": len(ge),
        "linalg.generalized_eig.distinct": distinct(ge),
        "linalg.generalized_eig.s_per_call": total(ge) / len(ge) if ge else 0.0,
        "linalg.sym_eig.s": total(se),
        "linalg.sym_eig.calls": len(se),
        "scatter.compute_scatter.s": total(sc),
        "scatter.compute_scatter.calls": len(sc),
        "scatter.compute_scatter.distinct": distinct(sc),
        "projections.fit_method.s": sum(selfs[s["id"]] for s in fm),
        "projections.fit_method.calls": len(fm),
        "projections.project.s": total(of("projections.project")),
        "dataio.load_csv.s": total(lc),
        "dataio.load_csv.rows_per_s": rate(lc),
        "dataio.save_dataset_csv.s": total(of("dataio.save_dataset_csv")),
        "dataio.load_dataset_csv.s": total(of("dataio.load_dataset_csv")),
        "dataio.subsample.s": total(of("dataio.subsample")),
        "experiment.run_sweep.self_s": sum(selfs[s["id"]] for s in rs),
        "experiment.emit_tradeoff_curve.s":
            total(of("experiment.emit_tradeoff_curve")),
    }
    for command in CLI_COMMANDS:
        out[f"cli.{command}.s"] = total(of(f"cli.{command}"))
    out["trace.covered_share"] = covered_time(
        spans, WORK_LAYERS, body_start, body_end) / body
    # Pencil dimension: printed with the metrics, not a metric itself.
    out["linalg.generalized_eig.m"] = max((s["m"] for s in ge), default=0)
    return out


def declared_metrics(kind: str) -> dict[str, str]:
    """Name -> unit of the "end_to_end" or "per_layer" list in BENCHMARK.json."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc[kind]}


def build_fingerprint() -> dict:
    """What the output bytes may depend on besides the code: BLAS kernels
    differ by build and CPU features, and so may the last bits of a sum."""
    import numpy as np

    config = np.show_config(mode="dicts")
    blas = config["Build Dependencies"]["blas"]
    return {"numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "simd": sorted(config["SIMD Extensions"]["found"]),
            "machine": platform.machine()}


def environment(workload) -> dict:
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "blas_threads": BLAS_THREADS,
            "sweep_workers": workload.sweep_workers, **build_fingerprint()}


def check_digests(workload: str, seed: int, digests: list[dict]
                  ) -> tuple[bool, str]:
    """Whether the units' output digests pass the gate, and why."""
    if any(d != digests[0] for d in digests):
        return False, "MISMATCH: units wrote different bytes"
    recorded = json.loads(DIGESTS.read_text())
    expected = recorded["digests"].get(workload, {}).get(str(seed))
    if expected is None:
        return False, (f"no digest recorded for {workload}; record it with "
                       f"bench/record_digests.py once it is listed in "
                       f"BENCHMARK.json")
    if recorded["environment"] == build_fingerprint():
        if digests[0] == expected:
            return True, "every output matches the recorded digest"
        return False, "MISMATCH with the recorded digest"
    if digests[0]["table"] == expected["table"]:
        return True, ("trade-off table matches the recorded digest; the "
                      "other outputs were recorded on another numpy/BLAS/CPU "
                      "build and are not compared")
    return False, "MISMATCH with the recorded trade-off table digest"


def run_unit(workload, seed: int, work: Path, tracer=None):
    """Set up and run the body once, with `tracer` installed if given.

    Returns (setup_s, body_start, body_end, attempted, failed, digests)."""
    inputs_dir, out_dir = work / "inputs", work / "out"
    for d in (inputs_dir, out_dir):
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
    gc.collect()
    if tracer:
        tracer.install()
    try:
        t0 = time.perf_counter()
        inputs = workload.setup(inputs_dir, seed)
        t1 = time.perf_counter()
        gc.collect()
        b0 = time.perf_counter()
        attempted, failed = workload.body(inputs, out_dir, tracer)
        b1 = time.perf_counter()
    finally:
        if tracer:
            tracer.uninstall()
    return (t1 - t0, b0, b1, attempted, failed,
            output_digests(out_dir, workload.table))


def import_package() -> str | None:
    """Import privproj from this checkout's src/; returns an error or None."""
    sys.path.insert(0, str(BENCH_DIR))
    sys.path.insert(0, str(SRC))
    try:
        import privproj
    except ImportError as exc:
        return f"cannot import privproj from {SRC}: {exc}"
    if not Path(privproj.__file__).resolve().is_relative_to(SRC):
        return (f"privproj resolved to {privproj.__file__}, "
                f"not to this checkout's {SRC}")
    return None


def run(args) -> int:
    error = import_package()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from spans import Tracer
    from workloads import WRAPPINGS, workloads

    nproc = len(os.sched_getaffinity(0))
    os.environ["PRIVPROJ_THREADS"] = str(nproc)
    table = workloads(nproc)
    if args.workload not in table:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(table)}", file=sys.stderr)
        return 2
    workload = table[args.workload]
    seed = args.seed % RECORDED_SEEDS

    work = WORK_ROOT / f"{args.workload}-{os.getpid()}"
    setups, walls, traced_walls, digests, units, all_spans = ([] for _ in range(6))
    attempted = failed = 0
    start = time.perf_counter()
    last_unit = 0.0
    try:
        # Start a unit only if it should end within --seconds, judged by
        # the length of the one before it.
        while (len(walls) < MIN_UNITS or time.perf_counter() - start
               + last_unit <= args.seconds):
            unit_start = time.perf_counter()
            setup_s, b0, b1, n_ops, n_failed, digest = run_unit(
                workload, seed, work)
            setups.append(setup_s)
            walls.append(b1 - b0)
            digests.append(digest)
            attempted, failed = attempted + n_ops, failed + n_failed
            if args.trace:
                tracer = Tracer(WRAPPINGS)
                _, b0, b1, n_ops, n_failed, digest = run_unit(
                    workload, seed, work, tracer)
                traced_walls.append(b1 - b0)
                digests.append(digest)
                attempted, failed = attempted + n_ops, failed + n_failed
                units.append(layer_metrics(tracer.spans, b0, b1))
                all_spans.append(tracer.spans)
            last_unit = time.perf_counter() - unit_start
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK_ROOT.exists() and not any(WORK_ROOT.iterdir()):
            WORK_ROOT.rmdir()

    # Every unit, traced or not, must write the same bytes, and they must
    # match the recorded digest.
    digest_ok, verdict = check_digests(args.workload, seed, digests)
    exact_ok = all(len({u[name] for u in units}) <= 1 for name in EXACT)
    correct = digest_ok and exact_ok and failed == 0
    if not digest_ok:
        failed = attempted

    print(f"workload {args.workload} seed {args.seed} (input set {seed} of "
          f"0-{RECORDED_SEEDS - 1}) trace {args.trace}")
    print("env " + json.dumps(environment(workload), sort_keys=True))
    print(f"digest {digests[0]['outputs']} (table {digests[0]['table']}): "
          f"{verdict}")
    if args.trace:
        print(f"exact counters repeat across {len(units)} traced units: "
              f"{exact_ok}")
    print(f"fail_frac = {failed / attempted:.6g} "
          f"({failed} of {attempted} operations)")
    print(f"units = {len(walls)}; body seconds "
          + " ".join(f"{w:.4f}" for w in walls))
    e2e = {"wall_s": statistics.median(walls),
           "setup_s": statistics.median(setups),
           "peak_rss_mb": resource.getrusage(
               resource.RUSAGE_SELF).ru_maxrss / 1024}
    for name, unit in declared_metrics("end_to_end").items():
        print(f"{name} = {e2e[name]:.6g} {unit}")

    if args.trace:
        overhead = statistics.median(traced_walls) - statistics.median(walls)
        metrics = {}
        for name, unit in declared_metrics("per_layer").items():
            value = (overhead if name == "trace.overhead_s"
                     else statistics.median(u[name] for u in units))
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} = {value:.6g} {unit}")
        print(f"linalg.generalized_eig.m = "
              f"{units[0]['linalg.generalized_eig.m']} (pencil dimension)")
        TRACE_OUT.mkdir(exist_ok=True)
        spans_path = TRACE_OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        with open(spans_path, "w", encoding="utf-8") as fh:
            for unit_index, spans in enumerate(all_spans):
                for s in spans:
                    fh.write(json.dumps({"unit": unit_index, **s}) + "\n")
        print(f"spans written to {spans_path.relative_to(ROOT)}")
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in declared_metrics("end_to_end").items()}

    print(f"correct = {correct}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True,
                        help=f"selects input set SEED mod {RECORDED_SEEDS}")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return run(parser.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main())
