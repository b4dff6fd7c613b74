"""Record the output digests that bench/run.py checks its outputs against.

    python3 bench/record_digests.py

Runs one unit (setup + body) for each workload listed in BENCHMARK.json
and each input set 0..RECORDED_SEEDS-1, and rewrites bench/digests.json
for this numpy/BLAS/CPU build. Rerun it only for a change that alters
outputs on purpose, and state that reason with it.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run  # pins BLAS threads before numpy loads


def main() -> int:
    error = run.import_package()
    if error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    from workloads import workloads

    nproc = len(os.sched_getaffinity(0))
    os.environ["PRIVPROJ_THREADS"] = str(nproc)
    listed = [w["name"] for w in
              json.loads((run.ROOT / "BENCHMARK.json").read_text())["workloads"]]
    table = workloads(nproc)
    digests = {}
    work = run.WORK_ROOT / f"record-{os.getpid()}"
    try:
        for name in listed:
            digests[name] = {}
            for seed in range(run.RECORDED_SEEDS):
                *_, failed, digest = run.run_unit(table[name], seed, work)
                if failed:
                    print(f"error: {name} seed {seed}: {failed} operations "
                          f"failed", file=sys.stderr)
                    return 1
                digests[name][str(seed)] = digest
                print(f"{name} seed {seed}: {digest['outputs']}", flush=True)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if run.WORK_ROOT.exists() and not any(run.WORK_ROOT.iterdir()):
            run.WORK_ROOT.rmdir()
    doc = {"environment": run.build_fingerprint(), "digests": digests}
    run.DIGESTS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
