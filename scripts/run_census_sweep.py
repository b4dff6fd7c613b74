#!/usr/bin/env python3
"""Run the census utility/privacy sweep and emit the trade-off table.

Utility task: income bracket. Privacy tasks: marital-status group (priced)
and sex (tracked). The grid mirrors the published layout: one row per
method, a weight ladder for the interpolating method, and a
full-dimensional baseline.

Expects data prepared by scripts/prepare_census.py (real or --synthetic).
"""

import argparse
import json
import sys
from pathlib import Path

from privproj import cli

CONFIG = {
    "methods": [
        {"method": "PCA", "k_values": [1, 2]},
        {"method": "RANDOM", "k_values": [1, 2]},
        {"method": "DCA", "k_values": [1, 2]},
        {"method": "MDR", "k_values": [1, 2]},
        {"method": "RUCA", "k_values": [1, 2],
         "weight_rows": [[1.0, 0.0], [2.0, 0.0], [4.0, 0.0],
                         [8.0, 0.0], [16.0, 0.0]]},
    ],
    "classifier": {"kind": "KNN", "k_neighbors": 5},
    "iterations": 10,
    "fraction": 0.10,
    "betas": [0.5, 1.0, 2.0],
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-dir", default="data/census/prepared")
    parser.add_argument("--out-dir", default="results/census")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    data = Path(args.data_dir)
    out_dir = Path(args.out_dir)
    required = [data / "train.csv", data / "test.csv"]
    if not all(p.exists() for p in required):
        print(f"missing prepared data in {data}; run "
              f"scripts/prepare_census.py first", file=sys.stderr)
        return 2
    out_dir.mkdir(parents=True, exist_ok=True)
    config_path = out_dir / "config.json"
    config_path.write_text(json.dumps(CONFIG, indent=2) + "\n")

    return cli.main([
        "sweep", "--config", str(config_path),
        "--train-data", str(data / "train.csv"),
        "--train-utility", str(data / "train.income.csv"),
        "--train-privacy", str(data / "train.marital-status.csv"),
        "--train-privacy", str(data / "train.sex.csv"),
        "--test-data", str(data / "test.csv"),
        "--test-utility", str(data / "test.income.csv"),
        "--test-privacy", str(data / "test.marital-status.csv"),
        "--test-privacy", str(data / "test.sex.csv"),
        "--seed", str(args.seed), "--out-dir", str(out_dir)])


if __name__ == "__main__":
    sys.exit(main())
