#!/usr/bin/env python3
"""Prepare the census income extract for sweeps.

Normalizes the raw adult files (header, whitespace, "?" markers, trailing
periods), encodes them through the shipped schema with the 3-group marital
recode, balances train and test jointly over (marital-status, sex), and
writes the dataset/label CSVs the sweep command consumes.

Run scripts/fetch_data.sh first, or pass --synthetic to use the bundled
census-style generator instead of the real files.
"""

import argparse
import sys
from importlib import resources
from pathlib import Path

from privproj import cli
from privproj.dataio import normalize_adult_csv
from privproj.synthetic import write_adult_like_csv


def prepare_split(raw_csv: Path, out_prefix: Path, seed: int) -> int:
    """Encode, recode and jointly balance one split via `privproj preprocess`."""
    schema = resources.files("privproj.schemas") / "census_adult.json"
    return cli.main(["preprocess",
                     "--input", str(raw_csv), "--schema", str(schema),
                     "--recode-census-marital",
                     "--balance-on", "marital-status,sex",
                     "--seed", str(seed), "--output", str(out_prefix)])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--raw-dir", default="data/census",
                        help="directory with adult.data / adult.test")
    parser.add_argument("--out-dir", default="data/census/prepared")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the balancing draws")
    parser.add_argument("--synthetic", action="store_true",
                        help="generate census-style data instead of "
                             "reading the real files")
    args = parser.parse_args()

    raw_dir, out_dir = Path(args.raw_dir), Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if args.synthetic:
        train_raw = out_dir / "synthetic_train_raw.csv"
        test_raw = out_dir / "synthetic_test_raw.csv"
        write_adult_like_csv(train_raw, seed=101, n_rows=8000)
        write_adult_like_csv(test_raw, seed=202, n_rows=4000)
        print("using the bundled census-style generator")
    else:
        train_src = raw_dir / "adult.data"
        test_src = raw_dir / "adult.test"
        if not train_src.exists() or not test_src.exists():
            print(f"missing {train_src} or {test_src}; run "
                  f"scripts/fetch_data.sh or pass --synthetic",
                  file=sys.stderr)
            return 2
        train_raw = out_dir / "adult_train_raw.csv"
        test_raw = out_dir / "adult_test_raw.csv"
        normalize_adult_csv(train_src, train_raw)
        normalize_adult_csv(test_src, test_raw)

    return (prepare_split(train_raw, out_dir / "train", seed=args.seed)
            or prepare_split(test_raw, out_dir / "test", seed=args.seed + 1))


if __name__ == "__main__":
    sys.exit(main())
