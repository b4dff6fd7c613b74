#!/usr/bin/env python3
"""Prepare the human-activity-recognition training partition.

Reads the UCI layout's train/X_train.txt (561 features a row), y_train.txt
and subject_train.txt. Activity id a becomes class a - 1, and a subject's
class is the rank of its id. The rows are split into fit/eval halves
stratified jointly on (subject, activity), since the published test
partition holds other people and cannot score an identity classifier.
Writes train.csv and test.csv with .activity and .subject label files.
Run scripts/fetch_data.sh first.
"""

import argparse
import sys
from pathlib import Path

import numpy as np

from privproj.data import Dataset, LabelSet
from privproj.dataio import (joint_labels, save_dataset_csv, save_labels_csv,
                             stratified_holdout)
from privproj.errors import InputError


def load_train(train_dir: Path
               ) -> tuple[Dataset, dict[str, LabelSet], np.ndarray]:
    """The features, the activity and subject labelings of one partition,
    and the subject ids in class order."""
    paths = [train_dir / f"{name}_train.txt" for name in ("X", "y", "subject")]
    arrays = []
    try:
        for path, dtype, ndmin in zip(paths, (np.float64, np.int64, np.int64),
                                      (2, 1, 1)):
            arrays.append(np.loadtxt(path, dtype, ndmin=ndmin))
    except ValueError as exc:
        raise InputError(f"{path}: {exc}") from None
    x, y, subject = arrays
    if x.shape[1] != 561:
        raise InputError(f"{paths[0]}: expected 561 features a row, "
                         f"got {x.shape[1]}")
    if not len(x) == len(y) == len(subject):
        raise InputError("row counts differ: " + ", ".join(
            f"{p} has {len(a)}" for p, a in zip(paths, (x, y, subject))))
    try:
        activity = LabelSet(y - 1, 6)
    except InputError as exc:
        raise InputError(f"{paths[1]}: activity ids must be 1-6 ({exc})")
    ids, subject_class = np.unique(subject, return_inverse=True)
    return (Dataset(x.T, [f"f{i}" for i in range(1, 562)]),
            {"activity": activity, "subject": LabelSet(subject_class, ids.size)},
            ids)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--har-dir", default="data/har/UCI HAR Dataset")
    parser.add_argument("--out-dir", default="data/har/prepared")
    parser.add_argument("--eval-fraction", type=float, default=0.3,
                        help="fraction held out for evaluation")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    try:
        dataset, labels, ids = load_train(Path(args.har_dir) / "train")
        joint = joint_labels([labels["subject"], labels["activity"]])
        # Joint class j is subject class j // 6 doing activity class j % 6.
        empty = np.flatnonzero(joint.counts() == 0)
        if empty.size:
            raise InputError("; ".join(
                f"subject {ids[j // 6]} has no rows of activity {j % 6 + 1}"
                for j in empty))
        fit_idx, eval_idx = stratified_holdout(joint, args.eval_fraction,
                                               seed=args.seed)
    except (OSError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    for tag, idx in (("train", fit_idx), ("test", eval_idx)):
        save_dataset_csv(dataset.take(idx), out_dir / f"{tag}.csv")
        for name, label_set in labels.items():
            save_labels_csv(label_set.take(idx),
                            out_dir / f"{tag}.{name}.csv")
        print(f"{tag}: {len(idx)} rows")
    return 0


if __name__ == "__main__":
    sys.exit(main())
