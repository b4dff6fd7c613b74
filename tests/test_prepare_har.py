"""scripts/prepare_har.py on small UCI-layout files, run as a subprocess."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from privproj.dataio import load_dataset_csv, load_labels_csv

ROOT = Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "prepare_har.py"
OUTPUTS = [f"{tag}{suffix}.csv" for tag in ("train", "test")
           for suffix in ("", ".activity", ".subject")]
SUBJECT_IDS = (2, 9, 30)
ROWS_PER_CELL = 4


def write_uci(har_dir: Path, drop_y_rows: int = 0, activity_shift: int = 0,
              missing_cells=()):
    """UCI-layout train files: every (subject, activity) cell not in
    missing_cells holds ROWS_PER_CELL rows in shuffled order. Feature f1 is
    the row number, so an output row names the input row it came from."""
    rng = np.random.default_rng(5)
    cells = [(s, a) for s in SUBJECT_IDS for a in range(1, 7)
             if (s, a) not in missing_cells]
    order = rng.permutation(len(cells) * ROWS_PER_CELL) // ROWS_PER_CELL
    subject = np.array([cells[i][0] for i in order])
    activity = np.array([cells[i][1] for i in order]) + activity_shift
    # Magnitudes 1e-3 to 1e2, so the exponents vary as UCI's do.
    scale = 10.0 ** rng.integers(-3, 3, (order.size, 561))
    x = rng.standard_normal((order.size, 561)) * scale
    x[:, 0] = np.arange(order.size)
    train = har_dir / "train"
    train.mkdir(parents=True)
    np.savetxt(train / "X_train.txt", x, fmt="%.7e")
    np.savetxt(train / "y_train.txt", activity[:activity.size - drop_y_rows],
               fmt="%d")
    np.savetxt(train / "subject_train.txt", subject, fmt="%d")
    # The features as the script parses them back from the text.
    return np.loadtxt(train / "X_train.txt"), activity, subject


def run(har_dir: Path, out_dir: Path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [env.get("PYTHONPATH")])])
    return subprocess.run(
        [sys.executable, str(SCRIPT), "--har-dir", str(har_dir),
         "--out-dir", str(out_dir)],
        env=env, capture_output=True, text=True)


def test_splits_labels_and_features(tmp_path):
    x, activity, subject = write_uci(tmp_path / "uci")
    result = run(tmp_path / "uci", tmp_path / "out")
    assert result.returncode == 0, result.stderr
    out = tmp_path / "out"
    # The six outputs and nothing else: no intermediate CSV is left behind.
    assert sorted(p.name for p in out.iterdir()) == sorted(OUTPUTS)
    ranks = {s: rank for rank, s in enumerate(SUBJECT_IDS)}
    seen = []
    # 18 cells of 4 rows: floor(0.3 * 4) = 1 row of each cell is held out.
    for tag, n_rows in (("train", 54), ("test", 18)):
        data = load_dataset_csv(out / f"{tag}.csv")
        assert data.x.shape == (561, n_rows)
        assert data.feature_names == tuple(f"f{i}" for i in range(1, 562))
        rows = data.x[0].astype(int)
        assert np.all(np.diff(rows) > 0)
        assert np.array_equal(data.x, x[rows].T)
        acts = load_labels_csv(out / f"{tag}.activity.csv")
        subs = load_labels_csv(out / f"{tag}.subject.csv")
        assert acts.class_count == 6 and subs.class_count == 3
        assert np.array_equal(acts.labels, activity[rows] - 1)
        assert subs.labels.tolist() == [ranks[s] for s in subject[rows]]
        assert np.all(np.bincount(subs.labels * 6 + acts.labels, minlength=18)
                      == n_rows // 18)
        seen.extend(rows)
    assert sorted(seen) == list(range(x.shape[0]))


def test_rerun_is_byte_identical(tmp_path):
    write_uci(tmp_path / "uci")
    for out in ("a", "b"):
        assert run(tmp_path / "uci", tmp_path / out).returncode == 0
    for name in OUTPUTS:
        assert ((tmp_path / "a" / name).read_bytes()
                == (tmp_path / "b" / name).read_bytes())


def test_row_count_mismatch_names_the_files(tmp_path):
    write_uci(tmp_path / "uci", drop_y_rows=10)
    result = run(tmp_path / "uci", tmp_path / "out")
    assert result.returncode == 2
    train = tmp_path / "uci" / "train"
    assert (f"row counts differ: {train / 'X_train.txt'} has 72, "
            f"{train / 'y_train.txt'} has 62, "
            f"{train / 'subject_train.txt'} has 72") in result.stderr
    assert not (tmp_path / "out").exists()


def test_malformed_value_names_the_file(tmp_path):
    write_uci(tmp_path / "uci")
    subject_path = tmp_path / "uci" / "train" / "subject_train.txt"
    subject_path.write_text(subject_path.read_text().replace("9", "nine", 1))
    result = run(tmp_path / "uci", tmp_path / "out")
    assert result.returncode == 2
    assert f"error: {subject_path}: could not convert" in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("shift, seen", [(-1, "[-1, 4]"), (1, "[1, 6]")])
def test_activity_ids_out_of_range(tmp_path, shift, seen):
    # Shifting every id puts 0 or 7 in the file.
    write_uci(tmp_path / "uci", activity_shift=shift)
    result = run(tmp_path / "uci", tmp_path / "out")
    assert result.returncode == 2
    assert "y_train.txt: activity ids must be 1-6" in result.stderr
    assert f"saw {seen}" in result.stderr
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("missing, named", [
    (((9, 6),), "subject 9 has no rows of activity 6"),
    (((2, 1), (30, 4)), "subject 2 has no rows of activity 1; "
                        "subject 30 has no rows of activity 4")])
def test_subject_without_an_activity_is_named(tmp_path, missing, named):
    write_uci(tmp_path / "uci", missing_cells=missing)
    result = run(tmp_path / "uci", tmp_path / "out")
    assert result.returncode == 2
    assert f"error: {named}\n" in result.stderr
    assert not (tmp_path / "out").exists()
