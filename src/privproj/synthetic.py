"""Deterministic synthetic data generators.

Two generators:

* :func:`tradeoff_bundle` builds a Gaussian two-class problem whose utility
  and privacy labels are correlated, so suppressing the privacy direction
  costs a little utility but not much — the regime where the
  utility/privacy trade-off is actually visible.
* :func:`write_adult_like_csv` emits a census-style CSV (same columns and
  category vocabulary as the bundled census schema) with planted
  dependence between income, marital status, sex, and the features. It
  stands in for the real extract in tests and demos.
"""

from __future__ import annotations

import numpy as np

from . import dataio
from .data import Dataset, LabelSet
from .errors import InputError
from .experiment import DataBundle
from .seeds import rng_from

__all__ = ["tradeoff_bundle", "write_adult_like_csv"]


def tradeoff_bundle(seed: int, n_train: int = 2000, n_test: int = 2000,
                    m: int = 10, signal_u: float = 2.0,
                    signal_p: float = 1.2, noise: float = 1.0,
                    agreement: float = 0.5, noise_corr: float = 0.8,
                    witness_corr: float = 0.7) -> DataBundle:
    """Two binary labelings over an m-dimensional Gaussian cloud.

    The utility label shifts feature 0 by ±signal_u and the privacy label
    shifts feature 1 by ±signal_p — orthogonal class-mean directions. Two
    noise correlations shape the trade-off:

    * ``noise_corr`` ties feature 1's noise to feature 0's, so a projection
      that whitens the utility axis picks up a feature-1 component and
      leaks the privacy label until that direction is explicitly priced.
    * ``witness_corr`` ties feature 2's noise to feature 0's. Feature 2
      carries no label information, but reading it lets a total-scatter
      denominator cancel utility-axis noise — an advantage unavailable to
      a method that whitens by privacy scatter alone.

    ``agreement`` is the probability that the two labels agree; 0.5 makes
    them independent. Remaining dimensions are pure noise.
    """
    if not 0.5 <= agreement < 1.0:
        raise InputError(f"agreement must be in [0.5, 1), got {agreement}")
    for name, value in (("noise_corr", noise_corr),
                        ("witness_corr", witness_corr)):
        if not -1.0 < value < 1.0:
            raise InputError(f"{name} must be in (-1, 1), got {value}")
    if m < 3:
        raise InputError(f"need at least 3 feature dimensions, got {m}")

    def _half(tag: str, n: int):
        rng = rng_from(seed, "tradeoff-bundle", tag)
        y = rng.integers(0, 2, size=n)
        flip = rng.random(n) < (1.0 - agreement)
        s = np.where(flip, 1 - y, y)
        e = rng.standard_normal((m, n))
        base = e[0].copy()
        e[1] = noise_corr * base + np.sqrt(1.0 - noise_corr ** 2) * e[1]
        e[2] = witness_corr * base + np.sqrt(1.0 - witness_corr ** 2) * e[2]
        x = noise * e
        x[0] += signal_u * (2.0 * y - 1.0)
        x[1] += signal_p * (2.0 * s - 1.0)
        return (Dataset(x), LabelSet(y, class_count=2),
                LabelSet(s, class_count=2))

    train, train_u, train_p = _half("train", n_train)
    test, test_u, test_p = _half("test", n_test)
    return DataBundle(train=train, train_utility=train_u,
                      train_privacy=(train_p,), test=test,
                      test_utility=test_u, test_privacy=(test_p,),
                      privacy_names=("confidential",))


# --- census-style generator ---------------------------------------------------

# Names are object arrays of the literal strings, indexed by category code:
# a column of codes maps to its names in one lookup, sharing the strings.

def _names(*names) -> np.ndarray:
    return np.array(names, dtype=object)


#: education name for each education-num value 1..16.
_EDUCATION = _names("Preschool", "1st-4th", "5th-6th", "7th-8th", "9th",
                    "10th", "11th", "12th", "HS-grad", "Some-college",
                    "Assoc-voc", "Assoc-acdm", "Bachelors", "Masters",
                    "Prof-school", "Doctorate")

_WORKCLASS = _names("Private", "Self-emp-not-inc", "Self-emp-inc",
                    "Federal-gov", "Local-gov", "State-gov", "Without-pay",
                    "Never-worked")
_WORKCLASS_P = {
    0: (0.75, 0.08, 0.02, 0.03, 0.06, 0.04, 0.01, 0.01),
    1: (0.66, 0.09, 0.09, 0.05, 0.06, 0.04, 0.005, 0.005),
}

_OCCUPATION = _names("Tech-support", "Craft-repair", "Other-service", "Sales",
                     "Exec-managerial", "Prof-specialty", "Handlers-cleaners",
                     "Machine-op-inspct", "Adm-clerical", "Farming-fishing",
                     "Transport-moving", "Priv-house-serv", "Protective-serv",
                     "Armed-Forces")
_OCCUPATION_P = {
    0: (0.03, 0.14, 0.14, 0.10, 0.06, 0.07, 0.06, 0.08, 0.14, 0.04,
        0.07, 0.015, 0.02, 0.005),
    1: (0.04, 0.09, 0.03, 0.12, 0.26, 0.24, 0.01, 0.03, 0.06, 0.02,
        0.05, 0.005, 0.04, 0.005),
}

_RACE = _names("White", "Asian-Pac-Islander", "Amer-Indian-Eskimo", "Other",
               "Black")
_RACE_P = (0.85, 0.03, 0.01, 0.01, 0.10)

_COUNTRIES = _names("United-States", "Mexico", "Philippines", "Germany",
                    "Canada", "Puerto-Rico", "India", "England", "Cuba",
                    "China")
_COUNTRY_P = (0.90, 0.03, 0.015, 0.01, 0.01, 0.01, 0.01, 0.005, 0.005, 0.005)

#: marital group index: 0 = married, 1 = formerly married, 2 = never married.
_MARITAL_GROUP_P = {0: (0.34, 0.26, 0.40), 1: (0.78, 0.12, 0.10)}
#: marital status by (marital group, code); None pads the shorter rows.
_MARITAL = _names(
    ("Married-civ-spouse", "Married-AF-spouse", "Married-spouse-absent"),
    ("Divorced", "Separated", "Widowed"),
    ("Never-married", None, None))
_MARITAL_P = {0: (0.92, 0.01, 0.07), 1: (0.60, 0.15, 0.25), 2: (1.0,)}
#: relationship by (marital group, code); a married row's code is its male
#: flag. None pads the shorter row.
_RELATIONSHIP = _names(
    ("Wife", "Husband", None, None),
    ("Not-in-family", "Unmarried", "Other-relative", "Own-child"),
    ("Own-child", "Not-in-family", "Unmarried", "Other-relative"))
_RELATIONSHIP_P = {1: (0.45, 0.40, 0.08, 0.07), 2: (0.42, 0.38, 0.12, 0.08)}

_SEX = _names("Female", "Male")
_INCOME = _names("<=50K", ">50K")


def _normalized(probs) -> np.ndarray:
    p = np.asarray(probs, dtype=float)
    return p / p.sum()


def _codes(rng, probs, size: int) -> np.ndarray:
    """``size`` category codes drawn with weights ``probs``. choice over a
    sequence of names samples these same codes, so this consumes the
    generator exactly as drawing the names would."""
    return rng.choice(len(probs), size=size, p=_normalized(probs))


def _grouped_codes(rng, groups: np.ndarray, probs_by_group: dict) -> np.ndarray:
    """One category code per row, drawn with the weights of that row's
    group. Groups draw in ascending id order for determinism; rows of a
    group without weights keep code 0."""
    codes = np.zeros(groups.shape[0], dtype=np.intp)
    for gid in sorted(probs_by_group):
        mask = groups == gid
        if mask.any():
            codes[mask] = _codes(rng, probs_by_group[gid], int(mask.sum()))
    return codes


def write_adult_like_csv(path, seed: int, n_rows: int,
                         missing_rate: float = 0.01) -> None:
    """Write a census-style CSV with planted structure.

    Income drives education, hours, capital gains, and occupation; marital
    group drives age and relationship and is itself correlated with income.
    That entanglement is what makes income classifiers leak marital status
    unless a method is explicitly told to suppress it. A small fraction of
    rows gets an empty workclass or occupation so loaders must exercise
    their missing-value policy.
    """
    if n_rows < 1:
        raise InputError(f"n_rows must be >= 1, got {n_rows}")
    if not 0.0 <= missing_rate < 1.0:
        raise InputError(f"missing_rate must be in [0, 1), got {missing_rate}")
    rng = rng_from(seed, "adult-like")
    n = int(n_rows)

    income = (rng.random(n) < 0.45).astype(int)
    marital_group = _grouped_codes(rng, income, _MARITAL_GROUP_P)
    male = rng.random(n) < np.where(income == 1, 0.72, 0.46)

    age_base = np.array([44.0, 51.0, 27.0])[marital_group]
    age = np.clip(np.rint(age_base + 6.0 * income + rng.normal(0, 9, n)),
                  17, 90).astype(int)
    edu_num = np.clip(np.rint(9.0 + 2.6 * income + rng.normal(0, 2.3, n)),
                      1, 16).astype(int)
    hours = np.clip(np.rint(38.0 + 7.0 * income + rng.normal(0, 9, n)),
                    1, 99).astype(int)
    fnlwgt = np.clip(np.rint(np.exp(rng.normal(11.8, 0.65, n))),
                     10000, 1500000).astype(int)
    gain_hit = rng.random(n) < np.where(income == 1, 0.16, 0.02)
    gain_amount = np.rint(np.exp(rng.normal(8.7, 0.9, n))).astype(int)
    capital_gain = np.where(gain_hit, np.clip(gain_amount, 100, 99999), 0)
    loss_hit = (rng.random(n) < 0.05) & ~gain_hit
    loss_amount = np.clip(np.rint(rng.normal(1900, 300, n)), 100,
                          4356).astype(int)
    capital_loss = np.where(loss_hit, loss_amount, 0)

    workclass = _WORKCLASS[_grouped_codes(rng, income, _WORKCLASS_P)]
    occupation = _OCCUPATION[_grouped_codes(rng, income, _OCCUPATION_P)]
    race = _RACE[_codes(rng, _RACE_P, n)]
    country = _COUNTRIES[_codes(rng, _COUNTRY_P, n)]

    marital = _MARITAL[marital_group,
                       _grouped_codes(rng, marital_group, _MARITAL_P)]
    relationship_code = _grouped_codes(rng, marital_group, _RELATIONSHIP_P)
    married = marital_group == 0
    relationship_code[married] = male[married]
    relationship = _RELATIONSHIP[marital_group, relationship_code]

    workclass[rng.random(n) < missing_rate] = ""
    occupation[rng.random(n) < missing_rate] = ""

    columns = (age, workclass, fnlwgt, _EDUCATION[edu_num - 1], edu_num,
               marital, occupation, relationship, race,
               _SEX[male.astype(np.intp)], capital_gain, capital_loss, hours,
               country, _INCOME[income])
    # No field holds a comma, quote or line break, so this is the text a
    # csv writer would emit: no field needs quoting.
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(dataio.ADULT_COLUMNS) + "\n")
        for lo in range(0, n, dataio.BLOCK_ROWS):
            block = [col[lo:lo + dataio.BLOCK_ROWS].tolist() for col in columns]
            block = [cells if col.dtype == object else list(map(str, cells))
                     for col, cells in zip(columns, block)]
            fh.write("\n".join(map(",".join, zip(*block))) + "\n")
