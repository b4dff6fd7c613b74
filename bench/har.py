"""HAR-shaped synthetic data: smartphone activity recognition stand-in.

Samples carry two labelings: the activity (6 classes, the utility task)
and the subject who performed it (30 classes, the privacy task). Features
come in correlated sensor blocks: every block shares one latent "sensor
gain" factor per sample, so features inside a block move together, as
the time- and frequency-domain statistics of one sensor axis do.

Class structure (activity means, subject offsets, block loadings) is
drawn once from a stream shared by train and test; only the per-sample
draws differ between the two sides. Drawing the means separately for each
side would give the test set unrelated classes and chance-level accuracy.
"""

from __future__ import annotations

import numpy as np

from privproj.data import Dataset, LabelSet
from privproj.experiment import DataBundle
from privproj.seeds import rng_from

N_ACTIVITIES = 6
N_SUBJECTS = 30
BLOCK_SIZE = 16

# Signal levels relative to unit per-feature noise. They keep the
# full-dimensional KNN rows well above chance (1/6 and 1/30) and below 1.0.
ACTIVITY_SIGNAL = 0.30
SUBJECT_SIGNAL = 0.5
BLOCK_LOADING = 1.5


def har_bundle(seed: int, m: int, n_train: int, n_test: int) -> DataBundle:
    """Train/test bundle of `m` features; utility = activity, privacy = subject."""
    shared = rng_from(seed, "har", "structure")
    activity_means = ACTIVITY_SIGNAL * shared.standard_normal((m, N_ACTIVITIES))
    subject_offsets = SUBJECT_SIGNAL * shared.standard_normal((m, N_SUBJECTS))
    block_of = np.arange(m) // BLOCK_SIZE
    loadings = BLOCK_LOADING * shared.uniform(0.5, 1.0, m)

    def side(tag: str, n: int):
        rng = rng_from(seed, "har", tag)
        # Every (activity, subject) pair appears; the cycle keeps classes
        # balanced and the permutation keeps sample order uninformative.
        cycle = np.arange(n)
        order = rng.permutation(n)
        activity = (cycle % N_ACTIVITIES)[order]
        subject = (cycle // N_ACTIVITIES % N_SUBJECTS)[order]
        latent = rng.standard_normal((block_of[-1] + 1, n))
        x = (activity_means[:, activity] + subject_offsets[:, subject]
             + loadings[:, None] * latent[block_of]
             + rng.standard_normal((m, n)))
        return (Dataset(x), LabelSet(activity, N_ACTIVITIES),
                LabelSet(subject, N_SUBJECTS))

    train, train_u, train_p = side("train", n_train)
    test, test_u, test_p = side("test", n_test)
    return DataBundle(train=train, train_utility=train_u,
                      train_privacy=(train_p,), test=test,
                      test_utility=test_u, test_privacy=(test_p,),
                      privacy_names=("subject",))
