"""Shared generators for labeled synthetic datasets used across test modules."""

import numpy as np

from privproj.data import Dataset, LabelSet
from privproj.errors import NoConvergence


def class_assignment(rng, n, c):
    """Random labels over n samples guaranteed to hit every class in 0..c-1."""
    labels = np.concatenate([np.arange(c), rng.integers(0, c, n - c)])
    rng.shuffle(labels)
    return labels


def census_shaped(rng, n):
    """29 features like the census FULL baseline: 0/1 bits, an age and a
    sampling weight that dominates the distances."""
    x = rng.integers(0, 2, size=(29, n)).astype(float)
    x[0] = rng.integers(17, 91, n)
    x[1] = rng.integers(10_000, 1_500_000, n)
    return x


def separated_instance(seed, m=8, n=120, c_u=2, c_p=3, sep_u=6.0, sep_p=4.0,
                       noise=1.0):
    """Dataset whose utility and privacy labelings both have strong
    between-class structure: sample = utility-class mean + privacy-class
    mean + isotropic noise."""
    rng = np.random.default_rng(seed)
    u_labels = class_assignment(rng, n, c_u)
    p_labels = class_assignment(rng, n, c_p)
    u_means = sep_u * rng.standard_normal((m, c_u))
    p_means = sep_p * rng.standard_normal((m, c_p))
    x = u_means[:, u_labels] + p_means[:, p_labels] + noise * rng.standard_normal((m, n))
    return Dataset(x), LabelSet(u_labels, c_u), LabelSet(p_labels, c_p)


def failing_solver(solve, poisoned):
    """A stand-in for `linalg.sym_eig`: it raises NoConvergence for a matrix,
    or a stack holding a matrix, equal to one in the list `poisoned`, and
    `solve` solves every other call. The list may grow while it is in use."""
    def sym_eig(a):
        members = np.reshape(a, (-1, *np.shape(a)[-2:]))
        if any(np.array_equal(member, bad)
               for member in members for bad in poisoned):
            raise NoConvergence("stand-in solver failed")
        return solve(a)
    return sym_eig
