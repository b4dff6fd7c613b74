"""Dense symmetric linear algebra: Cholesky, Jacobi eigensolver, pencils.

Self-contained solvers sized for feature dimensions up to a few hundred.
The eigensolver is cyclic Jacobi under a round-robin rotation ordering;
rotations within a round touch disjoint index pairs, so each round is
applied as one vectorized block. Every projection method in the package
reduces to the symmetric-definite generalized eigenproblem solved here.

All tolerances are relative to the max-norm (largest absolute entry) of the
input and are part of the public contract.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from privproj.errors import InputError, InvalidK, NoConvergence, NotPositiveDefinite

__all__ = ["EigenPairs", "sym_eig", "generalized_eig"]

# Positive-definiteness pivot threshold: dim * PIVOT_RTOL * max_norm(b).
PIVOT_RTOL = 1e-14
# Jacobi convergence: max off-diagonal magnitude <= JACOBI_RTOL * max_norm(a).
JACOBI_RTOL = 1e-14
MAX_SWEEPS = 100


@dataclass(frozen=True)
class EigenPairs:
    """Eigenvalues sorted descending with column-paired eigenvectors.

    Each vector column is sign-normalized: its largest-magnitude entry is
    positive, ties resolved to the lowest index. Ties in the eigenvalue sort
    keep the pre-sort order (stable sort), making outputs deterministic.
    """

    values: np.ndarray   # (k,)
    vectors: np.ndarray  # (m, k)


def max_norm(a: np.ndarray) -> float:
    """Largest absolute entry; 0.0 for an empty array."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Exactly symmetric average (a + a.T) / 2."""
    return (a + a.T) * 0.5


def _check_symmetric(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise InputError(f"{name} must be a square matrix, got shape {a.shape}")
    if not np.array_equal(a, a.T):
        raise InputError(f"{name} must be exactly symmetric; use symmetrize() first")
    if not np.isfinite(a).all():
        raise InputError(f"{name} contains non-finite entries")
    return a


def cholesky(b: np.ndarray) -> np.ndarray:
    """Lower-triangular L with L @ L.T == b for symmetric positive definite b.

    Raises NotPositiveDefinite when a pivot falls to or below
    dim * 1e-14 * max_norm(b); that signals the caller to increase the
    ridge on the pencil denominator.
    """
    b = _check_symmetric(b, "b")
    n = b.shape[0]
    threshold = n * PIVOT_RTOL * max_norm(b)
    lower = np.zeros_like(b)
    for j in range(n):
        pivot = b[j, j] - lower[j, :j] @ lower[j, :j]
        if pivot <= threshold:
            raise NotPositiveDefinite(
                f"pivot {pivot:.3e} at column {j} is <= threshold {threshold:.3e}; "
                "matrix is not positive definite at working precision"
            )
        ljj = np.sqrt(pivot)
        lower[j, j] = ljj
        if j + 1 < n:
            lower[j + 1:, j] = (b[j + 1:, j] - lower[j + 1:, :j] @ lower[j, :j]) / ljj
    return lower


def solve_lower(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Forward substitution for L @ x = rhs; rhs may be a vector or matrix."""
    n = lower.shape[0]
    x = np.array(rhs, dtype=float, copy=True)
    for i in range(n):
        x[i] -= lower[i, :i] @ x[:i]
        x[i] /= lower[i, i]
    return x


def solve_lower_transpose(lower: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Back substitution for L.T @ x = rhs; rhs may be a vector or matrix."""
    n = lower.shape[0]
    x = np.array(rhs, dtype=float, copy=True)
    for i in range(n - 1, -1, -1):
        x[i] -= lower[i + 1:, i] @ x[i + 1:]
        x[i] /= lower[i, i]
    return x


@functools.cache
def _rotation_rounds(n: int) -> list[tuple[np.ndarray, np.ndarray]]:
    # Round-robin (circle method) schedule: every index pair appears exactly
    # once per sweep, pairs within a round are disjoint.
    players = list(range(n)) + ([-1] if n % 2 else [])
    m = len(players)
    rest = players[1:]
    rounds = []
    for r in range(m - 1):
        line = [players[0]] + rest[r:] + rest[:r]
        ps, qs = [], []
        for i in range(m // 2):
            x, y = line[i], line[m - 1 - i]
            if x < 0 or y < 0:
                continue
            ps.append(min(x, y))
            qs.append(max(x, y))
        if ps:
            rounds.append((np.asarray(ps), np.asarray(qs)))
    return rounds


def _apply_round(a: np.ndarray, v: np.ndarray, ps: np.ndarray, qs: np.ndarray) -> None:
    # One block of disjoint Jacobi rotations, two-sided: A <- J.T A J, V <- V J.
    apq = a[ps, qs]
    active = apq != 0.0
    if not active.any():
        return
    ps, qs, apq = ps[active], qs[active], apq[active]
    app = a[ps, ps]
    aqq = a[qs, qs]
    theta = (aqq - app) / (2.0 * apq)
    t = np.where(theta >= 0.0, 1.0, -1.0) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
    c = 1.0 / np.sqrt(t * t + 1.0)
    s = t * c

    cols_p = a[:, ps]
    cols_q = a[:, qs]
    a[:, ps] = cols_p * c - cols_q * s
    a[:, qs] = cols_p * s + cols_q * c
    rows_p = a[ps, :]
    rows_q = a[qs, :]
    a[ps, :] = rows_p * c[:, None] - rows_q * s[:, None]
    a[qs, :] = rows_p * s[:, None] + rows_q * c[:, None]
    # Closed forms for the pivot entries beat the generic update's rounding.
    a[ps, ps] = app - t * apq
    a[qs, qs] = aqq + t * apq
    a[ps, qs] = 0.0
    a[qs, ps] = 0.0

    vec_p = v[:, ps]
    vec_q = v[:, qs]
    v[:, ps] = vec_p * c - vec_q * s
    v[:, qs] = vec_p * s + vec_q * c


def _max_offdiag(a: np.ndarray) -> float:
    m = np.abs(a)
    np.fill_diagonal(m, 0.0)
    return float(m.max())


def _sign_normalize(vectors: np.ndarray) -> np.ndarray:
    # Largest-magnitude entry of each column made positive; argmax takes the
    # lowest index on ties.
    idx = np.argmax(np.abs(vectors), axis=0)
    lead = vectors[idx, np.arange(vectors.shape[1])]
    return vectors * np.where(lead < 0.0, -1.0, 1.0)


def sym_eig(a: np.ndarray, max_sweeps: int = MAX_SWEEPS) -> EigenPairs:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi.

    Converged when the largest off-diagonal magnitude is at most
    1e-14 * max_norm(a); raises NoConvergence after `max_sweeps` full sweeps.
    """
    a = _check_symmetric(a, "a")
    n = a.shape[0]
    tol = JACOBI_RTOL * max_norm(a)
    work = a.copy()
    vectors = np.eye(n)
    rounds = _rotation_rounds(n)
    sweeps = 0
    while _max_offdiag(work) > tol:
        if sweeps >= max_sweeps:
            raise NoConvergence(f"Jacobi did not converge in {max_sweeps} sweeps (dim {n})")
        for ps, qs in rounds:
            _apply_round(work, vectors, ps, qs)
        sweeps += 1
    values = np.diag(work).copy()
    order = np.argsort(-values, kind="stable")
    return EigenPairs(values=values[order], vectors=_sign_normalize(vectors[:, order]))


def generalized_eig(a: np.ndarray, b: np.ndarray, k: int) -> EigenPairs:
    """Top-k pairs of the symmetric-definite pencil a @ w = lambda * b @ w.

    Reduction: b = L L.T, standard eigendecomposition of L^-1 a L^-T,
    back-substitution w = L^-T v. Returned columns are b-orthonormal
    (w_i.T @ b @ w_j == delta_ij) and sign-normalized.
    """
    a = _check_symmetric(a, "a")
    n = a.shape[0]
    if not 1 <= k <= n:
        raise InvalidK(f"k={k} out of range for dim {n}")
    lower = cholesky(b)
    if lower.shape[0] != n:
        raise InputError(f"a has dim {n} but b has dim {lower.shape[0]}")
    half = solve_lower(lower, a)
    reduced = symmetrize(solve_lower(lower, half.T).T)
    pairs = sym_eig(reduced)
    w = solve_lower_transpose(lower, pairs.vectors[:, :k])
    return EigenPairs(values=pairs.values[:k].copy(), vectors=_sign_normalize(w))
