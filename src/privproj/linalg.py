"""Dense symmetric linear algebra: Cholesky, Jacobi eigensolver, pencils.

Self-contained solvers. The eigensolver is cyclic Jacobi, whose time grows
steeply with the dimension: on 2 vCPUs one matrix takes about 11-17 ms at
m = 29, 3 s at m = 200 and 141 s at m = 561. Outside this module only the
stacked pencil solve (`projections._solve_stacked`), whose bits the
benchmark digests pin, calls it. Jacobi runs a round-robin ordering;
rotations within a round touch disjoint index pairs, so each round is
applied as one vectorized block. `sym_eig` takes one matrix or a (B, m, m)
stack, the form `np.linalg.eigh` takes: each round is applied to every
matrix of the stack at once, a matrix leaves the stack as soon as it has
converged, and a rotation whose pivot entry is exactly zero is skipped in
that matrix alone. Every entry of every matrix therefore goes through the
same IEEE operations as when it is solved alone, so a stacked solve is
bit-identical to one solve per matrix. A single matrix is a stack of one.
The sweep cap is the module constant MAX_SWEEPS, so `sym_eig(a)` takes
the arguments `np.linalg.eigh` takes.
PCA and every discriminant method reduce to the symmetric-definite
generalized eigenproblem solved here.

All tolerances are relative to the max-norm (largest absolute entry) of the
input (of each matrix, in a stack) and are part of the public contract.
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

    values: np.ndarray   # (k,), or (B, k) for a stack
    vectors: np.ndarray  # (m, k), or (B, m, k) for a stack


def max_norm(a: np.ndarray) -> float:
    """Largest absolute entry; 0.0 for an empty array."""
    return float(np.max(np.abs(a))) if a.size else 0.0


def symmetrize(a: np.ndarray) -> np.ndarray:
    """Exactly symmetric average (a + a.T) / 2."""
    return (a + a.T) * 0.5


def check_symmetric(a: np.ndarray, name: str, stacked: bool = False) -> np.ndarray:
    """`a` as a float array after checking that it is an exactly symmetric,
    finite square matrix (with `stacked`, a (B, m, m) stack of them)."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 + stacked or a.shape[-1] != a.shape[-2] or a.shape[-1] < 1:
        what = "stack of square matrices" if stacked else "square matrix"
        raise InputError(f"{name} must be a {what}, got shape {a.shape}")
    if not np.array_equal(a, np.swapaxes(a, -1, -2)):
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
    b = check_symmetric(b, "b")
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


def _apply_round(work: np.ndarray, ps: np.ndarray, qs: np.ndarray) -> None:
    # One block of disjoint Jacobi rotations on each matrix of the stack.
    # work is (B, 2n, n): rows :n hold A, rows n: hold V, so one column
    # update serves both A <- A J and V <- V J; the row update A <- J.T A
    # touches the A rows only. Rotation (p, q) of matrix b runs only where
    # A_b[p, q] != 0: a skipped rotation is not applied as an identity,
    # which could flip the sign of a zero.
    bs, js = np.nonzero(work[:, ps, qs])
    if not bs.size:
        return
    ps, qs = ps[js], qs[js]
    apq = work[bs, ps, qs]
    app = work[bs, ps, ps]
    aqq = work[bs, qs, qs]
    # Overflow past |theta| ~ 1.3e154 is harmless: t is then 0 (true t < 4e-155).
    with np.errstate(over="ignore"):
        theta = (aqq - app) / (2.0 * apq)
        t = np.where(theta >= 0.0, 1.0, -1.0) / (np.abs(theta) + np.sqrt(theta * theta + 1.0))
        c = 1.0 / np.sqrt(t * t + 1.0)
        s = t * c
    c_col, s_col = c[:, None], s[:, None]

    cols_p = work[bs, :, ps]
    cols_q = work[bs, :, qs]
    work[bs, :, ps] = cols_p * c_col - cols_q * s_col
    work[bs, :, qs] = cols_p * s_col + cols_q * c_col
    rows_p = work[bs, ps, :]
    rows_q = work[bs, qs, :]
    work[bs, ps, :] = rows_p * c_col - rows_q * s_col
    work[bs, qs, :] = rows_p * s_col + rows_q * c_col
    # Closed forms for the pivot entries beat the generic update's rounding.
    work[bs, ps, ps] = app - t * apq
    work[bs, qs, qs] = aqq + t * apq
    work[bs, ps, qs] = 0.0
    work[bs, qs, ps] = 0.0


def _max_offdiag(a: np.ndarray) -> np.ndarray:
    # Largest off-diagonal magnitude of each matrix of a (B, n, n) stack.
    m = np.abs(a)
    diag = np.arange(a.shape[-1])
    m[:, diag, diag] = 0.0
    return m.max(axis=(1, 2))


def _sign_normalize(vectors: np.ndarray) -> np.ndarray:
    # Largest-magnitude entry of each column made positive; argmax takes the
    # lowest index on ties. Works on one (m, k) matrix or a (B, m, k) stack.
    idx = np.argmax(np.abs(vectors), axis=-2)
    lead = np.take_along_axis(vectors, idx[..., None, :], axis=-2)
    return vectors * np.where(lead < 0.0, -1.0, 1.0)


def sym_eig(a: np.ndarray) -> EigenPairs:
    """Full eigendecomposition of a symmetric matrix by cyclic Jacobi.

    `a` is one (m, m) matrix or a (B, m, m) stack; for a stack the result
    holds (B, m) values and (B, m, m) vectors, each matrix's pairs
    bit-identical to solving it alone. A matrix has converged when its
    largest off-diagonal magnitude is at most 1e-14 * its max_norm; raises
    NoConvergence when any matrix needs more than MAX_SWEEPS full sweeps.
    """
    a = np.asarray(a, dtype=float)
    single = a.ndim != 3
    stack = check_symmetric(a, "a", stacked=not single)
    if single:
        stack = stack[None]
    n = stack.shape[-1]
    tol = JACOBI_RTOL * np.abs(stack).max(axis=(1, 2))
    work = np.concatenate([stack, np.broadcast_to(np.eye(n), stack.shape)], axis=1)
    rounds = _rotation_rounds(n)
    live = np.arange(stack.shape[0])
    sweeps = 0
    while True:
        live = live[_max_offdiag(work[live, :n]) > tol[live]]
        if not live.size:
            break
        if sweeps >= MAX_SWEEPS:
            raise NoConvergence(f"Jacobi did not converge in {MAX_SWEEPS} sweeps (dim {n})")
        block = work[live]
        for ps, qs in rounds:
            _apply_round(block, ps, qs)
        work[live] = block
        sweeps += 1
    values = np.diagonal(work[:, :n], axis1=1, axis2=2)
    order = np.argsort(-values, axis=1, kind="stable")
    values = np.take_along_axis(values, order, axis=1)
    vectors = np.take_along_axis(work[:, n:], order[:, None, :], axis=2)
    # Each matrix's vectors are stored column-major, as a column gather of
    # one matrix stores them: the BLAS products downstream (back
    # substitution, projection) follow the layout in their last bits.
    vectors = np.ascontiguousarray(vectors.transpose(0, 2, 1)).transpose(0, 2, 1)
    vectors = _sign_normalize(vectors)
    if single:
        return EigenPairs(values=values[0], vectors=vectors[0])
    return EigenPairs(values=values, vectors=vectors)


def reduce_pencil(lower: np.ndarray, a: np.ndarray) -> np.ndarray:
    """L^-1 a L^-T, made exactly symmetric, for the Cholesky factor L of a
    pencil's denominator: its eigenvalues are the pencil's."""
    half = solve_lower(lower, a)
    return symmetrize(solve_lower(lower, half.T).T)


def back_substitute(lower: np.ndarray, pairs: EigenPairs, k: int) -> EigenPairs:
    """Top-k pencil pairs from the pairs of its reduced matrix: w = L^-T v,
    sign-normalized. Solves for the k columns alone; the first k columns of
    an m-column solve may differ in the last bits."""
    w = solve_lower_transpose(lower, pairs.vectors[:, :k])
    return EigenPairs(values=pairs.values[:k].copy(), vectors=_sign_normalize(w))


def generalized_eig(a: np.ndarray, b: np.ndarray, k: int) -> EigenPairs:
    """Top-k pairs of the symmetric-definite pencil a @ w = lambda * b @ w.

    Reduction: b = L L.T, standard eigendecomposition of L^-1 a L^-T,
    back-substitution w = L^-T v. Returned columns are b-orthonormal
    (w_i.T @ b @ w_j == delta_ij) and sign-normalized.
    """
    a = check_symmetric(a, "a")
    n = a.shape[0]
    if not 1 <= k <= n:
        raise InvalidK(f"k={k} out of range for dim {n}")
    lower = cholesky(b)
    if lower.shape[0] != n:
        raise InputError(f"a has dim {n} but b has dim {lower.shape[0]}")
    return back_substitute(lower, sym_eig(reduce_pencil(lower, a)), k)
