"""Dense linear algebra over GF(q) on integer index matrices.

Matrices are numpy int64 arrays of element indices; all row operations go
through the field's lookup tables, so elimination stays vectorized.
"""

from __future__ import annotations

import numpy as np

from .gf import GF


def _as_matrix(mat, gf: GF) -> np.ndarray:
    M = np.asarray(mat, dtype=np.int64)
    if M.ndim != 2:
        raise ValueError(f"expected a 2-d matrix, got shape {M.shape}")
    if M.size and (M.min() < 0 or M.max() >= gf.q):
        raise ValueError(f"matrix entries must be element indices in [0, {gf.q})")
    return M.copy()


def rref(mat, gf: GF) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form.

    Returns (R, pivot_cols) where R has one row per pivot (zero rows are
    dropped) and pivot_cols lists the pivot column of each row in order.
    """
    R = _as_matrix(mat, gf)
    rows, cols = R.shape
    add, mul = gf.add_table, gf.mul_table
    inv, neg = gf.inv_table, gf.neg_table
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = np.nonzero(R[r:, c])[0]
        if len(hits) == 0:
            continue
        piv = r + int(hits[0])
        if piv != r:
            R[[r, piv]] = R[[piv, r]]
        R[r] = mul[int(inv[R[r, c]]), R[r]]
        others = np.nonzero(R[:, c])[0]
        others = others[others != r]
        if len(others):
            factors = neg[R[others, c]]
            R[others] = add[R[others], mul[factors[:, None], R[r][None, :]]]
        pivots.append(c)
        r += 1
    return R[:r], pivots


def rank(mat, gf: GF) -> int:
    _, pivots = rref(mat, gf)
    return len(pivots)


def null_space(mat, gf: GF) -> np.ndarray:
    """A basis for {v : mat @ v = 0 over GF(q)}, one vector per row.

    Rows are emitted in ascending order of their free column, each with a 1
    in that column, so the basis is deterministic.
    """
    M = np.asarray(mat, dtype=np.int64)
    cols = M.shape[1]
    R, pivots = rref(M, gf)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = gf.neg_table[R[:, free]].T
    return basis


def mat_vec(mat, vec, gf: GF) -> np.ndarray:
    """mat @ vec over GF(q); mat is (r, c), vec length c."""
    M = np.asarray(mat, dtype=np.int64)
    v = np.asarray(vec, dtype=np.int64)
    if M.shape[1] != v.shape[0]:
        raise ValueError(f"shape mismatch: {M.shape} @ {v.shape}")
    acc = np.zeros(M.shape[0], dtype=np.int64)
    add, mul = gf.add_table, gf.mul_table
    for j in range(M.shape[1]):
        if v[j]:
            acc = add[acc, mul[M[:, j], int(v[j])]]
    return acc


def mat_mul(a, b, gf: GF) -> np.ndarray:
    """a @ b over GF(q)."""
    A = np.asarray(a, dtype=np.int64)
    B = np.asarray(b, dtype=np.int64)
    if A.shape[1] != B.shape[0]:
        raise ValueError(f"shape mismatch: {A.shape} @ {B.shape}")
    add, mul = gf.add_table, gf.mul_table
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for k in range(A.shape[1]):
        col = A[:, k]
        row = B[k]
        if not col.any() or not row.any():
            continue
        out = add[out, mul[col[:, None], row[None, :]]]
    return out


def span(rows, gf: GF) -> np.ndarray:
    """Every linear combination of the rows, one word per row of the result.

    The coefficient of the first row varies fastest: the word for
    coefficients (l_0, ..., l_{k-1}) is at index sum(l_i * q**i).
    """
    R = np.asarray(rows, dtype=np.int64)
    add, mul = gf.add_table, gf.mul_table
    words = np.zeros((1, R.shape[1]), dtype=np.int64)
    for row in R:
        words = np.concatenate([add[words, mul[lam, row][None, :]]
                                for lam in range(gf.q)], axis=0)
    return words


def min_weight(words) -> int:
    """The least Hamming weight among the nonzero words (rows)."""
    weights = np.count_nonzero(words, axis=1)
    nonzero = weights[weights > 0]
    if len(nonzero) == 0:
        raise ValueError("no nonzero word to take the weight of")
    return int(nonzero.min())
