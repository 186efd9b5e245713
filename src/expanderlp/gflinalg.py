"""Dense linear algebra over GF(q) on integer index matrices.

Matrices are numpy int64 arrays of element indices.  rref, and so rank and
null_space, checks its input with gf.check_word; mat_mul and mat_vec, on
the hot path, do not.  The field picks the arithmetic once per call: prime
fields work on the residues with integer products taken mod p, and
extension fields use the add and multiply tables.
Elimination updates only the rows that are nonzero in the pivot column, and
in them only the pivot row's nonzero columns.
"""

from __future__ import annotations

import numpy as np

from .gf import GF, check_word


def _add_multiple(gf: GF):
    """f(block, factor, row) = block + factor[:, None] * row over GF(q)."""
    mul = gf.mul_table
    if gf.m == 1:
        p = gf.p
        return lambda block, factor, row: (block + factor[:, None] * row) % p
    add = gf.add_table
    return lambda block, factor, row: add[block, mul[factor[:, None], row]]


def rref(mat, gf: GF) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form.

    Returns (R, pivot_cols) where R has one row per pivot (zero rows are
    dropped) and pivot_cols lists the pivot column of each row in order.
    """
    R = check_word(mat, gf.q, (None, None)).copy()
    rows, cols = R.shape
    add_multiple = _add_multiple(gf)
    mul, inv, neg = gf.mul_table, gf.inv_table, gf.neg_table
    pivots: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        hits = R[:, c].nonzero()[0]
        k = hits.searchsorted(r)
        if k == len(hits):
            continue
        piv = hits[k]
        if piv != r:
            # row piv takes the old row r, which is zero at c (piv is the first
            # hit from r on), so hits stays the sorted rows nonzero at c
            row = R[r].copy()
            R[r] = R[piv]
            R[piv] = row
            hits[k] = r
        # rows r.. are zero left of c, so the pivot row's support starts at c
        support = c + R[r, c:].nonzero()[0]
        prow = R[r, support]
        if prow[0] != 1:
            prow = mul[inv[prow[0]], prow]
            R[r, support] = prow
        if len(hits) > 1:
            # the pivot row is cleared with the others, then written back
            block = hits[:, None], support
            values = R[block]
            R[block] = add_multiple(values, neg[values[:, 0]], prow)
            R[r, support] = prow
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
    return kernel_of_rref(*rref(mat, gf), gf)[0]


def kernel_of_rref(R: np.ndarray, pivots: list[int], gf: GF) -> tuple[np.ndarray, np.ndarray]:
    """The null space basis of a matrix from its `rref` (R, pivots), and its
    free columns: row i is 1 at free column i, 0 at the other free columns,
    and minus R's free column i at the pivots."""
    is_free = np.ones(R.shape[1], dtype=bool)
    is_free[pivots] = False
    free = is_free.nonzero()[0]
    basis = np.zeros((len(free), R.shape[1]), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = gf.neg_table[R[:, free]].T
    return basis, free


def mat_vec(mat, vec, gf: GF) -> np.ndarray:
    """mat @ vec over GF(q); mat is (r, c), vec length c.

    Entries must be element indices in [0, q); they are not checked.
    """
    M = np.asarray(mat, dtype=np.int64)
    v = np.asarray(vec, dtype=np.int64)
    if M.shape[1] != v.shape[0]:
        raise ValueError(f"shape mismatch: {M.shape} @ {v.shape}")
    return mat_mul(M, v[:, None], gf)[:, 0]


def mat_mul(a, b, gf: GF) -> np.ndarray:
    """a @ b over GF(q), on matrices or on stacks of them, broadcast as
    np.matmul broadcasts them.

    Entries must be element indices in [0, q); they are not checked here,
    since callers such as ``ExpanderCode.is_codeword`` validate their words.
    """
    A = np.asarray(a, dtype=np.int64)
    B = np.asarray(b, dtype=np.int64)
    if A.ndim < 2 or B.ndim < 2 or A.shape[-1] != B.shape[-2]:
        raise ValueError(f"shape mismatch: {A.shape} @ {B.shape}")
    if gf.m == 1:
        # entries are below p < 256, so no int64 sum of products overflows
        return A @ B % gf.p
    add, mul = gf.add_table, gf.mul_table
    out = np.zeros(np.broadcast_shapes(A.shape[:-2], B.shape[:-2])
                   + (A.shape[-2], B.shape[-1]), dtype=np.int64)
    for k in range(A.shape[-1]):
        col = A[..., :, k, None]
        row = B[..., None, k, :]
        if not col.any() or not row.any():
            continue
        out = add[out, mul[col, row]]
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
