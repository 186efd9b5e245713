"""Independent reference implementations used to cross-check the package.

Everything in here is deliberately written the slow, obvious way --
exhaustive enumeration, closed-form eigenvalues, brute force over all
orientations -- so that agreement with the fast code under test means
something.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from expanderlp.errors import NumericError
from expanderlp.lp_core import _PIVOT_TOL


def lp_optimum_by_enumeration(objective, eq_coeffs, eq_rhs, tol=1e-9):
    """Maximize objective over {x >= 0 : Ax = b} by trying every basis.

    Returns (status, best_value) where status is "optimal" or "infeasible".
    The feasible region must be bounded (the caller guarantees it); with a
    bounded nonempty region the optimum is attained at a basic feasible
    solution, so scanning all column subsets of size rank(A) finds it.
    """
    a = np.asarray(eq_coeffs, dtype=np.float64)
    b = np.asarray(eq_rhs, dtype=np.float64)
    c = np.asarray(objective, dtype=np.float64)
    m, n = a.shape
    best = None
    for cols in itertools.combinations(range(n), min(m, n)):
        sub = a[:, cols]
        x_sub = np.linalg.lstsq(sub, b, rcond=None)[0]
        if np.linalg.norm(sub @ x_sub - b) > tol * (1.0 + np.linalg.norm(b)):
            continue
        if x_sub.min(initial=0.0) < -tol:
            continue
        x = np.zeros(n)
        x[list(cols)] = x_sub
        value = float(c @ x)
        if best is None or value > best:
            best = value
    if best is None:
        return "infeasible", None
    return "optimal", best


def orientation_exists_brute_force(graph, edges, cap_a, cap_b):
    """Try all 2^|edges| head assignments; True iff some one fits the caps."""
    edges = sorted(edges)
    k = len(edges)
    for mask in range(1 << k):
        indeg = {}
        ok = True
        for bit, e in enumerate(edges):
            if (mask >> bit) & 1:
                head = ("a", int(graph.a_of[e]))
                cap = cap_a
            else:
                head = ("b", int(graph.b_of[e]))
                cap = cap_b
            indeg[head] = indeg.get(head, 0) + 1
            if indeg[head] > cap:
                ok = False
                break
        if ok:
            return True
    return False


def complete_bipartite_gamma(n):
    """K_{n,n} adjacency spectrum is {n, -n, 0^(2n-2)}: second eigenvalue 0."""
    return 0.0


def cycle_gamma(n):
    """The 2n-cycle's largest nontrivial adjacency eigenvalue is 2cos(pi/n)."""
    return abs(2.0 * math.cos(math.pi / n)) / 2.0


def nearest_codeword_scan(code, y):
    """Distance to the nearest codeword, counting how many attain it."""
    y = np.asarray(y, dtype=np.int64)
    best = None
    count = 0
    for word in code.enumerate_codewords():
        d = int(np.count_nonzero(word != y))
        if best is None or d < best:
            best = d
            count = 1
        elif d == best:
            count += 1
    return best, count


# -- simplex pivot rules, the plain way ---------------------------------------
# Drop-in replacements for expanderlp.lp_core._Tableau.pivot and ._leaving
# (bind them with monkeypatch.setattr on the class).  The solver's versions
# must take exactly the same pivots and produce equal tableaux.

def pivot_dense(self, row, col):
    """_Tableau.pivot as one full outer-product update of the whole tableau."""
    T = self.T
    piv_row = T[row] / T[row, col]
    body_col = T[:, col].copy()
    T -= np.outer(body_col, piv_row)
    T[row] = piv_row
    T[:, col] = 0.0
    T[row, col] = 1.0
    self.z -= self.z[col] * piv_row
    self.z[col] = 0.0
    self.basis[row] = col
    self.iterations += 1


def leaving_column_by_column(self, col):
    """_Tableau._leaving breaking ties one basis-inverse column at a time."""
    colvals = self.T[:, col]
    pos = np.nonzero(colvals > _PIVOT_TOL)[0]
    if len(pos) == 0:
        return None
    ratios = self.T[pos, -1] / colvals[pos]
    tied = pos[ratios == ratios.min()]
    j = self.n
    last = self.T.shape[1] - 1
    while len(tied) > 1 and j < last:
        vals = self.T[tied, j] / colvals[tied]
        tied = tied[vals == vals.min()]
        j += 1
    if len(tied) > 1:
        raise NumericError(
            "lexicographic ratio test could not separate candidate rows")
    return int(tied[0])


def lift_f_by_edge(code, raw_w):
    """decode's f lift as one bincount per (A vertex, position): f[e] is the
    A endpoint's w mass per symbol at e."""
    graph = code.graph
    q = code.field.q
    cw_a = code.code_a.codewords()
    f = np.zeros((graph.num_edges, q))
    for v in range(graph.n):
        wa = raw_w[("a", v)]
        for t in range(graph.delta):
            f[int(graph.a_edges[v, t])] = np.bincount(cw_a[:, t], weights=wa, minlength=q)
    return f
