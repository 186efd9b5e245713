"""A dense-tableau two-phase primal simplex for equality-form LPs.

Problems are   maximize c.x   subject to   A x = b,  x >= 0.

Phase 1 starts from an all-artificial basis and maximizes minus the sum of
the artificials; a row whose artificial cannot be driven out afterwards is
redundant and gets dropped.  The artificial columns stay in the tableau the
whole time — they start as the identity, so they always hold the current
basis inverse — but an artificial that left the basis can never come back,
because the entering rule only looks at real columns.

The decoding LPs this solver exists for are extremely degenerate (most
right-hand sides are zero), which makes plain Dantzig pivoting stall and
Bland's rule crawl.  Degeneracy is handled with the lexicographic ratio
test instead: ties in the minimum ratio are broken by comparing the rows of
the basis inverse, scaled by the pivot column, left to right.  Rows of the
inverse are independent, so the winner is unique, cycling is impossible,
and the entering rule stays Dantzig (most positive reduced cost, lowest
index on ties).  All choices are deterministic, so identical inputs give
identical iterates.

Phase 1 reads only the constraints, so it is a step of its own: phase1()
returns the state it leaves (tableau, basis, the phase-1 objective and its
pivot count), and solve(problem, start=...) runs phase 2 alone on a copy of
that state.  A caller that solves many problems with the same constraints
and different objectives runs phase 1 once; each solve takes exactly the
pivots, and returns exactly the values and counts, it would have without
the start.  The feasibility verdict compares the stored phase-1 objective
with each call's own feas_tol.

Two shortcuts make each pivot cheaper without changing which pivot is taken.
The tie-break divides the tied rows' inverse block once and skips the
columns where every still-tied row agrees, since those cannot narrow the
tie.  A pivot whose column is nonzero in at most a quarter of the rows
updates only the block of rows where that column is nonzero and columns
where the pivot row is; every other entry of the full outer-product update
is a subtraction of zero.  The pivot sequence and the tableau are the same
as with the column-by-column tie-break and the dense update
(tests/oracles.py keeps both as references).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError

_PIVOT_TOL = 1e-9
DEFAULT_FEAS_TOL = 1e-8
DEFAULT_OPT_TOL = 1e-9


@dataclass
class LpProblem:
    """maximize objective . x  s.t.  eq_coeffs @ x = eq_rhs,  x >= 0."""

    objective: np.ndarray
    eq_coeffs: np.ndarray
    eq_rhs: np.ndarray

    def __post_init__(self) -> None:
        self.objective = np.asarray(self.objective, dtype=float)
        self.eq_coeffs = np.asarray(self.eq_coeffs, dtype=float)
        self.eq_rhs = np.asarray(self.eq_rhs, dtype=float)
        if self.eq_coeffs.ndim != 2:
            raise ValueError("eq_coeffs must be a matrix")
        m, n = self.eq_coeffs.shape
        if self.objective.shape != (n,):
            raise ValueError(f"objective must have length {n}")
        if self.eq_rhs.shape != (m,):
            raise ValueError(f"eq_rhs must have length {m}")
        for arr, name in ((self.objective, "objective"),
                          (self.eq_coeffs, "eq_coeffs"),
                          (self.eq_rhs, "eq_rhs")):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")

    @property
    def num_vars(self) -> int:
        return self.eq_coeffs.shape[1]


@dataclass
class LpSolution:
    """status is 'optimal', 'infeasible' or 'unbounded'.

    values and objective_value are set only for 'optimal'.  At an optimum
    every equality holds within the feasibility tolerance and no nonbasic
    column has reduced cost above the optimality tolerance.  iterations
    counts every pivot of both phases, phase1_iterations those of phase 1
    (including any taken by the phase1() run a start came from).
    """

    status: str
    values: np.ndarray | None = None
    objective_value: float | None = None
    iterations: int = field(default=0)
    phase1_iterations: int = field(default=0)


class _Tableau:
    """Mutable simplex state.

    T has shape (rows, n + m + 1): the n real columns, then the m columns
    that started as the identity (artificials, later the basis inverse),
    then the right-hand side.  basis[r] is the column index basic in row r;
    an index >= n means row r still carries its artificial.  The pivot count
    is capped at 500*(m+n) + 2000.
    """

    def __init__(self, T: np.ndarray, n_real: int, basis: list[int], opt_tol: float):
        self.T = T
        self.n = n_real
        self.basis = basis
        self.z = np.zeros(T.shape[1])  # reduced costs; last slot = -objective
        self.opt_tol = opt_tol
        self.max_iters = 500 * (T.shape[1] - 1) + 2000
        self.iterations = 0
        self._outer = np.empty_like(T)   # the dense update's outer product

    def pivot(self, row: int, col: int) -> None:
        T = self.T
        piv_row = T[row] / T[row, col]
        body_col = T[:, col].copy()
        rows = np.flatnonzero(body_col)
        if 4 * len(rows) <= len(body_col):
            # the update is zero outside the rows where the pivot column is
            # nonzero and the columns where the pivot row is; skipping it
            # leaves every entry as the full update would
            cols = np.flatnonzero(piv_row)
            T[np.ix_(rows, cols)] -= np.outer(body_col[rows], piv_row[cols])
        else:
            T -= np.einsum("i,j->ij", body_col, piv_row, out=self._outer)
        T[row] = piv_row
        T[:, col] = 0.0
        T[row, col] = 1.0
        self.z -= self.z[col] * piv_row
        self.z[col] = 0.0
        self.basis[row] = col
        self.iterations += 1

    def _entering(self) -> int | None:
        rc = self.z[:self.n]
        j = int(np.argmax(rc))
        return j if rc[j] > self.opt_tol else None

    def _leaving(self, col: int) -> int | None:
        colvals = self.T[:, col]
        pos = np.nonzero(colvals > _PIVOT_TOL)[0]
        if len(pos) == 0:
            return None
        ratios = self.T[pos, -1] / colvals[pos]
        tied = pos[ratios == ratios.min()]
        if len(tied) > 1:
            # tied rows' basis-inverse rows over their pivot entries, compared
            # left to right; a column where all still-tied rows agree cannot
            # narrow the tie, so jump to the first one where they differ
            keys = self.T[tied, self.n:-1] / colvals[tied, None]
            j = 0
            while len(tied) > 1:
                differ = np.flatnonzero((keys[:, j:] != keys[0, j:]).any(axis=0))
                if len(differ) == 0:
                    break
                j += int(differ[0])
                vals = keys[:, j]
                keep = vals == vals.min()
                tied, keys = tied[keep], keys[keep]
                j += 1
        if len(tied) > 1:
            raise NumericError(
                "lexicographic ratio test could not separate candidate rows")
        return int(tied[0])

    def run(self) -> str:
        """Pivot to optimality; returns 'optimal' or 'unbounded'."""
        while True:
            if self.iterations > self.max_iters:
                raise NumericError(
                    f"simplex exceeded {self.max_iters} iterations; "
                    "likely numeric trouble")
            col = self._entering()
            if col is None:
                return "optimal"
            row = self._leaving(col)
            if row is None:
                return "unbounded"
            self.pivot(row, col)


@dataclass(frozen=True, eq=False)
class Phase1:
    """Where phase 1 leaves the simplex, for one (eq_coeffs, eq_rhs, opt_tol).

    Phase 1 never reads the objective, so this state serves every problem
    with the same constraints; solve(problem, start=...) runs only phase 2,
    on a copy of tableau and basis.  infeasibility is the sum of the
    artificials at the end of the phase-1 search, which solve compares with
    its own feas_tol; search_iterations counts that search's pivots (what an
    infeasible verdict reports), iterations adds the pivots that drove the
    leftover artificials out.  tableau and basis are the state after those
    pivots, with redundant rows dropped; the tableau is read-only.
    """

    shape: tuple[int, int]
    opt_tol: float
    infeasibility: float
    search_iterations: int
    iterations: int
    tableau: np.ndarray
    basis: tuple[int, ...]


def phase1(eq_coeffs: np.ndarray, eq_rhs: np.ndarray,
           opt_tol: float = DEFAULT_OPT_TOL) -> Phase1:
    """Phase 1 of solve() for the constraints eq_coeffs @ x = eq_rhs, x >= 0."""
    A0 = np.asarray(eq_coeffs, dtype=float)
    b0 = np.asarray(eq_rhs, dtype=float)
    m, n = A0.shape

    # sign-normalize so b >= 0; aux block starts as the identity
    signs = np.where(b0 < 0, -1.0, 1.0)
    T = np.zeros((m, n + m + 1))
    T[:, :n] = A0 * signs[:, None]
    T[:, n:n + m] = np.eye(m)
    T[:, -1] = b0 * signs
    basis = list(range(n, n + m))
    tab = _Tableau(T, n, basis, opt_tol)
    # phase-1 reduced costs for maximizing -(sum of artificials)
    tab.z[:n] = T[:, :n].sum(axis=0)
    tab.z[-1] = T[:, -1].sum()             # negative of the phase-1 objective

    status = tab.run()
    if status == "unbounded":
        raise NumericError("phase-1 objective reported unbounded; cannot happen")
    infeasibility = float(tab.z[-1])
    search_iterations = tab.iterations

    # drive leftover artificials out of the basis, dropping redundant rows
    drop: list[int] = []
    for r in range(m):
        if tab.basis[r] < n:
            continue
        row = tab.T[r, :n]
        candidates = np.nonzero(np.abs(row) > _PIVOT_TOL)[0]
        if len(candidates) == 0:
            drop.append(r)
        else:
            tab.pivot(r, int(candidates[0]))
    if drop:
        dropped = set(drop)
        keep = [r for r in range(m) if r not in dropped]
        tab.T = tab.T[keep]
        tab.basis = [tab.basis[r] for r in keep]
    tab.T.flags.writeable = False
    return Phase1(shape=(m, n), opt_tol=opt_tol, infeasibility=infeasibility,
                  search_iterations=search_iterations, iterations=tab.iterations,
                  tableau=tab.T, basis=tuple(tab.basis))


def solve(problem: LpProblem,
          feas_tol: float = DEFAULT_FEAS_TOL,
          opt_tol: float = DEFAULT_OPT_TOL,
          start: Phase1 | None = None) -> LpSolution:
    """Two-phase primal simplex.  See the module docstring for the rules.

    start is phase1()'s result for this problem's constraints (the caller
    vouches that eq_coeffs and eq_rhs are the ones it was run on); without
    it phase 1 runs here.  Either way the pivots, the outputs and the
    iteration counts are the same.
    """
    A0 = problem.eq_coeffs
    b0 = problem.eq_rhs
    c = problem.objective
    m, n = A0.shape
    if start is None:
        start = phase1(A0, b0, opt_tol)
    elif start.shape != (m, n) or start.opt_tol != opt_tol:
        raise ValueError(
            f"phase-1 start is for a {start.shape} problem at opt_tol "
            f"{start.opt_tol}, not {(m, n)} at {opt_tol}")
    if start.infeasibility > feas_tol:
        return LpSolution(status="infeasible", iterations=start.search_iterations,
                          phase1_iterations=start.search_iterations)

    # phase 2: fresh reduced costs for the real objective
    tab = _Tableau(start.tableau.copy(), n, list(start.basis), opt_tol)
    tab.iterations = start.iterations
    basis_arr = np.array(tab.basis, dtype=np.int64)
    if (basis_arr >= n).any():
        raise NumericError("artificial variable left in the basis after cleanup")
    cb = c[basis_arr]
    tab.z[:n] = c - cb @ tab.T[:, :n]
    tab.z[n:-1] = -(cb @ tab.T[:, n:-1])
    tab.z[-1] = -(cb @ tab.T[:, -1])

    status = tab.run()
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=tab.iterations,
                          phase1_iterations=start.iterations)

    x = np.zeros(n)
    for r, bv in enumerate(tab.basis):
        x[bv] = tab.T[r, -1]
    if x.min() < -feas_tol:
        raise NumericError(f"optimal basis has a negative variable: {x.min()}")
    np.clip(x, 0.0, None, out=x)
    resid = np.abs(A0 @ x - b0).max() if m else 0.0
    if resid > feas_tol * (1.0 + np.abs(b0).max(initial=0.0)):
        raise NumericError(f"constraint residual {resid} exceeds tolerance")
    return LpSolution(status="optimal", values=x, objective_value=float(c @ x),
                      iterations=tab.iterations, phase1_iterations=start.iterations)
