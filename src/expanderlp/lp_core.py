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

solve_many(objectives, eq_coeffs, eq_rhs, start) runs phase 2 for many
objectives over one set of constraints in lockstep.  The problems share the
constraints, the phase-1 start and the Python work of each round: one
(k, rows, cols) tableau stack and one (k, cols) reduced-cost stack take
every live problem's entering choice, ratio test, tie-break and rank-1
update at once, and a problem leaves the stack when it is optimal or
unbounded.  Each problem takes the pivots solve takes, and every sum (the
starting reduced costs, the residual, c.x) is still taken per problem with
solve's own expression, since a stacked matmul may add in another order;
the outputs are equal to the last bit.  The stack pays off where per-call
Python dominates, on LPs of a few dozen rows that take a few pivots.  A
single solve keeps _Tableau: a stack of one measured slower on the larger
decoding LPs (96 x 768: 112-124 ms against 90-96 ms; 320 x 160: 1.8 ms
against 0.9 ms, on a 2-core host).
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


def _checked_start(A0: np.ndarray, b0: np.ndarray, start: Phase1 | None,
                   opt_tol: float) -> Phase1:
    """start, after checking it is for (m, n) at opt_tol, or phase 1 run here."""
    m, n = A0.shape
    if start is None:
        return phase1(A0, b0, opt_tol)
    if start.shape != (m, n) or start.opt_tol != opt_tol:
        raise ValueError(
            f"phase-1 start is for a {start.shape} problem at opt_tol "
            f"{start.opt_tol}, not {(m, n)} at {opt_tol}")
    return start


def _phase2_basis(start: Phase1, n: int) -> np.ndarray:
    """The start's basis as an index array; every basic column must be real."""
    basis = np.array(start.basis, dtype=np.int64)
    if (basis >= n).any():
        raise NumericError("artificial variable left in the basis after cleanup")
    return basis


def _optimal(A0: np.ndarray, b0: np.ndarray, C: np.ndarray, basis: np.ndarray,
             rhs: np.ndarray, iterations: int, start: Phase1,
             feas_tol: float) -> list[LpSolution]:
    """The solutions at a stack of optimal bases, one per row of C: in
    problem i, basic variable basis[i, r] takes rhs[i, r]."""
    m, n = A0.shape
    X = np.zeros((len(C), n))
    X[np.arange(len(C))[:, None], basis] = rhs
    lowest = X.min(axis=1)
    negative = np.flatnonzero(lowest < -feas_tol)
    if len(negative):
        raise NumericError(f"optimal basis has a negative variable: {lowest[negative[0]]}")
    np.clip(X, 0.0, None, out=X)
    bound = feas_tol * (1.0 + np.abs(b0).max(initial=0.0))
    for x in X:
        resid = np.abs(A0 @ x - b0).max() if m else 0.0
        if resid > bound:
            raise NumericError(f"constraint residual {resid} exceeds tolerance")
    return [LpSolution(status="optimal", values=x, objective_value=float(c @ x),
                       iterations=iterations, phase1_iterations=start.iterations)
            for c, x in zip(C, X)]


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
    n = A0.shape[1]
    start = _checked_start(A0, b0, start, opt_tol)
    if start.infeasibility > feas_tol:
        return LpSolution(status="infeasible", iterations=start.search_iterations,
                          phase1_iterations=start.search_iterations)

    # phase 2: fresh reduced costs for the real objective
    tab = _Tableau(start.tableau.copy(), n, list(start.basis), opt_tol)
    tab.iterations = start.iterations
    cb = c[_phase2_basis(start, n)]
    tab.z[:n] = c - cb @ tab.T[:, :n]
    tab.z[n:-1] = -(cb @ tab.T[:, n:-1])
    tab.z[-1] = -(cb @ tab.T[:, -1])

    status = tab.run()
    if status == "unbounded":
        return LpSolution(status="unbounded", iterations=tab.iterations,
                          phase1_iterations=start.iterations)
    return _optimal(A0, b0, c[None], np.array([tab.basis], dtype=np.int64),
                    tab.T[None, :, -1], tab.iterations, start, feas_tol)[0]


# -- many objectives over one start -------------------------------------------------

def solve_many(objectives, eq_coeffs, eq_rhs, start: Phase1 | None = None,
               feas_tol: float = DEFAULT_FEAS_TOL,
               opt_tol: float = DEFAULT_OPT_TOL) -> list[LpSolution]:
    """solve() for each row of objectives over the same constraints.

    The result at index i is the one solve(LpProblem(objectives[i],
    eq_coeffs, eq_rhs), feas_tol, opt_tol, start) returns, with the same
    pivots: phase 2 runs on a stack of tableaux, one per problem, and each
    round applies solve's rules (Dantzig entering, the lexicographic ratio
    test, the rank-1 update) to every problem still pivoting.  A problem
    leaves the stack when it is optimal or unbounded.  A NumericError that
    solve would raise for some problem is raised here, in the round it
    occurs.  Every sum is taken per problem with solve's own expression, so
    values and objective values are equal to the last bit.
    """
    A0 = np.asarray(eq_coeffs, dtype=float)
    b0 = np.asarray(eq_rhs, dtype=float)
    C = np.asarray(objectives, dtype=float)
    m, n = A0.shape
    if C.ndim != 2 or C.shape[1] != n:
        raise ValueError(f"objectives must be a (k, {n}) array")
    if not np.isfinite(C).all():
        raise ValueError("objectives contain non-finite entries")
    start = _checked_start(A0, b0, start, opt_tol)
    if start.infeasibility > feas_tol:
        return [LpSolution(status="infeasible", iterations=start.search_iterations,
                           phase1_iterations=start.search_iterations) for _ in C]

    T0 = start.tableau
    basis0 = _phase2_basis(start, n)
    T = np.repeat(T0[None], len(C), axis=0)
    z = np.empty((len(C), T0.shape[1]))
    for zi, c in zip(z, C):
        cb = c[basis0]
        zi[:n] = c - cb @ T0[:, :n]
        zi[n:-1] = -(cb @ T0[:, n:-1])
        zi[-1] = -(cb @ T0[:, -1])
    basis = np.repeat(basis0[None], len(C), axis=0)
    live = np.arange(len(C))            # the problem in each stack slot
    solutions: list[LpSolution | None] = [None] * len(C)
    iterations = start.iterations
    max_iters = 500 * (T0.shape[1] - 1) + 2000
    while len(live):
        if iterations > max_iters:
            raise NumericError(
                f"simplex exceeded {max_iters} iterations; likely numeric trouble")
        slots = np.arange(len(live))
        cols = z[:, :n].argmax(axis=1)
        optimal = z[slots, cols] <= opt_tol
        colvals = T[slots, :, cols]
        pos = colvals > _PIVOT_TOL
        unbounded = ~optimal & ~pos.any(axis=1)
        if optimal.any():
            done = live[optimal]
            for i, sol in zip(done.tolist(),
                              _optimal(A0, b0, C[done], basis[optimal], T[optimal, :, -1],
                                       iterations, start, feas_tol)):
                solutions[i] = sol
        for i in live[unbounded].tolist():
            solutions[i] = LpSolution(status="unbounded", iterations=iterations,
                                      phase1_iterations=start.iterations)
        going = ~(optimal | unbounded)
        if not going.all():
            T, z, basis, live = T[going], z[going], basis[going], live[going]
            cols, colvals, pos = cols[going], colvals[going], pos[going]
        if len(live):
            rows = _leaving_rows(T, colvals, pos, n)
            _pivot_stack(T, z, basis, rows, cols)
            iterations += 1
    return solutions


def _leaving_rows(T: np.ndarray, colvals: np.ndarray, pos: np.ndarray,
                  n: int) -> np.ndarray:
    """_Tableau._leaving for every tableau of a stack, each with a pivot row.

    colvals[s] is tableau s's entering column and pos[s] where it exceeds
    the pivot tolerance.  Ties are narrowed as _leaving narrows them: at the
    first column of the basis-inverse keys where the still-tied rows differ,
    keep the rows at the least key.
    """
    ratios = np.full(colvals.shape, np.inf)
    np.divide(T[:, :, -1], colvals, out=ratios, where=pos)
    tied = ratios == ratios.min(axis=1, keepdims=True)
    multi = np.flatnonzero(tied.sum(axis=1) > 1)
    if len(multi):
        t = tied[multi]
        keys = T[multi, :, n:-1] / np.where(t, colvals[multi], 1.0)[:, :, None]
        while True:
            still = np.flatnonzero(t.sum(axis=1) > 1)
            if not len(still):
                break
            kt, tt = keys[still], t[still]
            at = np.arange(len(still))
            first = kt[at, tt.argmax(axis=1)]
            differ = ((kt != first[:, None, :]) & tt[:, :, None]).any(axis=1)
            if not differ.any(axis=1).all():
                raise NumericError(
                    "lexicographic ratio test could not separate candidate rows")
            vals = np.where(tt, kt[at, :, differ.argmax(axis=1)], np.inf)
            t[still] = tt & (vals == vals.min(axis=1, keepdims=True))
        tied[multi] = t
    return tied.argmax(axis=1)


def _pivot_stack(T: np.ndarray, z: np.ndarray, basis: np.ndarray,
                 rows: np.ndarray, cols: np.ndarray) -> None:
    """_Tableau.pivot on every tableau s of the stack at (rows[s], cols[s]).

    Entry by entry this is the update pivot makes, on either of its
    branches: einsum adds each product to a zero, so a product with a zero
    factor is +0.0, and subtracting it leaves the entry and the sign of a
    zero as the sparse branch, which skips it, does.
    """
    slots = np.arange(len(T))
    piv_row = T[slots, rows] / T[slots, rows, cols][:, None]
    T -= np.einsum("si,sj->sij", T[slots, :, cols], piv_row)
    T[slots, rows] = piv_row
    T[slots, :, cols] = 0.0
    T[slots, rows, cols] = 1.0
    z -= z[slots, cols][:, None] * piv_row
    z[slots, cols] = 0.0
    basis[slots, rows] = cols
