"""A revised two-phase primal simplex for equality-form LPs.

Problems are   maximize c.x   subject to   A x = b,  x >= 0.

The engine keeps, per problem, the basis inverse B^-1, the right-hand side
B^-1 b, the basis and the reduced costs of the real columns; A itself is
read only through its nonzeros.  A pivot on column q computes the entering
column B^-1 a_q from q's nonzeros, picks the leaving row by the ratio test,
updates B^-1 and the right-hand side by one rank-1 update, and updates the
reduced costs by the new pivot row of B^-1 times A.

Phase 1 starts from an all-artificial basis (B^-1 = I; the artificial
columns are implicit identity columns that never enter) and maximizes minus
the sum of the artificials.  A row whose artificial cannot be driven out
afterwards is redundant and gets dropped, with its column of B^-1, which is
that row's unit vector: what is left is the inverse of the kept rows' basis.

The decoding LPs this solver exists for are extremely degenerate (most
right-hand sides are zero), which makes plain Dantzig pivoting stall and
Bland's rule crawl.  Degeneracy is handled with the lexicographic ratio
test instead: ties in the minimum ratio are broken by comparing the rows of
B^-1, scaled by the entering column, left to right.  Rows of the inverse
are independent, so the winner is unique, cycling is impossible, and the
entering rule stays Dantzig (most positive reduced cost, lowest index on
ties).  All choices are deterministic, so identical inputs give identical
iterates.  B^-1 is never reinverted: the rank-1 update keeps the exact
zeros of a degenerate right-hand side, which a fresh inverse does not, and
the lexicographic rule relies on them.  A row is a pivot candidate where
the entering column exceeds _PIVOT_TOL times the column's largest
magnitude, when that exceeds 1 (_pivot_floor).  Phase 1's cleanup scales
the test on a leftover artificial's row of the tableau by the terms each
entry sums instead, since a redundant row has no entry of real size.

Phase 1 reads only the constraints, so it is a step of its own: phase1()
returns the state it leaves (the kept rows, B^-1, the right-hand side, the
basis, the phase-1 objective and its pivot count), and solve(problem,
start=...) runs phase 2 alone from that state.  A caller that solves many
problems with the same constraints and different objectives runs phase 1
once; each solve takes exactly the pivots, and returns exactly the values
and counts, it would have without the start.  The feasibility verdict
compares the stored phase-1 objective with each call's own feas_tol.

One engine takes every pivot: _Revised runs a stack of k >= 1 problems over
the same constraints in lockstep, with one entering rule, one ratio test,
one rank-1 update and one loop.  phase1 runs it on a stack of one, solve is
solve_many of one objective, and solve_many runs phase 2 for many
objectives: the problems share the constraints, the phase-1 start and the
Python work of each round, and a problem leaves the stack when it is
optimal or unbounded; the problems left move to the front of the same
arrays.  A problem of the stack holds m (m + 1) floats of B^-1 and
right-hand side and n of reduced costs, against (m + 1)(n + m + 1) for a
dense tableau: 97 x 865 is 656 KiB on the 96 x 768 parity decoding LP,
96 x 97 plus 768 is 79 KiB.  An engine error (the iteration cap, an
unseparable tie) is raised in the round it occurs; the solutions, with
their sign and residual checks, are built once the whole stack has
stopped, so such a check raises on the first failing problem in stack
order.

A problem's pivots and outputs do not depend on the rest of the stack.
Every step is elementwise per problem, or sums a problem's own terms in an
order fixed by the constraints.  The pricing of a pivot row is one
np.bincount over A's nonzeros, sorted by column, with each problem's
entries offset to bins of their own.  The entering columns B^-1 a_q and
the starting costs c_B B^-1 are matmuls over a singleton axis, (k, m, m) @
(k, m, 1) and (k, 1, m) @ (m, m), which run item by item the kernel of the
one-problem product.

tests/oracles.py keeps the dense one-tableau simplex with the same rules
(but a fixed pivot tolerance) as the reference; tests/golden/lp_solves.json
pins its pivots and values.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError

_PIVOT_TOL = 1e-9
DEFAULT_FEAS_TOL = 1e-8
DEFAULT_OPT_TOL = 1e-9


def _checked_constraints(eq_coeffs, eq_rhs) -> tuple[np.ndarray, np.ndarray]:
    """eq_coeffs and eq_rhs as float arrays, or ValueError unless they are a
    matrix and one right-hand side per row, all finite."""
    A = np.asarray(eq_coeffs, dtype=float)
    b = np.asarray(eq_rhs, dtype=float)
    if A.ndim != 2:
        raise ValueError("eq_coeffs must be a matrix")
    if b.shape != A.shape[:1]:
        raise ValueError(f"eq_rhs must have length {len(A)}")
    for arr, name in ((A, "eq_coeffs"), (b, "eq_rhs")):
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} contains non-finite entries")
    return A, b


@dataclass
class LpProblem:
    """maximize objective . x  s.t.  eq_coeffs @ x = eq_rhs,  x >= 0."""

    objective: np.ndarray
    eq_coeffs: np.ndarray
    eq_rhs: np.ndarray

    def __post_init__(self) -> None:
        self.eq_coeffs, self.eq_rhs = _checked_constraints(self.eq_coeffs, self.eq_rhs)
        self.objective = np.asarray(self.objective, dtype=float)
        n = self.eq_coeffs.shape[1]
        if self.objective.shape != (n,):
            raise ValueError(f"objective must have length {n}")
        if not np.isfinite(self.objective).all():
            raise ValueError("objective contains non-finite entries")

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
    min_pivot is the smallest magnitude of a pivot element divided by, over
    both phases (inf when no pivot was taken): a pivot near _PIVOT_TOL is
    the first sign of a numerically singular basis.
    """

    status: str
    values: np.ndarray | None = None
    objective_value: float | None = None
    iterations: int = field(default=0)
    phase1_iterations: int = field(default=0)
    min_pivot: float = field(default=float("inf"))


class _Columns:
    """A's nonzeros sorted by column, then row (nz_cols, nz_rows, nz_vals):
    the order pricing sums them in; and A's columns as the rows of the
    C-contiguous transpose dense_t, which the entering column reads."""

    def __init__(self, A: np.ndarray):
        self.shape = A.shape
        self.nz_cols, self.nz_rows = np.nonzero(A.T)
        self.nz_vals = A[self.nz_rows, self.nz_cols]
        self.dense_t = np.ascontiguousarray(A.T)


def _pivot_floor(alpha: np.ndarray) -> np.ndarray:
    """The (k, 1) bounds above which an entry of each entering column is a
    pivot candidate: _PIVOT_TOL, scaled by the column's largest magnitude
    where that exceeds 1.  An entry that is round-off of an exact zero is
    of the order of the column's size times the unit round-off, so a fixed
    bound lets such entries through once the basis inverse holds large
    entries, and pivoting on one makes the basis singular."""
    return np.maximum.reduce(np.abs(alpha), axis=1, keepdims=True, initial=1.0) * _PIVOT_TOL


class _Revised:
    """The simplex engine: a stack of k >= 1 problems that pivot in lockstep.

    W has shape (k, m, m + 1): per problem, B^-1 then the right-hand side.
    d has shape (k, n), the reduced costs of the real columns.  basis[s, r]
    is the column basic in row r of problem s, an index >= n an artificial.
    min_pivot[s] is the smallest pivot magnitude problem s has divided by.
    Every round pivots every problem of the stack once, so they share one
    pivot count, capped at max_iters.

    Each problem has its own pivot row and column, so they are read and
    written through flat indices into the stack: one gather or scatter
    each, however many problems the stack holds.  The arrays are the ones
    the engine was given, C-contiguous: keep() compacts the live problems
    into their first slots, and the engine works on views of those.
    """

    def __init__(self, cols: _Columns, W: np.ndarray, basis: np.ndarray, d: np.ndarray,
                 min_pivot: np.ndarray, opt_tol: float, iterations: int, max_iters: int):
        self.cols = cols
        self.opt_tol = opt_tol
        self.iterations = iterations
        self.max_iters = max_iters
        k, m, _ = W.shape
        n = cols.shape[1]
        self._all = (W, d, basis, min_pivot)
        # flat offsets; keep() compacts the stack into its first slots, so
        # the first k' entries serve a stack of k'
        slots = np.arange(k)
        self._all_first_rows = slots * m
        self._all_d_rows = slots * n
        self._all_price_bins = self._all_d_rows[:, None] + cols.nz_cols
        self._view(k)

    def _view(self, k: int) -> None:
        """Work on the stack's first k slots."""
        self.W, self.d, self.basis, self.min_pivot = (arr[:k] for arr in self._all)
        self._rows = self.W.reshape(-1, self.W.shape[2])
        self._rhs = self.W[:, :, -1]
        self._basic, self._d_cells = self.basis.reshape(-1), self.d.reshape(-1)
        self._each_slot = list(range(k))
        self._first_row, self._d_rows = self._all_first_rows[:k], self._all_d_rows[:k]
        self._inverse = self.W[:, :, :-1]
        self._price_bins = self._all_price_bins[:k].reshape(-1)

    def keep(self, going: np.ndarray) -> None:
        """Keep only the problems where the mask going is set, at least one:
        they move, in slot order, to the front of the same arrays.

        Each run of kept slots moves as one block of cells; a 1-D copy
        onto a lower offset of the same array needs no temporary, so the
        stack never holds a second copy of itself.
        """
        kept = np.flatnonzero(going)
        # kept[lo:hi] is a run of consecutive slots, moved to slots lo..hi-1
        breaks = (np.flatnonzero(kept[1:] - kept[:-1] != 1) + 1).tolist()
        for lo, hi in zip([0] + breaks, breaks + [len(kept)]):
            src = int(kept[lo])
            if src != lo:
                for arr in self._all:
                    size, cells = arr[0].size, arr.reshape(-1)
                    cells[lo * size:hi * size] = cells[src * size:(src + hi - lo) * size]
        self._view(len(kept))

    def price(self, P: np.ndarray) -> np.ndarray:
        """P @ A for a (k, m) stack of row vectors, as one bincount over A's
        nonzeros sorted by column: each problem's sums take their terms in
        the same order, however many problems the stack holds."""
        weights = P.take(self.cols.nz_rows, axis=1)
        weights *= self.cols.nz_vals
        # (an A without nonzeros bins nothing, and bincount then returns ints)
        return np.bincount(self._price_bins, weights.reshape(-1), minlength=self._d_cells.size
                           ).reshape(self.d.shape).astype(float, copy=False)

    def column(self, cols: np.ndarray) -> np.ndarray:
        """B^-1 a_q in every problem, for its entering column q = cols[s]:
        a matmul over a singleton axis, (k, m, m) @ (k, m, 1), which runs
        item by item the matrix-vector kernel of the one-problem product."""
        return np.matmul(self._inverse, self.cols.dense_t.take(cols, axis=0)[:, :, None])[:, :, 0]

    def pivot(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Pivot problem s on (rows[s], cols[s]), for every s."""
        cells = self._d_rows + cols
        self._pivot(rows, cols, self.column(cols), self._d_cells.take(cells), cells)

    def _pivot(self, rows, cols, alpha, costs, cost_cells) -> None:
        """pivot() given the entering columns B^-1 a_q, their reduced costs
        and the costs' flat indices, as run() has them."""
        at = self._first_row + rows
        pivots = alpha.take(at)
        # the divided pivot rows, written over the update's result for them
        piv_rows = self._rows.take(at, axis=0)
        piv_rows /= pivots[:, None]
        self.W -= np.einsum("si,sj->sij", alpha, piv_rows)
        self._rows[at] = piv_rows
        self._basic[at] = cols
        # the entering column's cost is exactly 0 now, as its tableau column is
        priced = self.price(piv_rows[:, :-1])
        priced *= costs[:, None]
        self.d -= priced
        self._d_cells[cost_cells] = 0.0
        np.minimum(self.min_pivot, np.abs(pivots), out=self.min_pivot)
        self.iterations += 1

    def _leaving(self, alpha: np.ndarray, positive: np.ndarray) -> np.ndarray | None:
        """The row the lexicographic ratio test picks in problem s for the
        entering column alpha[s], whose pivot candidates are the rows where
        positive[s] is set; None when some problem has none.

        A ratio is NaN where the column is not positive, so the least ratio
        skips those rows and is NaN only where there are none.  Rows tied at
        the least ratio compare their rows of B^-1 over their entries of
        alpha, left to right: the candidates are sorted by problem, then by
        those keys, skipping the columns where every candidate agrees.
        """
        ratios = self._rhs / np.where(positive, alpha, np.nan)
        least = np.fmin.reduce(ratios, axis=1, keepdims=True, initial=np.nan)
        slot, rows = (ratios == least).nonzero()
        if slot.tolist() == self._each_slot:     # one row in every problem
            return rows
        if np.isnan(least).any():
            return None
        keys = self.W[slot, rows, :-1] / alpha[slot, rows, None]
        keys = keys[:, (keys != keys[0]).any(axis=0)]
        order = np.lexsort(np.concatenate((keys.T[::-1], slot[None])))
        slot, rows, keys = slot[order], rows[order], keys[order]
        first = np.concatenate(([True], slot[1:] != slot[:-1]))
        runner_up = (~first).nonzero()[0]
        runner_up = runner_up[first[runner_up - 1]]
        if (keys[runner_up] == keys[runner_up - 1]).all(axis=1).any():
            raise NumericError("lexicographic ratio test could not separate candidate rows")
        return rows[first]

    def run(self) -> tuple[np.ndarray, np.ndarray]:
        """Pivot until some problem stops; returns the masks of the problems
        that are optimal and of those that are unbounded.  Optimal problems
        are reported first: a problem that is unbounded in the same round
        is reported by the next call, which takes no pivot before it."""
        while True:
            if self.iterations > self.max_iters:
                raise NumericError(
                    f"simplex exceeded {self.max_iters} iterations; likely numeric trouble")
            cols = self.d.argmax(axis=1)
            cells = self._d_rows + cols
            costs = self._d_cells.take(cells)
            # the stop checks use Python lists: on the few problems of a
            # stack they cost less than a numpy reduction per round
            if min(costs.tolist()) <= self.opt_tol:
                return costs <= self.opt_tol, np.zeros(len(costs), dtype=bool)
            alpha = self.column(cols)
            positive = alpha > _pivot_floor(alpha)
            rows = self._leaving(alpha, positive)
            if rows is None:
                return np.zeros(len(costs), dtype=bool), ~positive.any(axis=1)
            self._pivot(rows, cols, alpha, costs, cells)


def _engine(cols: _Columns, inverse: np.ndarray, rhs: np.ndarray, basis, d: np.ndarray,
            min_pivot: float, opt_tol: float, iterations: int, max_iters: int) -> _Revised:
    """An engine on a stack of len(d) problems that all start from one
    basis: inverse, rhs and basis are shared, d holds each problem's
    reduced costs (copied)."""
    k, m = len(d), len(rhs)
    W = np.empty((k, m, m + 1))
    W[:, :, :-1], W[:, :, -1] = inverse, rhs
    return _Revised(cols, W, np.repeat(np.asarray(basis, dtype=np.int64)[None], k, axis=0),
                    np.array(d, dtype=float), np.full(k, min_pivot), opt_tol, iterations,
                    max_iters)


@dataclass(frozen=True, eq=False)
class Phase1:
    """Where phase 1 leaves the simplex, for one (eq_coeffs, eq_rhs, opt_tol).

    Phase 1 never reads the objective, so this state serves every problem
    with the same constraints; solve(problem, start=...) runs only phase 2
    from it.  infeasibility is the sum of the artificials at the end of the
    phase-1 search, which solve compares with its own feas_tol;
    search_iterations counts that search's pivots (what an infeasible
    verdict reports), iterations adds the pivots that drove the leftover
    artificials out, and min_pivot is the smallest pivot magnitude of
    both.  The rest is the state after those pivots, with redundant rows
    dropped: eq_coeffs and eq_rhs are the kept rows, sign-normalized so the
    right-hand side is >= 0, inverse is their basis inverse, rhs the basic
    values and basis the basic columns.  The arrays are read-only.
    """

    shape: tuple[int, int]
    opt_tol: float
    infeasibility: float
    search_iterations: int
    iterations: int
    eq_coeffs: np.ndarray
    eq_rhs: np.ndarray
    inverse: np.ndarray
    rhs: np.ndarray
    basis: tuple[int, ...]
    min_pivot: float = float("inf")
    columns: _Columns = field(init=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "columns", _Columns(self.eq_coeffs))

    @property
    def problem_bytes(self) -> int:
        """The bytes one problem of a phase-2 stack from this start holds:
        B^-1 with the right-hand side, the reduced costs, and pricing's
        weights and bins over A's nonzeros."""
        m, n = self.eq_coeffs.shape
        return 8 * (m * (m + 1) + n + 2 * len(self.columns.nz_vals))


def phase1(eq_coeffs: np.ndarray, eq_rhs: np.ndarray,
           opt_tol: float = DEFAULT_OPT_TOL) -> Phase1:
    """Phase 1 of solve() for the constraints eq_coeffs @ x = eq_rhs, x >= 0;
    ValueError unless they are a matrix and one right-hand side per row, all
    finite."""
    A0, b0 = _checked_constraints(eq_coeffs, eq_rhs)
    m, n = A0.shape

    # sign-normalize so b >= 0; B^-1 starts as the identity, and the reduced
    # costs for maximizing -(sum of artificials) are A's column sums
    signs = np.where(b0 < 0, -1.0, 1.0)
    A, b = A0 * signs[:, None], b0 * signs
    cols = _Columns(A)
    tab = _engine(cols, np.eye(m), b, range(n, n + m), np.zeros((1, n)), float("inf"),
                  opt_tol, 0, 500 * (m + n) + 2000)
    tab.d[:] = tab.price(np.ones((1, m)))

    _, unbounded = tab.run()
    if unbounded[0]:
        raise NumericError("phase-1 objective reported unbounded; cannot happen")
    artificial = tab.basis[0] >= n
    infeasibility = float(tab.W[0, artificial, -1].sum())
    search_iterations = tab.iterations

    # drive leftover artificials out of the basis, dropping redundant rows:
    # row r of the tableau is row r of B^-1 times A.  Each entry is a
    # candidate where it exceeds _PIVOT_TOL times the size of the terms it
    # sums, when that exceeds 1: on a redundant row every entry is
    # round-off of an exact zero, of the order of those terms times the
    # unit round-off, which grows with B^-1
    keep, abs_A = [], np.abs(A)
    for r in range(m):
        if tab.basis[0, r] < n:
            keep.append(r)
            continue
        row = tab.price(tab.W[0, r:r + 1, :-1])[0]
        terms = np.abs(tab.W[0, r, :-1]) @ abs_A
        candidates = np.nonzero(np.abs(row) > _PIVOT_TOL * np.maximum(terms, 1.0))[0]
        if len(candidates):
            keep.append(r)
            tab.pivot(np.array([r]), candidates[:1])
    # a dropped row's artificial stayed basic, so its column of B^-1 is that
    # row's unit vector and the kept rows and columns invert the kept basis
    inverse = tab.W[0][np.ix_(keep, keep)]
    # the kept rows as a view of their C-contiguous transpose, which
    # _Columns then keeps without a copy
    A_kept, b_kept, rhs = A[keep].T.copy().T, b[keep], tab.W[0, keep, -1]
    for arr in (inverse, A_kept, b_kept, rhs):
        arr.flags.writeable = False
    return Phase1(shape=(m, n), opt_tol=opt_tol, infeasibility=infeasibility,
                  search_iterations=search_iterations, iterations=tab.iterations,
                  eq_coeffs=A_kept, eq_rhs=b_kept, inverse=inverse, rhs=rhs,
                  basis=tuple(tab.basis[0, keep].tolist()),
                  min_pivot=float(tab.min_pivot[0]))


def _checked_start(A0: np.ndarray, b0: np.ndarray, start: Phase1 | None,
                   opt_tol: float) -> Phase1:
    """start, after checking it is for A0's shape at opt_tol and that b0
    has one finite entry per row, or phase 1 run here, which checks the
    constraints."""
    if start is None:
        return phase1(A0, b0, opt_tol)
    if start.shape != A0.shape or start.opt_tol != opt_tol:
        raise ValueError(
            f"phase-1 start is for a {start.shape} problem at opt_tol "
            f"{start.opt_tol}, not {A0.shape} at {opt_tol}")
    if b0.shape != start.shape[:1]:
        raise ValueError(f"eq_rhs must have length {start.shape[0]}")
    if not np.isfinite(b0).all():
        raise ValueError("eq_rhs contains non-finite entries")
    return start


def _phase2_basis(start: Phase1, n: int) -> np.ndarray:
    """The start's basis as an index array; every basic column must be real."""
    basis = np.array(start.basis, dtype=np.int64)
    if (basis >= n).any():
        raise NumericError("artificial variable left in the basis after cleanup")
    return basis


def _optimal(A0: np.ndarray, b0: np.ndarray, C: np.ndarray, basis: np.ndarray,
             rhs: np.ndarray, iterations: np.ndarray, min_pivot: np.ndarray,
             start: Phase1, feas_tol: float) -> list[LpSolution]:
    """The solutions at a stack of optimal bases, one per row of C: in
    problem i, basic variable basis[i, r] takes rhs[i, r], after
    iterations[i] pivots.  A sign or residual check raises on the first
    failing problem in stack order."""
    X = np.zeros((len(C), A0.shape[1]))
    X[np.arange(len(C))[:, None], basis] = rhs
    lowest = X.min(axis=1)
    negative = np.flatnonzero(lowest < -feas_tol)
    if len(negative):
        raise NumericError(f"optimal basis has a negative variable: {lowest[negative[0]]}")
    np.clip(X, 0.0, None, out=X)
    bound = feas_tol * (1.0 + np.abs(b0).max(initial=0.0))
    resid = np.abs((A0 @ X[:, :, None])[:, :, 0] - b0).max(axis=1, initial=0.0)
    over = np.flatnonzero(resid > bound)
    if len(over):
        raise NumericError(f"constraint residual {resid[over[0]]} exceeds tolerance")
    values = (C[:, None] @ X[:, :, None])[:, 0, 0].tolist()
    return [LpSolution(status="optimal", values=x, objective_value=value,
                       iterations=count, phase1_iterations=start.iterations,
                       min_pivot=smallest)
            for x, value, count, smallest in zip(X, values, iterations.tolist(),
                                                 min_pivot.tolist())]


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
    return solve_many(problem.objective[None], problem.eq_coeffs, problem.eq_rhs, start,
                      feas_tol=feas_tol, opt_tol=opt_tol)[0]


def solve_many(objectives, eq_coeffs, eq_rhs, start: Phase1 | None = None,
               feas_tol: float = DEFAULT_FEAS_TOL,
               opt_tol: float = DEFAULT_OPT_TOL) -> list[LpSolution]:
    """solve() for each row of objectives over the same constraints.

    The result at index i is the one solve(LpProblem(objectives[i],
    eq_coeffs, eq_rhs), feas_tol, opt_tol, start) returns: phase 2 runs on
    a stack of problems, and a problem leaves the stack when it is optimal
    or unbounded.  Each problem's basis, right-hand side, pivot count and
    smallest pivot are kept when it stops, and the solutions are built in
    one pass at the end.  So an engine error is raised in the round it
    occurs, and a failed sign or residual check once the stack has
    stopped, on the first failing problem in stack order; either is an
    error that problem's own solve raises.  Without a start, phase 1
    checks the constraints; with one, eq_rhs is checked against it (one
    finite entry per row) and the caller vouches for eq_coeffs.
    """
    A0 = np.asarray(eq_coeffs, dtype=float)
    b0 = np.asarray(eq_rhs, dtype=float)
    start = _checked_start(A0, b0, start, opt_tol)
    n = start.shape[1]
    C = np.asarray(objectives, dtype=float)
    if C.ndim != 2 or C.shape[1] != n:
        raise ValueError(f"objectives must be a (k, {n}) array")
    if not np.isfinite(C).all():
        raise ValueError("objectives contain non-finite entries")
    if not len(C):
        return []
    if start.infeasibility > feas_tol:
        return [LpSolution(status="infeasible", iterations=start.search_iterations,
                           phase1_iterations=start.search_iterations,
                           min_pivot=start.min_pivot) for _ in C]

    # phase 2: reduced costs c - (c_B B^-1) A for each real objective
    basis0 = _phase2_basis(start, n)
    tab = _engine(start.columns, start.inverse, start.rhs, basis0, C, start.min_pivot,
                  opt_tol, start.iterations, 500 * sum(start.shape) + 2000)
    tab.d -= tab.price((C[:, None, basis0] @ start.inverse)[:, 0])
    tab.d[:, basis0] = 0.0
    live = np.arange(len(C))            # the problem in each stack slot
    # where each problem stopped: its basis, right-hand side, pivot count
    # and smallest pivot
    basis, rhs = np.empty_like(tab.basis), np.empty(tab.basis.shape)
    iterations = np.empty(len(C), dtype=np.int64)
    min_pivot = np.empty(len(C))
    is_unbounded = np.zeros(len(C), dtype=bool)
    while len(live):
        optimal, unbounded = tab.run()
        going = ~(optimal | unbounded)
        done = live[optimal]
        basis[done], rhs[done] = tab.basis[optimal], tab._rhs[optimal]
        iterations[live[~going]] = tab.iterations
        min_pivot[live[~going]] = tab.min_pivot[~going]
        is_unbounded[live[unbounded]] = True
        live = live[going]
        if len(live):
            tab.keep(going)
    del tab                             # the stack goes before the solutions are built

    solutions: list[LpSolution | None] = [None] * len(C)
    for i in np.flatnonzero(is_unbounded).tolist():
        solutions[i] = LpSolution(status="unbounded", iterations=int(iterations[i]),
                                  phase1_iterations=start.iterations,
                                  min_pivot=float(min_pivot[i]))
    done = np.flatnonzero(~is_unbounded)
    for i, sol in zip(done.tolist(), _optimal(A0, b0, C[done], basis[done], rhs[done],
                                              iterations[done], min_pivot[done], start,
                                              feas_tol)):
        solutions[i] = sol
    return solutions
