"""A dense-tableau two-phase primal simplex for equality-form LPs.

Problems are   maximize c.x   subject to   A x = b,  x >= 0.

Phase 1 starts from an all-artificial basis and maximizes minus the sum of
the artificials; a row whose artificial cannot be driven out afterwards is
redundant and gets dropped, with its artificial column.  The other
artificial columns stay in the tableau the whole time — they start as the
identity, so they always hold the current basis inverse — but an artificial
that left the basis can never come back, because the entering rule only
looks at real columns.

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

One engine takes every pivot: _Simplex runs a stack of k >= 1 tableaux
over the same columns in lockstep, with one entering rule, one ratio test,
one rank-1 update and one loop.  phase1 runs it on a stack of one, solve
is solve_many of one objective, and solve_many runs phase 2 for many
objectives over one set of constraints: the problems share the
constraints, the phase-1 start and the Python work of each round, and a
problem leaves the stack when it is optimal or unbounded.  The problems
left move to the front of the same tableau array, and the dense update
of a stack of many forms its products in one buffer, from one set of
padded operands, that hold half of it (in two chunks while the stack is
larger).  With the starting-cost products and the saved bases, a stack of
k tableaux peaks at about 1.96 k tableaux of memory (tracemalloc, a stack
of 100 K3,3 decoding LPs, 16 x 40 each; the operands are (2/rows +
2/columns) / 2 of the stack, 0.09 of it here).  An engine error (the
iteration cap, an unseparable tie) is raised in the round it occurs; the
solutions, with their sign and residual checks, are built once the whole
stack has stopped, so such a check raises on the first failing problem in
stack order.  The starting reduced costs, residuals and c.x are matmuls over a
singleton axis, which run item by item the kernel of the one-problem
product: (k, 1, m) @ (m, p) the vector-matrix call of cb @ M, (m, n) @
(k, n, 1) the matrix-vector call of A0 @ x, (k, 1, n) @ (k, n, 1) the dot
of c @ x.  So a problem's pivots and outputs do not depend on the rest of
the stack.  A 2-D (k, m) @ (m, p) product (a matrix-matrix kernel) breaks
this, and so does slicing the product: (cb @ T0)[:n] is not bit-equal to
cb @ T0[:, :n].

Two shortcuts make each pivot cheaper without changing which pivot is
taken.  The tie-break sorts only the tied rows' keys and skips the columns
where they all agree.  When the pivot columns are nonzero in at most a
quarter of the stack's rows, the update touches only the block of rows
where some pivot column is nonzero and columns where some pivot row is;
einsum forms those products, adding each to zero, so a zero product is
+0.0, and t - (+0.0) leaves every entry outside the block as it is, the
sign of a zero included, as the full update does.

The dense update forms its products c_i p_j as a BLAS matrix product with
an inner dimension of two: the pivot column c beside a zero column, times
the divided pivot row p above a zero row.  Each entry is then c_i p_j plus
0 * 0.  In whatever order the kernel sums the two, and whether or not it
fuses a multiply with the add, the result is c_i p_j correctly rounded
(subnormal, or zero, if it underflows) plus an exact +0.0: einsum's bits,
the sign of a zero product included.  numpy calls BLAS with beta = 0, so
the buffer's old contents never enter.  An inner dimension of one would be
exact too, but OpenBLAS runs that shape on a slow path, about three times
einsum's time; np.outer or a broadcast multiply keeps a -0.0 product,
which turns a -0.0 entry it is subtracted from into +0.0.  The
subtraction stays a numpy step of its own, part -= products: a fused
update (dger, or GEMM with beta = 1) may round t - c_i p_j once, not
twice, and change bits.  So every entry, and the sign of every zero, is
what an einsum product and the same subtraction leave, in any chunk.

A stack of many forms its products for up to half of it at a time, as
above.  A stack of one (a decode, a sweep trial, phase 1) forms them a
block of rows at a time, in a buffer of _BLOCK_BYTES, so each block's
products are subtracted while they are still in the core's cache; one
whole-tableau product made the sweep code's decodes slower (see
_BLOCK_BYTES).

tests/oracles.py keeps the one-tableau loop with the plain outer-product
update and the column-by-column tie-break as the reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError

_PIVOT_TOL = 1e-9
DEFAULT_FEAS_TOL = 1e-8
DEFAULT_OPT_TOL = 1e-9
# a stack of one forms the dense update's products in row blocks of at most
# this many bytes.  On a 2-vCPU Xeon (2 MiB L2, one OpenBLAS thread), one
# whole-tableau product made the sweep code's decodes 2-8% slower
# (interleaved in one process); 256 KiB read ~5% faster on the 97 x 865
# decode tableau but 7-17% slower on the sweep (short perfbench pairs)
_BLOCK_BYTES = 128 * 1024


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
    """

    status: str
    values: np.ndarray | None = None
    objective_value: float | None = None
    iterations: int = field(default=0)
    phase1_iterations: int = field(default=0)


class _Simplex:
    """The simplex engine: a stack of k >= 1 tableaux that pivot in lockstep.

    T has shape (k, rows + 1, n + m + 1).  Its columns are, per problem, the
    n real columns, then the m columns that started as the identity
    (artificials, later the basis inverse; a phase-1 start keeps only those
    of the rows it kept), then the right-hand side.  Its
    last row holds the reduced costs, with minus the objective in the last
    column, so every pivot updates them with the constraint rows.
    basis[s, r] is the column basic in row r of problem s, an index >= n an
    artificial.  Every round pivots every problem of the stack once, so they
    share one pivot count, capped at 500*(m+n) + 2000 for an m x n problem:
    max_iters, or by default from the width of a tableau that keeps all m
    artificial columns.

    Each problem has its own pivot row and column, so they are read and
    written through flat indices into the stack: one gather or scatter
    each, however many problems the stack holds.  T and basis are the
    arrays the engine was given, C-contiguous: keep() compacts the live
    problems into their first slots, and T is a view of those.
    """

    def __init__(self, T: np.ndarray, basis: np.ndarray, n_real: int, opt_tol: float,
                 iterations: int = 0, max_iters: int | None = None):
        self.n = n_real
        self.opt_tol = opt_tol
        self.iterations = iterations
        k, height, width = T.shape
        self.max_iters = 500 * (width - 1) + 2000 if max_iters is None else max_iters
        # the dense update's products and padded operands (see the module
        # docstring): a stack of many forms them for up to half of it at a
        # time, a stack of one for a block of rows at a time
        self._half = (k + 1) // 2
        self._block_rows = max(1, min(height, _BLOCK_BYTES // (8 * width)))
        self._outer = np.empty((self._half * height if k > 1 else self._block_rows) * width)
        self._col_pad = np.zeros((self._half, height, 2))
        self._row_pad = np.zeros((self._half, 2, width))
        # flat offsets: problem s's first row among all rows, and the first
        # cell of its row r among all cells.  keep() compacts the stack into
        # its first slots, so the first k' entries serve a stack of k'.
        self._all_slots = np.arange(k)
        self._all_first_rows = self._all_slots * height
        self._all_row_starts = np.arange(k * height).reshape(k, height) * width
        self._all_T, self._all_basis = T, basis
        self._all_cells = T.reshape(-1)
        self._view(k)

    def _view(self, k: int) -> None:
        """Work on the stack's first k slots."""
        self.T, self.basis = self._all_T[:k], self._all_basis[:k]
        width = self.T.shape[2]
        self._slots = self._all_slots[:k]
        self._each_slot = list(range(k))
        self._first_row, self._row_start = self._all_first_rows[:k], self._all_row_starts[:k]
        self._cells, self._rows = self.T.reshape(-1), self.T.reshape(-1, width)
        self._basic = self.basis.reshape(-1)
        self._costs, self._rhs = self.T[:, -1, :self.n], self.T[:, :-1, -1]
        # the dense update's chunks: (operands to write first, part of the
        # stack, its operands, its products).  A stack of one forms its
        # products a block of rows at a time, from operands written once for
        # the whole tableau; a larger stack is one chunk while it fits the
        # buffer, else two halves, each written to the same operands in turn
        height, half, step = self.T.shape[1], self._half, self._block_rows
        spans = [slice(0, k)] if k <= half else [slice(0, half), slice(half, k)]
        blocks = [slice(r, r + step) for r in range(0, height, step)] if k == 1 else [slice(None)]
        self._chunks = []
        for s in spans:
            lhs, rhs = self._col_pad[:s.stop - s.start], self._row_pad[:s.stop - s.start]
            fill = (s, lhs[:, :, 0], rhs[:, 0])
            for i, r in enumerate(blocks):
                part = self.T[s, r]
                self._chunks.append((None if i else fill, part, lhs[:, r], rhs,
                                     self._outer[:part.size].reshape(part.shape)))

    def keep(self, going: np.ndarray) -> None:
        """Keep only the problems where the mask going is set, at least one:
        they move, in slot order, to the front of the same arrays.

        Each run of kept slots moves as one block of cells; a 1-D copy
        onto a lower offset of the same array needs no temporary, so the
        stack never holds a second copy of itself.
        """
        kept = np.flatnonzero(going)
        size = self._all_T[0].size
        # kept[lo:hi] is a run of consecutive slots, moved to slots lo..hi-1
        breaks = (np.flatnonzero(kept[1:] - kept[:-1] != 1) + 1).tolist()
        for lo, hi in zip([0] + breaks, breaks + [len(kept)]):
            src = int(kept[lo])
            if src != lo:
                self._all_cells[lo * size:hi * size] = \
                    self._all_cells[src * size:(src + hi - lo) * size]
        self._all_basis[:len(kept)] = self.basis[kept]
        self._view(len(kept))

    def pivot(self, rows: np.ndarray, cols: np.ndarray) -> None:
        """Pivot problem s on (rows[s], cols[s]), for every s."""
        col_cells = self._row_start + cols[:, None]
        self._pivot(rows, cols[:, None], col_cells, self._cells[col_cells])

    def _pivot(self, rows, cols, col_cells, col) -> None:
        """pivot() given the (k, 1) columns and their cells and entries,
        as run() has them from the entering rule."""
        T = self.T
        at = self._first_row + rows
        # x / x is exactly 1, so the pivot row written last puts the 1 in
        piv_rows = self._rows[at] / col.take(at[:, None])
        if 4 * np.count_nonzero(col[:, :-1]) <= col.size - len(col):
            # the update is zero outside the rows where a pivot column is
            # nonzero and the columns where a pivot row is; skipping it
            # leaves every entry as the full update would
            nonzero = col.any(axis=0).nonzero()[0]
            used = piv_rows.any(axis=0).nonzero()[0]
            T[np.ix_(self._slots, nonzero, used)] -= np.einsum(
                "si,sj->sij", col[:, nonzero], piv_rows[:, used])
        else:
            # each entry gets the same product and subtraction, in whichever
            # chunk it falls
            for fill, part, lhs, rhs, out in self._chunks:
                if fill:
                    s, col_in, row_in = fill
                    col_in[...], row_in[...] = col[s], piv_rows[s]
                part -= np.matmul(lhs, rhs, out=out)
        self._cells[col_cells] = 0.0
        self._rows[at] = piv_rows
        self._basic[at - self._slots] = cols[:, 0]   # basis has no cost row
        self.iterations += 1

    def _leaving(self, col: np.ndarray) -> np.ndarray | None:
        """The row the lexicographic ratio test picks in problem s for the
        entering column whose entries, cost row last, are col[s]; None when
        some problem's column has no positive entry.

        A ratio is NaN where the column is not positive, so the least ratio
        skips those rows and is NaN only where there are none.  Rows tied at
        the least ratio compare their basis-inverse rows over their pivot
        entries, left to right: the candidates are sorted by problem, then
        by those keys, skipping the columns where every candidate agrees.
        """
        body = col[:, :-1]
        ratios = self._rhs / np.where(body > _PIVOT_TOL, body, np.nan)
        least = np.fmin.reduce(ratios, axis=1, keepdims=True, initial=np.nan)
        slot, rows = (ratios == least).nonzero()
        if slot.tolist() == self._each_slot:     # one row in every problem
            return rows
        if np.isnan(least).any():
            return None
        keys = self.T[slot, rows, self.n:-1] / body[slot, rows, None]
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
            cols = self._costs.argmax(axis=1, keepdims=True)
            col_cells = self._row_start + cols
            col = self._cells[col_cells]
            # the stop checks use Python lists: on the few problems of a
            # stack they cost less than a numpy reduction per round
            if min(col[:, -1].tolist()) <= self.opt_tol:
                return col[:, -1] <= self.opt_tol, np.zeros(len(col), dtype=bool)
            rows = self._leaving(col)
            if rows is None:
                return np.zeros(len(col), dtype=bool), ~(col[:, :-1] > _PIVOT_TOL).any(axis=1)
            self._pivot(rows, cols, col_cells, col)


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
    pivots, with redundant rows and their artificial columns dropped; the
    tableau is read-only.
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
    """Phase 1 of solve() for the constraints eq_coeffs @ x = eq_rhs, x >= 0;
    ValueError unless they are a matrix and one right-hand side per row, all
    finite."""
    A0, b0 = _checked_constraints(eq_coeffs, eq_rhs)
    m, n = A0.shape

    # sign-normalize so b >= 0; aux block starts as the identity; the last
    # row holds the reduced costs for maximizing -(sum of artificials)
    signs = np.where(b0 < 0, -1.0, 1.0)
    T = np.zeros((1, m + 1, n + m + 1))
    T[0, :m, :n] = A0 * signs[:, None]
    T[0, :m, n:n + m] = np.eye(m)
    T[0, :m, -1] = b0 * signs
    T[0, m, :n] = T[0, :m, :n].sum(axis=0)
    T[0, m, -1] = T[0, :m, -1].sum()         # negative of the phase-1 objective
    tab = _Simplex(T, np.arange(n, n + m)[None], n, opt_tol)

    _, unbounded = tab.run()
    if unbounded[0]:
        raise NumericError("phase-1 objective reported unbounded; cannot happen")
    infeasibility = float(tab.T[0, -1, -1])
    search_iterations = tab.iterations

    # drive leftover artificials out of the basis, dropping redundant rows
    keep = []
    for r in range(m):
        if tab.basis[0, r] < n:
            keep.append(r)
            continue
        candidates = np.nonzero(np.abs(tab.T[0, r, :n]) > _PIVOT_TOL)[0]
        if len(candidates):
            keep.append(r)
            tab.pivot(np.array([r]), candidates[:1])
    # a dropped row's artificial stayed basic, so its column is that row's
    # unit vector, +-0 in every kept row: phase 2 never enters it, and keys
    # of +-0 never separate a tie, so the column goes with its row
    columns = [*range(n), *(n + r for r in keep), n + m]
    tableau = tab.T[0][np.ix_(keep, columns)]
    tableau.flags.writeable = False
    return Phase1(shape=(m, n), opt_tol=opt_tol, infeasibility=infeasibility,
                  search_iterations=search_iterations, iterations=tab.iterations,
                  tableau=tableau, basis=tuple(tab.basis[0, keep].tolist()))


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
             rhs: np.ndarray, iterations: np.ndarray, start: Phase1,
             feas_tol: float) -> list[LpSolution]:
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
                       iterations=count, phase1_iterations=start.iterations)
            for x, value, count in zip(X, values, iterations.tolist())]


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
    a stack of tableaux, one per problem, and a problem leaves the stack
    when it is optimal or unbounded.  Each problem's basis, right-hand side
    and pivot count are kept when it stops, and the solutions are built in
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
    if start.infeasibility > feas_tol:
        return [LpSolution(status="infeasible", iterations=start.search_iterations,
                           phase1_iterations=start.search_iterations) for _ in C]

    # phase 2: fresh reduced costs for each real objective
    T0 = start.tableau
    basis0 = _phase2_basis(start, n)
    T = np.empty((len(C), T0.shape[0] + 1, T0.shape[1]))
    T[:, :-1] = T0
    cb = C[:, None, basis0]
    T[:, -1:, :n] = C[:, None] - cb @ T0[:, :n]
    T[:, -1:, n:-1] = -(cb @ T0[:, n:-1])
    T[:, -1:, -1:] = -(cb @ T0[:, -1:])
    tab = _Simplex(T, np.repeat(basis0[None], len(C), axis=0), n, opt_tol, start.iterations,
                   max_iters=500 * sum(start.shape) + 2000)
    live = np.arange(len(C))            # the problem in each stack slot
    # where each problem stopped: its basis, right-hand side and pivot count
    basis, rhs = np.empty_like(tab.basis), np.empty(tab.basis.shape)
    iterations = np.empty(len(C), dtype=np.int64)
    is_unbounded = np.zeros(len(C), dtype=bool)
    while len(live):
        optimal, unbounded = tab.run()
        going = ~(optimal | unbounded)
        done = live[optimal]
        basis[done], rhs[done] = tab.basis[optimal], tab.T[optimal, :-1, -1]
        iterations[live[~going]] = tab.iterations
        is_unbounded[live[unbounded]] = True
        live = live[going]
        if len(live):
            tab.keep(going)
    del T, tab                          # the stack goes before the solutions are built

    solutions: list[LpSolution | None] = [None] * len(C)
    for i in np.flatnonzero(is_unbounded).tolist():
        solutions[i] = LpSolution(status="unbounded", iterations=int(iterations[i]),
                                  phase1_iterations=start.iterations)
    done = np.flatnonzero(~is_unbounded)
    for i, sol in zip(done.tolist(), _optimal(A0, b0, C[done], basis[done], rhs[done],
                                              iterations[done], start, feas_tol)):
        solutions[i] = sol
    return solutions
