"""Primal LP relaxation of nearest-neighbor decoding, and its solver wrapper.

Variables: one f[e, alpha] per edge e and symbol alpha (the relaxed indicator
that edge e carries alpha), plus one w[v, j] per vertex v and local codeword
j (the relaxed indicator that v's neighborhood equals that local codeword).

Constraints: the w block of every vertex sums to 1, and for both endpoints
of every edge, f[e, alpha] equals the total w mass of local codewords whose
symbol at that edge is alpha.  Objective: maximize sum(-cost * f) where
cost[e, alpha] is -1 when alpha matches the received symbol and +1 otherwise.
For the indicator embedding of a word z this objective evaluates to
|E| - 2*dist(y, z), so over embedded codewords the LP ranks exactly by
Hamming distance from the received word y.

Every codeword's embedding is feasible, and any feasible integral point is a
codeword's embedding, so an integral LP optimum is a nearest codeword.

The solver never sees this edge-variable form: build_reduced eliminates f
and keeps only the w blocks, and decode lifts f back from the optimum.

The received word enters only the objective, so the constraints, and
simplex phase 1 on them, are the same for every decode of a code.  Both are
cached per code (a weak-keyed table, so an entry lives as long as its code;
one phase-1 result per opt_tol): the first decode of a code pays for
assembly and phase 1, and every later one builds an objective and runs
phase 2 from the cached phase-1 state.  That is the state phase 1 reaches
on every run, so the pivots, the results and the reported iteration counts,
which include the phase-1 pivots, are those of a decode from scratch.
map_with_code runs jobs on a process pool that hands each worker the code
once, so each worker's cache stays warm across its jobs.

decode_many decodes a stack of received words.  Their LPs share the
constraints and the phase-1 start, so lp_core.solve_many solves them in
lockstep, as many per stack as fit in STACK_BYTES (512 KiB), at the
phase-1 start's problem_bytes a problem (B^-1 with the basic values, the
reduced costs, and pricing's weights and bins); the objectives are built
with one gather, and the optima lifted, rounded and checked as codewords,
a stack at a time, by the code decode uses.  The budget bounds the stack's
memory, whose peak is about 1.5 times the budgeted bytes (1.47 on 100
K3,3 LPs, tracemalloc; the rank-1 update's products are as large as
B^-1): the scan's ~16-row LPs fit ~170 to a stack, the 96 x 768 LP of a
12-vertex parity code 4, and the sweep's 320 x 160 (159 rows kept) 2.

build_reduced hands each decode a copy of one cached LpProblem, so the
constraints it shares are checked once per code, not once per decode, and
its phase-1 starts hold those same arrays.
"""

from __future__ import annotations

import copy
import functools
import weakref
from dataclasses import dataclass, field

import numpy as np

from . import lp_core
from .errors import InternalInvariantError, NotIntegralError
from .expander_code import ExpanderCode, check_word, hamming_distance
from .lp_core import LpProblem, LpSolution

DEFAULT_INT_TOL = 1e-6

# decode_many's memory per stack of LPs, as Phase1.problem_bytes counts it
STACK_BYTES = 512 * 1024


def embed(word, q: int) -> np.ndarray:
    """The 0/1 indicator array of a word, shape (len(word), q)."""
    w = check_word(word, q)
    out = np.zeros((w.shape[0], q))
    out[np.arange(w.shape[0]), w] = 1.0
    return out


def unembed(blocks) -> np.ndarray:
    """Invert :func:`embed`; every row must be exactly a one-hot indicator."""
    f = np.asarray(blocks, dtype=float)
    if f.ndim != 2:
        raise NotIntegralError("expected a (length, q) block array")
    is_one = f == 1.0
    is_zero = f == 0.0
    if not np.all(is_one | is_zero) or not np.all(is_one.sum(axis=1) == 1):
        raise NotIntegralError("blocks are not one-hot indicators")
    return np.argmax(is_one, axis=1).astype(np.int64)


def cost_from_received(y, q: int) -> np.ndarray:
    """The (len(y), q) cost array: -1 at the received symbol, +1 elsewhere."""
    w = check_word(y, q)
    cost = np.ones((w.shape[0], q))
    cost[np.arange(w.shape[0]), w] = -1.0
    return cost


@dataclass
class _Polytope:
    """The y-independent part of one code's reduced LP: the LP with a zero
    objective, whose constraints LpProblem checked once and holds as
    read-only arrays, its first B-side column, and phase 1's result at each
    opt_tol a decode asked for."""

    problem: LpProblem
    first_b: int
    starts: dict[float, lp_core.Phase1] = field(default_factory=dict)


# one entry per live code; it goes when the code is garbage collected
_POLYTOPES: weakref.WeakKeyDictionary[ExpanderCode, _Polytope] = weakref.WeakKeyDictionary()


def _polytope(code: ExpanderCode) -> _Polytope:
    """The code's cached constraints, assembled on first use.

    The marginalization rows pin every f[e, alpha] to the w mass at either
    endpoint, so f is eliminated: there is one convexity row per vertex and,
    per edge, the q-1 constraints that the two endpoints' marginals agree
    (the last symbol's agreement is implied by the convexity rows).
    """
    entry = _POLYTOPES.get(code)
    if entry is not None:
        return entry
    q = code.field.q
    graph = code.graph
    n, num_edges = graph.n, graph.num_edges
    cw_a, cw_b = code.code_a.codewords(), code.code_b.codewords()
    first_b = n * len(cw_a)
    num_w = first_b + n * len(cw_b)
    rows = 2 * n + (q - 1) * num_edges
    A = np.zeros((rows, num_w))
    b = np.zeros(rows)
    b[: 2 * n] = 1.0
    # per side: its convexity rows start at row_off, its w blocks at col_off,
    # and its marginals enter the agreement rows with this sign
    for row_off, col_off, sign, cw, inc in ((0, 0, 1.0, cw_a, graph.a_edges),
                                            (n, first_b, -1.0, cw_b, graph.b_edges)):
        cols = col_off + np.arange(n * len(cw)).reshape(n, -1)
        A[row_off + np.arange(n)[:, None], cols] = 1.0
        # [v, j, t]: local codeword j at v puts symbol cw[j, t] on edge inc[v, t]
        symbols = np.broadcast_to(cw[None], (n,) + cw.shape)
        keep = symbols < q - 1
        marginal_rows = 2 * n + inc[:, None, :] * (q - 1) + symbols
        A[marginal_rows[keep], np.broadcast_to(cols[:, :, None], symbols.shape)[keep]] = sign
    A.flags.writeable = False
    b.flags.writeable = False
    entry = _POLYTOPES[code] = _Polytope(
        problem=LpProblem(objective=np.zeros(num_w), eq_coeffs=A, eq_rhs=b), first_b=first_b)
    return entry


def build_reduced(code: ExpanderCode, y) -> tuple[LpProblem, int]:
    """The decoding LP in w-only form, as decode() hands it to the solver.

    f is eliminated (see _polytope), and the objective sits on the A-side w
    blocks.  Compared with the edge-variable form this cuts the row count
    roughly fourfold and the variable count by q per edge; the f part of any
    solution is the A-side marginals.  The constraints do not depend on y:
    they are built once per code and shared, read-only, by every problem
    returned for it; only the objective is built per call.

    With K_a and K_b local codewords per vertex, A-side vertex v's block
    starts at column v*K_a and B-side vertex v's at n*K_a + v*K_b.  Returns
    the problem and its first B-side column, n*K_a.
    """
    w = check_word(y, code.field.q, code.num_edges)
    poly = _polytope(code)
    # a copy of the cached problem shares its constraints, checked once
    problem = copy.copy(poly.problem)
    problem.objective = _objectives(code, w[None])[0]
    return problem, poly.first_b


def _objectives(code: ExpanderCode, words: np.ndarray) -> np.ndarray:
    """The reduced LP's objective for each row of a (k, E) stack of checked
    received words: A-side block v, entry j, is the sum over v's edges of
    -cost at local codeword j's symbol."""
    q = code.field.q
    poly = _polytope(code)
    negc = np.where(words[:, :, None] == np.arange(q), 1.0, -1.0)
    # [i, v, j, t]: local codeword j at A vertex v puts cw_a[j, t] on edge a_edges[v, t]
    gains = negc[:, code.graph.a_edges[:, None, :], code.code_a.codewords()[None]]
    objectives = np.zeros((len(words), poly.problem.num_vars))
    objectives[:, :poly.first_b] = gains.sum(axis=3).reshape(len(words), -1)
    return objectives


def _phase1_start(code: ExpanderCode, opt_tol: float) -> lp_core.Phase1:
    """Phase 1 of the code's decoding LP at opt_tol, run on first use."""
    poly = _polytope(code)
    start = poly.starts.get(opt_tol)
    if start is None:
        start = poly.starts[opt_tol] = lp_core.phase1(poly.problem.eq_coeffs,
                                                      poly.problem.eq_rhs, opt_tol)
    return start


@dataclass
class DecodeResult:
    """Outcome of one LP decode.

    status 'codeword' means the LP optimum was integral; the decoded word is
    then a certified nearest codeword.  status 'fractional-failure' keeps
    the raw optimizer state for inspection.  raw_w holds the (n, K) A-side
    and B-side blocks of the LP solution, views into it: row v is vertex
    v's weight on each of its local codewords.  lp_iterations and min_pivot
    are the LP solution's pivot count and smallest pivot (see LpSolution).
    """

    status: str
    codeword: np.ndarray | None
    raw_f: np.ndarray
    raw_w: tuple[np.ndarray, np.ndarray]
    objective: float
    lp_iterations: int = 0
    min_pivot: float = float("inf")

    def distance_to(self, y) -> int | None:
        if self.codeword is None:
            return None
        return hamming_distance(self.codeword, y)


def decode(code: ExpanderCode, y,
           int_tol: float = DEFAULT_INT_TOL,
           feas_tol: float = lp_core.DEFAULT_FEAS_TOL,
           opt_tol: float = lp_core.DEFAULT_OPT_TOL) -> DecodeResult:
    """Solve the decoding LP and round if the optimum is integral.

    The LP is always feasible (embed any codeword) and its objective is
    bounded by |E|, so any other solver status is an internal error.  For
    speed the solver is given the equivalent w-only system from
    build_reduced and the code's cached phase-1 start; f is lifted back as
    the A-side marginals, which the retained constraints force to agree
    with the B-side ones.  ValueError unless each tolerance is finite and >= 0.
    """
    lp_core.check_tolerance("int_tol", int_tol)
    problem, first_b = build_reduced(code, y)
    sol: LpSolution = lp_core.solve(problem, feas_tol=feas_tol, opt_tol=opt_tol,
                                    start=_phase1_start(code, opt_tol))
    return _decoded(code, [sol], first_b, int_tol)[0]


def decode_many(code: ExpanderCode, ys,
                int_tol: float = DEFAULT_INT_TOL,
                feas_tol: float = lp_core.DEFAULT_FEAS_TOL,
                opt_tol: float = lp_core.DEFAULT_OPT_TOL) -> list[DecodeResult]:
    """[decode(code, y, ...) for y in ys], equal result by result.

    The LPs share their constraints and phase-1 start, so they are solved
    in stacks by lp_core.solve_many, as many per stack as fit in
    STACK_BYTES (512 KiB) at the start's problem_bytes each, and at least
    one; the objectives are built, and the optima lifted and rounded, a
    stack at a time.
    """
    q, num_edges = code.field.q, code.num_edges
    for name, tol in (("int_tol", int_tol), ("feas_tol", feas_tol), ("opt_tol", opt_tol)):
        lp_core.check_tolerance(name, tol)
    if not len(ys):
        return []
    words = check_word(ys, q, (None, num_edges))
    start = _phase1_start(code, opt_tol)
    per_stack = max(1, STACK_BYTES // start.problem_bytes)
    poly = _polytope(code)
    results: list[DecodeResult] = []
    for first in range(0, len(words), per_stack):
        sols = lp_core.solve_many(_objectives(code, words[first:first + per_stack]), start,
                                  feas_tol=feas_tol)
        results += _decoded(code, sols, poly.first_b, int_tol)
    return results


def _decoded(code: ExpanderCode, sols: list[LpSolution], first_b: int,
             int_tol: float) -> list[DecodeResult]:
    """The decode results of solutions of the code's reduced LP.

    f[e, alpha] is the w mass at e's A endpoint on local codewords with
    alpha at e; each bucket sums its codewords in order, as a per-edge
    bincount would.  A word is integral when every f entry is within
    int_tol of 0 or 1 and each edge has one entry near 1.
    """
    for sol in sols:
        if sol.status != "optimal":
            raise InternalInvariantError(
                f"decoding LP reported {sol.status}; it is feasible and bounded by design")
    n, q, num_edges = code.graph.n, code.field.q, code.num_edges
    k = len(sols)
    values = np.stack([sol.values for sol in sols])
    w_a = values[:, :first_b].reshape(k, n, -1)
    w_b = values[:, first_b:].reshape(k, n, -1)
    cw_a = code.code_a.codewords()
    # [i, v, t, j]: bucket of word i's edge a_edges[v, t] at symbol cw_a[j, t]
    index = (np.arange(k)[:, None, None, None] * (num_edges * q)
             + code.graph.a_edges[None, :, :, None] * q + cw_a.T[None, None])
    weights = np.broadcast_to(w_a[:, :, None, :], index.shape)
    f = np.bincount(index.ravel(), weights=weights.ravel(),
                    minlength=k * num_edges * q).reshape(k, num_edges, q)

    near_one = np.abs(f - 1.0) <= int_tol
    near_zero = np.abs(f) <= int_tol
    integral = ((near_one | near_zero).all(axis=(1, 2))
                & (near_one.sum(axis=2) == 1).all(axis=1))
    words = near_one.argmax(axis=2)
    if not code.codeword_mask(words[integral]).all():
        raise InternalInvariantError(
            "integral LP optimum is not a codeword; the polytope is broken")
    return [DecodeResult(status="codeword" if ok else "fractional-failure",
                         codeword=words[i] if ok else None, raw_f=f[i],
                         raw_w=(w_a[i], w_b[i]), objective=sol.objective_value,
                         lp_iterations=sol.iterations, min_pivot=sol.min_pivot)
            for i, (ok, sol) in enumerate(zip(integral.tolist(), sols))]


# the code a pool worker was started with (see map_with_code)
_WORKER_CODE: ExpanderCode | None = None


def _set_worker_code(code: ExpanderCode) -> None:
    global _WORKER_CODE
    _WORKER_CODE = code


def _call_with_worker_code(fn, job: tuple):
    return fn(_WORKER_CODE, *job)


def map_with_code(fn, code: ExpanderCode, jobs: list[tuple], workers: int) -> list:
    """[fn(code, *job) for job in jobs], in job order, on up to `workers`
    processes.

    Each worker receives the code once, when the pool starts it, and keeps
    that one object for all its jobs, so the decoding LP and phase 1 it
    builds on its first decode serve every later decode in that worker.
    Workers are spawned, not forked, so fn and the jobs must pickle and fn
    must be importable; results are those of the serial loop.
    """
    if workers <= 1:
        return [fn(code, *job) for job in jobs]
    # imported here: only a pool needs them, and at module level they cost
    # every process that imports the package ~1.2 MB of peak RSS and ~15 ms
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=workers,
                             mp_context=multiprocessing.get_context("spawn"),
                             initializer=_set_worker_code, initargs=(code,)) as pool:
        return list(pool.map(functools.partial(_call_with_worker_code, fn), jobs))
