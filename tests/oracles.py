"""Independent reference implementations used to cross-check the package.

Everything in here is deliberately written the slow, obvious way --
exhaustive enumeration, closed-form eigenvalues, brute force over all
orientations -- so that agreement with the fast code under test means
something.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from operator import add

import numpy as np

from expanderlp import tanner_graph
from expanderlp.certificate import (CertifyResult, DualWitness, WitnessCheck,
                                    build_witness_from_orientation,
                                    build_witness_from_peeling, check_witness,
                                    find_error_core, peel)
from expanderlp.errors import GraphConstructionError, NoValidThetaError, NumericError
from expanderlp.expander_code import check_word, compute_theta, hamming_distance
from expanderlp.lp_core import (_PIVOT_TOL, DEFAULT_FEAS_TOL, DEFAULT_OPT_TOL, LpProblem,
                                LpSolution)
from expanderlp.lp_decoder import DEFAULT_INT_TOL, cost_from_received, decode
from expanderlp.ml_oracle import ScanReport, ml_decode
from expanderlp.orientation import OrientationFailure, orient


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


def connected_by_search(n, edges):
    """Depth-first search over the edge list: is every vertex of both
    sides reachable from A vertex 0?"""
    neighbours = {}
    for a, b in edges:
        neighbours.setdefault(("a", a), []).append(("b", b))
        neighbours.setdefault(("b", b), []).append(("a", a))
    seen = {("a", 0)}
    stack = [("a", 0)]
    while stack:
        for u in neighbours.get(stack.pop(), []):
            if u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == 2 * n


def random_regular_bipartite_one_at_a_time(n, delta, seed):
    """tanner_graph.random_regular_bipartite drawing one rng.permutation(n)
    per attempt and testing it against a set of the edge numbers a*n + b.
    Where a matching is not found within the draw limit, it hands the
    matchings left to tanner_graph._augmented_matching, as the sampler
    does.  It reads tanner_graph's attempt limits and fallback when called,
    so a patched one holds here too."""
    n_graphs, n_matchings = tanner_graph._GRAPH_ATTEMPTS, tanner_graph._MATCHING_ATTEMPTS
    if not 1 <= delta <= n:
        raise GraphConstructionError(f"need 1 <= delta <= n, got delta={delta}, n={n}")
    rng = np.random.default_rng(seed)
    row_start = range(0, n * n, n)      # edge (a, b) is the number a*n + b
    for _ in range(n_graphs):
        used: set[int] = set()
        for j in range(delta):
            for _ in range(n_matchings):
                perm = rng.permutation(n).tolist()
                if used.isdisjoint(map(add, row_start, perm)):
                    used.update(map(add, row_start, perm))
                    break
            else:
                for _ in range(j, delta):
                    free = np.ones((n, n), dtype=bool)
                    free.flat[sorted(used)] = False
                    used.update(map(add, row_start,
                                    tanner_graph._augmented_matching(free, rng).tolist()))
                break
        edges = [divmod(e, n) for e in sorted(used)]
        try:
            return tanner_graph.TannerGraph(n, delta, edges)
        except ValueError:
            continue   # disconnected sample; try again
    raise GraphConstructionError(
        f"no connected sample in {n_graphs} attempts (n={n}, delta={delta})")


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


def scan_range_by_word(code, start, stop, int_tol=DEFAULT_INT_TOL,
                       feas_tol=DEFAULT_FEAS_TOL, opt_tol=DEFAULT_OPT_TOL):
    """The agreement scan of received words start..stop-1, one word at a
    time: word i spells i in base q, most significant symbol first, and
    each word gets its own ml_decode and decode."""
    q = code.field.q
    length = code.graph.num_edges
    report = ScanReport(total_words=0, integral_count=0,
                        fractional_count=0, tie_count=0)
    for index in range(start, stop):
        y = np.empty(length, dtype=np.int64)
        for j in range(length - 1, -1, -1):
            y[j] = index % q
            index //= q
        oracle = ml_decode(code, y)
        result = decode(code, y, int_tol=int_tol, feas_tol=feas_tol, opt_tol=opt_tol)
        report.total_words += 1
        if oracle.tie:
            report.tie_count += 1
        if result.status == "codeword":
            report.integral_count += 1
            lp_dist = result.distance_to(y)
            if lp_dist != oracle.distance:
                report.mismatches.append({
                    "word": y.tolist(),
                    "lp_distance": int(lp_dist),
                    "oracle_distance": int(oracle.distance),
                })
        else:
            report.fractional_count += 1
    return report


# -- the decoding LP with edge variables ----------------------------------------
# The full primal of Feldman, Wainwright & Karger: f[e, alpha] per edge and
# symbol plus w[v, j] per vertex and local codeword.  build_reduced, which
# decode() solves, is checked against it.

@dataclass
class PrimalLayout:
    """Index bookkeeping for the full primal LP's flat variable vector."""

    q: int
    num_edges: int
    n: int
    block_a: int     # local codewords per A vertex
    block_b: int

    @property
    def f_count(self) -> int:
        return self.num_edges * self.q

    @property
    def w_start_a(self) -> int:
        return self.f_count

    @property
    def w_start_b(self) -> int:
        return self.f_count + self.n * self.block_a

    @property
    def num_vars(self) -> int:
        return self.w_start_b + self.n * self.block_b

    def w_slice(self, side: str, v: int) -> slice:
        if side == "a":
            start = self.w_start_a + v * self.block_a
            return slice(start, start + self.block_a)
        start = self.w_start_b + v * self.block_b
        return slice(start, start + self.block_b)


def build_primal(code, y):
    """The full decoding LP for the received word y, and its layout.

    Rows: one convexity row per vertex, then per edge e the 2q
    marginalization rows f[e, alpha] = (w mass at e's A endpoint with alpha
    at e), and the same for the B endpoint.
    """
    q = code.field.q
    graph = code.graph
    n, num_edges = graph.n, graph.num_edges
    w = check_word(y, q, num_edges)

    cw_a = code.code_a.codewords()
    cw_b = code.code_b.codewords()
    layout = PrimalLayout(q=q, num_edges=num_edges, n=n,
                          block_a=cw_a.shape[0], block_b=cw_b.shape[0])
    rows = 2 * n + 2 * q * num_edges
    A = np.zeros((rows, layout.num_vars))
    b = np.zeros(rows)
    b[: 2 * n] = 1.0

    for v in range(n):
        A[v, layout.w_slice("a", v)] = 1.0
        A[n + v, layout.w_slice("b", v)] = 1.0

    # f coefficients: +1 in the marginalization row of both endpoints
    e_ids = np.repeat(np.arange(num_edges), 2 * q)
    alphas = np.tile(np.concatenate([np.arange(q), np.arange(q)]), num_edges)
    A[2 * n + np.arange(2 * q * num_edges), e_ids * q + alphas] = 1.0

    # w coefficients: -1 wherever a local codeword pins this edge to alpha
    for v in range(n):
        sl = layout.w_slice("a", v)
        cols = np.arange(sl.start, sl.stop)
        for t in range(graph.delta):
            e = int(graph.a_edges[v, t])
            A[2 * n + e * 2 * q + cw_a[:, t], cols] = -1.0
    for v in range(n):
        sl = layout.w_slice("b", v)
        cols = np.arange(sl.start, sl.stop)
        for t in range(graph.delta):
            e = int(graph.b_edges[v, t])
            A[2 * n + e * 2 * q + q + cw_b[:, t], cols] = -1.0

    objective = np.zeros(layout.num_vars)
    objective[: layout.f_count] = (-cost_from_received(w, q)).ravel()
    return LpProblem(objective=objective, eq_coeffs=A, eq_rhs=b), layout


# -- the simplex, one tableau at a time ----------------------------------------
# The dense tableau simplex: one tableau, one pivot per step, the full
# outer-product update and the column-by-column tie-break, under lp_core's
# entering rule, lexicographic ratio test and checks.  It is the reference
# tests/golden/lp_solves.json pins, bit for bit.  lp_core's revised engine
# keeps B^-1 where this keeps the whole tableau, so its floats, and on wide
# LPs its pivots, differ; its status and objective must agree with this
# one's.  Its ratio test also scales the pivot tolerance by the entering
# column's largest magnitude above 1, where this one keeps it fixed.

def pivot_dense(self, row, col):
    """A pivot as one full outer-product update of the whole tableau.

    Adding 0.0 turns a product's -0.0 into +0.0, as a sum of products
    started at zero does, so the signs of zeros match lp_core's too."""
    T = self.T
    piv_row = T[row] / T[row, col]
    body_col = T[:, col].copy()
    T -= np.outer(body_col, piv_row) + 0.0
    T[row] = piv_row
    T[:, col] = 0.0
    T[row, col] = 1.0
    self.z -= self.z[col] * piv_row + 0.0
    self.z[col] = 0.0
    self.basis[row] = col
    self.iterations += 1


def leaving_column_by_column(self, col):
    """The lexicographic ratio test breaking ties one basis-inverse column at
    a time; None when the column has no positive entry."""
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


class ReferenceTableau:
    """One simplex tableau.  T is (rows, n + m + 1): the n real columns, the
    m columns that started as the identity, the right-hand side; z holds the
    reduced costs, minus the objective last; basis[r] is row r's column."""

    pivot = pivot_dense
    leaving = leaving_column_by_column

    def __init__(self, T, n_real, basis, opt_tol=DEFAULT_OPT_TOL):
        self.T, self.n, self.basis, self.opt_tol = T, n_real, list(basis), opt_tol
        self.z = np.zeros(T.shape[1])
        self.max_iters = 500 * (T.shape[1] - 1) + 2000
        self.iterations = 0

    def run(self):
        """Pivot to optimality; returns 'optimal' or 'unbounded'."""
        while True:
            if self.iterations > self.max_iters:
                raise NumericError(
                    f"simplex exceeded {self.max_iters} iterations; likely numeric trouble")
            rc = self.z[:self.n]
            col = int(np.argmax(rc))
            if rc[col] <= self.opt_tol:
                return "optimal"
            row = self.leaving(col)
            if row is None:
                return "unbounded"
            self.pivot(row, col)


def solve_by_reference(problem, feas_tol=DEFAULT_FEAS_TOL, opt_tol=DEFAULT_OPT_TOL):
    """The dense tableau simplex on one problem: phase 1 from the artificial
    basis, the leftover artificials driven out and redundant rows dropped,
    then phase 2, with lp_core.solve's checks and messages."""
    A0, b0, c = problem.eq_coeffs, problem.eq_rhs, problem.objective
    m, n = A0.shape
    signs = np.where(b0 < 0, -1.0, 1.0)
    T = np.zeros((m, n + m + 1))
    T[:, :n] = A0 * signs[:, None]
    T[:, n:n + m] = np.eye(m)
    T[:, -1] = b0 * signs
    tab = ReferenceTableau(T, n, range(n, n + m), opt_tol)
    tab.z[:n] = T[:, :n].sum(axis=0)
    tab.z[-1] = T[:, -1].sum()
    if tab.run() == "unbounded":
        raise NumericError("phase-1 objective reported unbounded; cannot happen")
    if tab.z[-1] > feas_tol:
        return LpSolution(status="infeasible", iterations=tab.iterations,
                          phase1_iterations=tab.iterations)
    drop = []
    for r in range(m):
        if tab.basis[r] < n:
            continue
        candidates = np.nonzero(np.abs(tab.T[r, :n]) > _PIVOT_TOL)[0]
        if len(candidates) == 0:
            drop.append(r)
        else:
            tab.pivot(r, int(candidates[0]))
    keep = [r for r in range(m) if r not in drop]
    tab.T, tab.basis = tab.T[keep], [tab.basis[r] for r in keep]
    phase1_iterations = tab.iterations
    if any(j >= n for j in tab.basis):
        raise NumericError("artificial variable left in the basis after cleanup")
    cb = c[tab.basis]
    tab.z[:n] = c - cb @ tab.T[:, :n]
    tab.z[n:-1] = -(cb @ tab.T[:, n:-1])
    tab.z[-1] = -(cb @ tab.T[:, -1])
    if tab.run() == "unbounded":
        return LpSolution(status="unbounded", iterations=tab.iterations,
                          phase1_iterations=phase1_iterations)
    x = np.zeros(n)
    for r, j in enumerate(tab.basis):
        x[j] = tab.T[r, -1]
    if x.min(initial=0.0) < -feas_tol:
        raise NumericError(f"optimal basis has a negative variable: {x.min()}")
    x = np.clip(x, 0.0, None)
    resid = np.abs(A0 @ x - b0).max() if m else 0.0
    if resid > feas_tol * (1.0 + np.abs(b0).max(initial=0.0)):
        raise NumericError(f"constraint residual {resid} exceeds tolerance")
    return LpSolution(status="optimal", values=x, objective_value=float(c @ x),
                      iterations=tab.iterations, phase1_iterations=phase1_iterations)


def lift_f_by_edge(code, raw_w):
    """decode's f lift as one bincount per (A vertex, position): f[e] is the
    A endpoint's w mass per symbol at e."""
    graph = code.graph
    q = code.field.q
    cw_a = code.code_a.codewords()
    f = np.zeros((graph.num_edges, q))
    for v in range(graph.n):
        wa = raw_w[0][v]
        for t in range(graph.delta):
            f[int(graph.a_edges[v, t])] = np.bincount(cw_a[:, t], weights=wa, minlength=q)
    return f


# -- the peel on sets, one edge at a time -------------------------------------

def peel_by_sets(code, c, y):
    """certificate.peel on frozensets, with one Counter per round.

    Returns (vertex_sets, edge_sets, terminated_empty, released):
    vertex_sets[i] holds the global ids kept on side i % 2, edge_sets[i] is
    E_{i+1}, and released maps each error edge to the side of the round
    after the last set that holds it (0 for A, 1 for B).
    """
    cw = np.asarray(c, dtype=np.int64)
    yw = check_word(y, code.field.q, code.num_edges)
    sides = list(zip((code.code_a, code.code_b), code.graph.ends.tolist()))
    e1 = frozenset(int(e) for e in np.nonzero(cw != yw)[0])
    vsets = [frozenset(ends[e] for e in e1) for _, ends in sides]
    esets = [e1]
    empty = not e1
    i = 2
    unchanged_streak = 0
    while not empty and unchanged_streak < 2:
        local, ends = sides[i % 2]
        other_ends = sides[1 - i % 2][1]
        prev_vs = vsets[i - 2]
        cur_edges = esets[-1]
        held = Counter(ends[e] for e in cur_edges)
        d_side = local.min_distance()[0]
        vi = frozenset(v for v in prev_vs if 4 * held[v] >= d_side)
        ei = frozenset(e for e in cur_edges if ends[e] in vi and other_ends[e] in vsets[i - 1])
        changed = (vi != prev_vs) or (ei != cur_edges)
        vsets.append(vi)
        esets.append(ei)
        empty = not ei
        unchanged_streak = 0 if changed else unchanged_streak + 1
        i += 1
    released = {e: idx % 2 for idx, eset in enumerate(esets) for e in eset}
    return vsets, esets, empty, released


# -- witnesses at other margins, and the search over a halving eps schedule ---

def remargin_witness(witness, epsilon):
    """A written witness with its margin moved from witness.epsilon to
    epsilon: a value h/2 - k*witness.epsilon becomes h/2 - k*epsilon, with
    k = 1 exactly when twice the value is not an integer (k = 0 otherwise).
    Equal values share one new value object, as in a written witness."""
    shift = witness.epsilon - epsilon
    moved = {v: v if (2 * v).denominator == 1 else v + shift
             for row in itertools.chain(witness.tau_a, witness.tau_b) for v in row}
    return DualWitness(tau_a=[[moved[v] for v in row] for row in witness.tau_a],
                       tau_b=[[moved[v] for v in row] for row in witness.tau_b],
                       epsilon=epsilon)


def find_witness_by_halving(code, c, y, mode="peel", epsilon_start=Fraction(1, 10**6),
                            epsilon_floor=Fraction(1, 10**12)):
    """find_witness as a search: recheck the witness at epsilon_start,
    epsilon_start/2, ... down to epsilon_floor, and report the first eps
    whose witness passes the exact check."""
    cw = np.asarray(c, dtype=np.int64)
    yw = check_word(y, code.field.q, code.num_edges)
    if mode == "peel":
        trace = peel(code, cw, yw)
        if not trace.terminated_empty:
            core = find_error_core(code, trace)
            return CertifyResult(witness_found=False, mode=mode, core=core,
                                 reason="peeling stagnated on an error core")
        witness = build_witness_from_peeling(code, cw, yw, trace)
    else:
        delta = code.graph.delta
        try:
            caps = [int(compute_theta(local.relative_distance, delta) * delta / 4)
                    for local in (code.code_a, code.code_b)]
        except NoValidThetaError as exc:
            return CertifyResult(witness_found=False, mode=mode, reason=str(exc))
        oriented = orient(code.graph, np.flatnonzero(cw != yw).tolist(), *caps)
        if isinstance(oriented, OrientationFailure):
            return CertifyResult(witness_found=False, mode=mode,
                                 reason=f"no orientation within caps "
                                        f"({oriented.violations} residual violations)")
        witness = build_witness_from_orientation(code, cw, yw, oriented)

    eps, last_violation = epsilon_start, None
    while eps >= epsilon_floor:
        candidate = remargin_witness(witness, eps)
        result = check_witness(code, cw, yw, candidate)
        if result.ok:
            return CertifyResult(witness_found=True, mode=mode, epsilon=eps,
                                 witness=candidate)
        last_violation = result.violation
        eps /= 2
    return CertifyResult(witness_found=False, mode=mode,
                         reason=f"no feasible epsilon above the floor "
                                f"(last violation: {last_violation})")


# -- exact witness check and codeword test, one constraint at a time -----------

def check_witness_by_fraction(code, c, y, witness):
    """check_witness as one Fraction sum per constraint, in the order the
    violations are reported; the first violation found is returned.  Each
    value is taken as the exact Fraction it stands for, so a total is
    quoted as an exact Fraction whatever type the values have."""
    graph = code.graph
    q = code.field.q
    cw = np.asarray(c, dtype=np.int64)
    yw = np.asarray(y, dtype=np.int64)
    if not code.is_codeword(cw):
        raise ValueError("c must be a codeword")
    eps = witness.epsilon
    if eps <= 0:
        return WitnessCheck(ok=False, violation="epsilon must be positive")

    for e in range(graph.num_edges):
        c_e = int(cw[e])
        y_e = int(yw[e])
        for alpha in range(q):
            cost = Fraction(-1 if alpha == y_e else 1)
            total = Fraction(witness.tau_a[e][alpha]) + Fraction(witness.tau_b[e][alpha])
            if alpha == c_e:
                if total > cost:
                    return WitnessCheck(
                        ok=False,
                        violation=f"weak edge constraint at edge {e}, symbol {alpha}: "
                                  f"{total} > {cost}")
            elif total > cost - eps:
                return WitnessCheck(
                    ok=False,
                    violation=f"strict edge constraint at edge {e}, symbol {alpha}: "
                              f"{total} > {cost} - eps")

    half_delta = Fraction(graph.delta, 2)
    n = graph.n
    for side, codewords, inc in (("a", code.code_a.codewords(), graph.a_edges),
                                 ("b", code.code_b.codewords(), graph.b_edges)):
        taus = witness.tau_a if side == "a" else witness.tau_b
        for v in range(n):
            edges = [int(e) for e in inc[v]]
            # the bound is fixed by c and y alone
            rhs = -half_delta + hamming_distance(yw[inc[v]], cw[inc[v]])
            for b in codewords:
                total = sum((Fraction(taus[e][int(sym)]) for e, sym in zip(edges, b)),
                            Fraction(0))
                if total < rhs:
                    return WitnessCheck(
                        ok=False,
                        violation=f"vertex constraint at {side}{v}, local codeword "
                                  f"{b.tolist()}: {total} < {rhs}")
    return WitnessCheck(ok=True)


def vertex_totals_by_positions(values, code):
    """certificate._vertex_totals as the check once summed it: per side, the
    (n, K_s) totals over each vertex's edges of values[s, e, a] at local
    codeword k's symbol a, one position t at a time (Delta takes and Delta-1
    adds in the values' own dtype).  A list of the two sides' arrays."""
    q = code.field.q
    totals = []
    for s, (local, inc) in enumerate(((code.code_a, code.graph.a_edges),
                                      (code.code_b, code.graph.b_edges))):
        # cells[t, v, k]: the flat index of edge inc[v, t] at codeword k's symbol
        cells = inc.T[:, :, None] * q + local.codewords().T[:, None, :]
        flat = values[s].reshape(-1)
        side = flat.take(cells[0])
        for at_t in cells[1:]:
            side = side + flat.take(at_t)
        totals.append(side)
    return totals


def is_codeword_by_vertex(code, word):
    """ExpanderCode.is_codeword as one local syndrome per vertex."""
    w = np.asarray(word, dtype=np.int64)
    for local, inc in ((code.code_a, code.graph.a_edges), (code.code_b, code.graph.b_edges)):
        H = local.parity_check
        if H.shape[0] == 0:
            continue
        for v in range(code.graph.n):
            if mat_vec_by_tables(H, w[inc[v]], code.field).any():
                return False
    return True


def rref_by_tables(mat, gf):
    """gflinalg.rref with every row operation a full-row table lookup."""
    R = np.array(mat, dtype=np.int64)
    rows, cols = R.shape
    add, mul = gf.add_table, gf.mul_table
    inv, neg = gf.inv_table, gf.neg_table
    pivots = []
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


def null_space_by_tables(mat, gf):
    """gflinalg.null_space on rref_by_tables, free columns by membership test."""
    M = np.asarray(mat, dtype=np.int64)
    cols = M.shape[1]
    R, pivots = rref_by_tables(M, gf)
    free = [c for c in range(cols) if c not in pivots]
    basis = np.zeros((len(free), cols), dtype=np.int64)
    basis[np.arange(len(free)), free] = 1
    basis[:, pivots] = gf.neg_table[R[:, free]].T
    return basis


def mat_vec_by_tables(mat, vec, gf):
    """mat @ vec over GF(q), one table-driven column at a time."""
    M = np.asarray(mat, dtype=np.int64)
    v = np.asarray(vec, dtype=np.int64)
    acc = np.zeros(M.shape[0], dtype=np.int64)
    add, mul = gf.add_table, gf.mul_table
    for j in range(M.shape[1]):
        if v[j]:
            acc = add[acc, mul[M[:, j], int(v[j])]]
    return acc


def mat_mul_by_tables(a, b, gf):
    """a @ b over GF(q), one table-driven outer product per inner index."""
    A = np.asarray(a, dtype=np.int64)
    B = np.asarray(b, dtype=np.int64)
    add, mul = gf.add_table, gf.mul_table
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    for k in range(A.shape[1]):
        out = add[out, mul[A[:, k][:, None], B[k][None, :]]]
    return out
