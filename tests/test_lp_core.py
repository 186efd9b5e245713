"""Equality-form simplex, cross-checked against basis enumeration."""

import hashlib
import itertools
import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlp import ExpanderCode, LpProblem, NumericError, lp_core, solve
from expanderlp.harness import resolve_code, resolve_graph, sample_error_pattern
from expanderlp.lp_decoder import build_reduced

from oracles import (ReferenceTableau, leaving_column_by_column, lp_optimum_by_enumeration,
                     pivot_dense, solve_by_reference)


def make_bounded_problem(rng, m, n):
    """Random feasible LP whose region is bounded.

    Feasibility by construction (b = A @ x0 with x0 >= 0); boundedness by
    appending the row sum(x) = sum(x0), which traps the region in a simplex.
    """
    a = rng.integers(-4, 5, size=(m, n)).astype(float)
    x0 = rng.uniform(0.0, 3.0, size=n)
    x0[rng.random(n) < 0.3] = 0.0
    b = a @ x0
    a = np.vstack([a, np.ones(n)])
    b = np.append(b, x0.sum())
    c = rng.integers(-5, 6, size=n).astype(float)
    return LpProblem(objective=c, eq_coeffs=a, eq_rhs=b)


def test_textbook_two_variable_problem():
    # max 3x + 2y  s.t.  x + y <= 4,  x + 3y <= 6  (slacks s1, s2)
    problem = LpProblem(
        objective=[3.0, 2.0, 0.0, 0.0],
        eq_coeffs=[[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]],
        eq_rhs=[4.0, 6.0],
    )
    sol = solve(problem)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(12.0)
    assert sol.values[:2] == pytest.approx([4.0, 0.0])


def test_solution_satisfies_constraints():
    rng = np.random.default_rng(0)
    problem = make_bounded_problem(rng, 3, 6)
    sol = solve(problem)
    assert sol.status == "optimal"
    assert np.asarray(problem.eq_coeffs) @ sol.values == pytest.approx(
        np.asarray(problem.eq_rhs), abs=1e-7)
    assert sol.values.min() >= -1e-9


def test_infeasible_detected():
    # x + y = 1 and x + y = 2 cannot both hold
    problem = LpProblem(
        objective=[1.0, 0.0],
        eq_coeffs=[[1.0, 1.0], [1.0, 1.0]],
        eq_rhs=[1.0, 2.0],
    )
    assert solve(problem).status == "infeasible"


def test_infeasible_by_sign():
    # x + y = -3 has no nonnegative solution
    problem = LpProblem(objective=[1.0, 1.0], eq_coeffs=[[1.0, 1.0]], eq_rhs=[-3.0])
    assert solve(problem).status == "infeasible"


def test_unbounded_detected():
    # max x with only y pinned
    problem = LpProblem(objective=[1.0, 0.0], eq_coeffs=[[0.0, 1.0]], eq_rhs=[1.0])
    assert solve(problem).status == "unbounded"


def test_redundant_rows_are_harmless():
    problem = LpProblem(
        objective=[1.0, 1.0, 0.0],
        eq_coeffs=[[1.0, 1.0, 1.0], [2.0, 2.0, 2.0]],
        eq_rhs=[2.0, 4.0],
    )
    sol = solve(problem)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(2.0)


def test_cleanup_drops_a_redundant_row_whose_round_off_passes_the_pivot_tolerance():
    # row 4 is row 0 plus row 2, and x = (0, 1, 0, 1) is the one feasible
    # point.  Phase 1 leaves row 4's artificial basic; that row of the
    # tableau is zero in exact terms, but sums terms of size 2e6, and its
    # round-off reaches 1.8e-9.  A cleanup that takes any entry above
    # _PIVOT_TOL pivots on it into a singular basis, and phase 2 raises
    # NumericError on a negative variable; the bound scaled by the terms
    # drops the row
    A = np.array([[4.0, 2.0, 4.0, 3.0], [1.0, 1.0, -4e6, -1.0], [1.0, 2e6, 2.0, -2.0],
                  [4.0, 1.0, -4.0, 0.0], [5.0, 2000002.0, 6.0, 1.0]])
    b = np.array([5.0, 0.0, 1999998.0, 1.0, 2000003.0])
    start = lp_core.phase1(A, b)
    assert start.eq_rhs.tolist() == b[:4].tolist()
    assert start.min_pivot > 1e-8
    sol = solve(LpProblem([3.0, 1.0, 0.0, 0.0], A, b), start=start)
    assert sol.status == "optimal"
    assert np.abs(sol.values - [0.0, 1.0, 0.0, 1.0]).max() <= 1e-12
    assert sol.objective_value == pytest.approx(1.0)


def test_zero_rhs_degenerate_start():
    # the origin is the only feasible point
    problem = LpProblem(
        objective=[1.0, 1.0],
        eq_coeffs=[[1.0, 1.0], [1.0, -1.0]],
        eq_rhs=[0.0, 0.0],
    )
    sol = solve(problem)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(0.0)


def test_fractional_vertex_is_found():
    # max x + y  s.t.  2x + y <= 2,  x + 2y <= 2: optimum at (2/3, 2/3)
    problem = LpProblem(
        objective=[1.0, 1.0, 0.0, 0.0],
        eq_coeffs=[[2.0, 1.0, 1.0, 0.0], [1.0, 2.0, 0.0, 1.0]],
        eq_rhs=[2.0, 2.0],
    )
    sol = solve(problem)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(4 / 3)
    assert sol.values[0] == pytest.approx(2 / 3)


def test_deterministic_resolve():
    rng = np.random.default_rng(33)
    problem = make_bounded_problem(rng, 4, 7)
    a = solve(problem)
    b = solve(problem)
    assert a.status == b.status == "optimal"
    assert a.iterations == b.iterations
    assert np.array_equal(a.values, b.values)


def test_matches_enumeration_on_random_problems():
    rng = np.random.default_rng(7)
    checked = 0
    for _ in range(40):
        m = int(rng.integers(2, 5))
        n = int(rng.integers(m + 1, 8))
        problem = make_bounded_problem(rng, m, n)
        sol = solve(problem)
        status, best = lp_optimum_by_enumeration(
            problem.objective, problem.eq_coeffs, problem.eq_rhs)
        assert sol.status == "optimal"
        assert status == "optimal"
        assert sol.objective_value == pytest.approx(best, abs=1e-7)
        checked += 1
    assert checked == 40


def test_problem_validation():
    with pytest.raises(ValueError):
        LpProblem(objective=[1.0], eq_coeffs=[[1.0, 2.0]], eq_rhs=[1.0])
    with pytest.raises(ValueError):
        LpProblem(objective=[1.0, 2.0], eq_coeffs=[[1.0, 2.0]], eq_rhs=[1.0, 2.0])
    with pytest.raises(ValueError):
        LpProblem(objective=[np.nan, 1.0], eq_coeffs=[[1.0, 2.0]], eq_rhs=[1.0])


# constraints LpProblem refuses reach phase 1 through solve_many without a
# start: an infinite right-hand side once came back "optimal" with values
# [nan, inf], a NaN coefficient raised phase 1's "cannot happen" NumericError,
# and a short right-hand side a numpy broadcast error
@pytest.mark.parametrize("eq_coeffs, eq_rhs, message", [
    pytest.param(np.eye(2), [1.0, np.inf], "eq_rhs contains non-finite", id="inf-rhs"),
    pytest.param([[1.0, np.nan], [0.0, 1.0]], [1.0, 1.0], "eq_coeffs contains non-finite",
                 id="nan-coeff"),
    pytest.param(np.eye(2), [1.0], "eq_rhs must have length 2", id="short-rhs"),
])
def test_bad_constraints_rejected_before_phase1(eq_coeffs, eq_rhs, message):
    for call in (lambda: lp_core.solve_many(np.ones((1, 2)), eq_coeffs, eq_rhs),
                 lambda: lp_core.phase1(eq_coeffs, eq_rhs),
                 lambda: LpProblem(objective=[1.0, 1.0], eq_coeffs=eq_coeffs, eq_rhs=eq_rhs)):
        with pytest.raises(ValueError, match=message):
            call()


# with a start, solve_many checks eq_rhs against it: a short one used to raise
# a residual NumericError, and an infinite one came back "optimal"
@pytest.mark.parametrize("eq_rhs, message", [
    pytest.param([1.0], "eq_rhs must have length 2", id="short-rhs"),
    pytest.param([1.0, np.inf], "eq_rhs contains non-finite", id="inf-rhs"),
])
def test_rhs_checked_against_the_start(eq_rhs, message):
    start = lp_core.phase1(np.eye(2), [1.0, 2.0])
    with pytest.raises(ValueError, match=message):
        lp_core.solve_many(np.ones((1, 2)), np.eye(2), eq_rhs, start)


def test_iteration_budget_is_finite():
    rng = np.random.default_rng(12)
    problem = make_bounded_problem(rng, 5, 9)
    sol = solve(problem)
    assert sol.status == "optimal"
    assert sol.iterations < 1000


def tie_heavy_tableau(rng, m, n):
    """A tableau whose ratio tests tie often and deep.

    Most right-hand sides are zero, and the lower half of the rows repeat
    upper rows scaled by small integers (all entries are small integers, so
    scaled rows divide out to exactly equal keys).  Most repeats then differ
    from their source in one random basis-inverse column; the rest never do.
    """
    T = np.zeros((m, n + m + 1))
    T[:, :n] = rng.integers(-2, 3, size=(m, n))
    T[:, n:-1] = rng.integers(0, 2, size=(m, m)) * (rng.random((m, m)) < 0.2)
    T[:, -1] = np.where(rng.random(m) < 0.7, 0.0, rng.integers(1, 3, size=m))
    for r in range(m // 2, m):
        T[r] = rng.integers(1, 4) * T[rng.integers(0, m // 2)]
        if rng.random() < 0.8:
            T[r, n + rng.integers(0, m)] += 1.0
    return ReferenceTableau(T, n, range(n, n + m))


def engine_stack(tabs, A=None):
    """lp_core's engine over a stack of copies of reference tableaux: each
    problem's B^-1 and right-hand side are its tableau's columns that
    started as the identity and its last column, and its reduced costs the
    real part of its cost row.  A (all zero unless given) is what the
    engine prices the real columns through."""
    n, m = tabs[0].n, tabs[0].T.shape[0]
    A = np.zeros((m, n)) if A is None else A
    return lp_core._Revised(lp_core._Columns(A), np.stack([tab.T[:, n:] for tab in tabs]),
                            np.array([tab.basis for tab in tabs]),
                            np.stack([tab.z[:n] for tab in tabs]), np.full(len(tabs), np.inf),
                            tabs[0].opt_tol, 0, 10**9)


def _candidates(alpha):
    return alpha > lp_core._pivot_floor(alpha)


def test_leaving_matches_column_by_column_on_ties():
    # stacks of one and of five tie-heavy tableaux: the engine's row in each
    # problem is the reference's; a problem without a positive entry makes
    # it report None, and otherwise an unseparable tie raises.  The entries
    # are small integers, so the engine's scaled zero test and the
    # reference's fixed one pick the same candidates
    rng = np.random.default_rng(2024)
    multi_row_ties = unseparable = 0
    for k in (1, 5):
        for _ in range(60):
            m = int(rng.integers(4, 30))
            tabs = [tie_heavy_tableau(rng, m, 6) for _ in range(k)]
            engine = engine_stack(tabs)
            for col in range(6):
                expected = []
                for tab in tabs:
                    try:
                        expected.append(leaving_column_by_column(tab, col))
                    except NumericError:
                        expected.append("raised")
                    colvals = tab.T[:, col]
                    pos = np.flatnonzero(colvals > 1e-9)
                    ratios = tab.T[pos, -1] / colvals[pos]
                    multi_row_ties += np.count_nonzero(ratios == ratios.min(initial=np.inf)) > 2
                alpha = np.stack([tab.T[:, col] for tab in tabs])
                if None in expected:
                    assert engine._leaving(alpha, _candidates(alpha)) is None
                elif "raised" in expected:
                    with pytest.raises(NumericError, match="could not separate candidate rows"):
                        engine._leaving(alpha, _candidates(alpha))
                    unseparable += 1
                else:
                    assert engine._leaving(alpha, _candidates(alpha)).tolist() == expected
    assert multi_row_ties > 100 and unseparable > 20


def test_pivot_floor_scales_with_the_entering_column():
    # up to a largest magnitude of 1 the bound is _PIVOT_TOL; above, it
    # grows with the column, so round-off of an exact zero in a large
    # column is no candidate (a GF(4) decoding LP once pivoted on 1.4e-9
    # in a column of size 2.6e4, and its basis was singular after)
    alpha = np.array([[0.5, -1.0, 2e-9], [26447.75, 1.4e-9, 0.0], [0.0, 0.0, 0.0]])
    assert lp_core._pivot_floor(alpha)[:, 0].tolist() == [
        lp_core._PIVOT_TOL, 26447.75 * lp_core._PIVOT_TOL, lp_core._PIVOT_TOL]
    assert _candidates(alpha).tolist() == [[True, False, True], [True, False, False],
                                           [False, False, False]]


@pytest.mark.parametrize("seed", range(4))
def test_sparse_and_dense_pivots_give_equal_tableaux(seed):
    # entering columns with few and with many nonzeros, in stacks of one
    # and six.  Some entries are -0.0, and some entries of the entering
    # columns and pivot rows are so small that their products are
    # subnormal or underflow to zero of either sign.  The update leaves
    # B^-1 and the right-hand side, every entry and its sign bit, as the
    # reference's outer-product update leaves the tableau's columns that
    # started as the identity and its last column
    rng = np.random.default_rng(seed)
    m, n = 40, 30
    scales = np.array([1.0, 2.0 ** -530, 2.0 ** -560])
    subnormal, signed_underflow = 0, 0
    for k in (1, 6):
        tabs = []
        for _ in range(k):
            T = rng.normal(size=(m, n + m + 1)) * (rng.random((m, n + m + 1)) < 0.3)
            T[rng.random(T.shape) < 0.2] = -0.0
            tabs.append(ReferenceTableau(T, n, range(n, n + m)))
        engine = engine_stack(tabs)
        for nnz_choices in ([1, 2], [10, 11, 25, m], [1, 2, 10, 11, 25, m]) * 4:
            rows, cols = [], []
            for s, tab in enumerate(tabs):
                col, nnz = int(rng.integers(0, n)), int(rng.choice(nnz_choices))
                rows_nz = rng.choice(m, size=nnz, replace=False)
                column = np.zeros(m)
                column[rows_nz] = (rng.uniform(0.5, 2.0, size=nnz)
                                   * rng.choice([-1.0, 1.0], size=nnz) * rng.choice(scales, size=nnz))
                column[rows_nz[0]] = rng.uniform(0.5, 2.0)
                tab.T[:, col] = column
                row_scales = rng.choice(scales, size=m + 1, p=[0.6, 0.2, 0.2])
                tab.T[rows_nz[0], n:] *= row_scales
                engine.W[s] = tab.T[:, n:]
                products = np.outer(column, tab.T[rows_nz[0], n:] / column[rows_nz[0]])
                nonzero = np.outer(column != 0, tab.T[rows_nz[0], n:] != 0)
                subnormal += np.count_nonzero(
                    (products != 0) & (np.abs(products) < np.finfo(float).tiny))
                signed_underflow += np.count_nonzero(nonzero & (products == 0) & np.signbit(products))
                rows.append(int(rows_nz[0]))
                cols.append(col)
            alpha = np.stack([tab.T[:, col] for tab, col in zip(tabs, cols)])
            cols = np.array(cols)
            engine._pivot(np.array(rows), cols, alpha, np.zeros(k), engine._d_rows + cols)
            for tab, row, col in zip(tabs, rows, cols):
                pivot_dense(tab, row, col)
            assert engine.W.tobytes() == np.stack([tab.T[:, n:] for tab in tabs]).tobytes()
            assert engine.basis.tolist() == [tab.basis for tab in tabs]
    assert subnormal > 100 and signed_underflow > 100


def _fields(sol):
    """Every field of a solution, values by their bytes and the objective by hex."""
    values = None if sol.values is None else sol.values.tobytes()
    objective = None if sol.objective_value is None else sol.objective_value.hex()
    return sol.status, values, objective, sol.iterations, sol.phase1_iterations


def _agree(sol, ref, b, feas_tol=lp_core.DEFAULT_FEAS_TOL):
    """sol has ref's status, and an objective within feas_tol * (1 + |b|_inf)
    of ref's."""
    assert sol.status == ref.status
    if sol.status == "optimal":
        bound = feas_tol * (1.0 + np.abs(b).max(initial=0.0))
        assert abs(sol.objective_value - ref.objective_value) <= bound


@pytest.mark.parametrize("graph, local, weight", [
    ("random:40:6:1", "repetition:2:6", 30),
    ("random:40:6:1", "repetition:2:6", 54),
    ("random:12:6:1", "parity:2:6", 3),
    ("random:12:6:1", "parity:2:6", 6),
])
def test_solve_takes_the_reference_pivots(graph, local, weight):
    # on the tall repetition LPs solve takes the dense reference's pivots and
    # returns its every field bit for bit.  On the wide parity LPs the revised
    # simplex's rounding breaks ties between entering columns otherwise, so
    # it reaches another optimal vertex: the reference's status and objective,
    # and a point of the constraints whose objective is its own
    g = resolve_graph(graph)
    code = ExpanderCode(g, resolve_code(local, g.delta), resolve_code(local, g.delta))
    rng = np.random.default_rng(weight)
    c = code.random_codeword(rng)
    problem, _ = build_reduced(code, sample_error_pattern(code, c, weight, rng))
    fast = solve(problem)
    reference = solve_by_reference(problem)
    assert fast.status == "optimal"
    if local.startswith("repetition"):
        assert _fields(fast) == _fields(reference)
        return
    b = problem.eq_rhs
    _agree(fast, reference, b)
    bound = lp_core.DEFAULT_FEAS_TOL * (1.0 + np.abs(b).max())
    assert fast.values.min() >= -bound
    assert np.abs(problem.eq_coeffs @ fast.values - b).max() <= bound
    assert abs(problem.objective @ fast.values - fast.objective_value) <= bound


@pytest.mark.parametrize("graph, local, dropped", [
    ("random:40:6:1", "repetition:2:6", 161),
    ("random:20:6:1", "repetition:3:6", 162),
    ("random:12:6:1", "parity:2:6", 0),
    ("complete:4", "grs:5:4:2", 0),
])
def test_start_drops_redundant_rows_artificial_columns(graph, local, dropped, monkeypatch):
    # a redundant row goes with its column of B^-1 (its artificial's, which
    # is zero in every kept row), so what is left inverts the kept rows'
    # basis and no column of it is all zero.  Solves from the start agree
    # with the reference, which keeps every row, under the whole problem's
    # iteration cap
    g = resolve_graph(graph)
    code = ExpanderCode(g, resolve_code(local, g.delta), resolve_code(local, g.delta))
    rng = np.random.default_rng(3)
    c = code.random_codeword(rng)
    problems = [build_reduced(code, sample_error_pattern(code, c, weight, rng))[0]
                for weight in (0, 3, 12)]
    A, b = problems[0].eq_coeffs, problems[0].eq_rhs
    start = lp_core.phase1(A, b)
    (m, n), rows = start.shape, len(start.basis)
    assert (m - rows, start.inverse.shape, start.eq_coeffs.shape) == (dropped, (rows, rows),
                                                                    (rows, n))
    assert (start.inverse != 0).any(axis=0).all()
    basis = start.eq_coeffs[:, list(start.basis)]
    assert np.abs(start.inverse @ basis - np.eye(rows)).max() < 1e-9
    assert np.abs(start.inverse @ start.eq_rhs - start.rhs).max() < 1e-9
    caps = []
    real_run = lp_core._Revised.run

    def recording_run(self):
        caps.append(self.max_iters)
        return real_run(self)

    monkeypatch.setattr(lp_core._Revised, "run", recording_run)
    for problem in problems:
        _agree(solve(problem, start=start), solve_by_reference(problem), b)
    assert set(caps) == {500 * (m + n) + 2000}


GOLDEN = json.loads((Path(__file__).parent / "golden" / "lp_solves.json").read_text())


def golden_fields(sol):
    """A solution as the golden file records it."""
    return {"status": sol.status, "iterations": sol.iterations,
            "phase1_iterations": sol.phase1_iterations,
            "objective": None if sol.objective_value is None else sol.objective_value.hex(),
            "values_sha256": (None if sol.values is None
                              else hashlib.sha256(sol.values.tobytes()).hexdigest())}


@pytest.mark.parametrize("case", sorted(GOLDEN["solve"]))
def test_solve_matches_the_golden(case):
    # recorded from the dense tableau simplex, whose pivots the reference
    # still takes bit for bit; solve, on its own float path, reaches the
    # same status and objective, and on the tall repetition LPs the same
    # pivot counts too
    graph, local, weight = case.split()
    g = resolve_graph(graph)
    code = ExpanderCode(g, resolve_code(local, g.delta), resolve_code(local, g.delta))
    rng = np.random.default_rng(int(weight))
    c = code.random_codeword(rng)
    problem, _ = build_reduced(code, sample_error_pattern(code, c, int(weight), rng))
    expected = GOLDEN["solve"][case]
    reference = solve_by_reference(problem)
    assert golden_fields(reference) == expected
    sol = solve(problem)
    _agree(sol, reference, problem.eq_rhs)
    if local.startswith("repetition"):
        assert (sol.iterations, sol.phase1_iterations) == (expected["iterations"],
                                                           expected["phase1_iterations"])


@pytest.mark.parametrize("rows", [0, 1], ids=["no-rows", "one-zero-row"])
def test_every_row_dropped(rows):
    # a single all-zero row is redundant and dropped in phase 1, leaving the
    # same empty basis as a problem with no rows at all
    A, b = np.zeros((rows, 1)), np.zeros(rows)
    up = solve(LpProblem(objective=[1.0], eq_coeffs=A, eq_rhs=b))
    assert up.status == "unbounded"
    down = solve(LpProblem(objective=[-1.0], eq_coeffs=A, eq_rhs=b))
    assert down.status == "optimal"
    assert down.values.tolist() == [0.0]
    assert down.objective_value == 0.0


# -- phase-1 starts -------------------------------------------------------------

def _outcome(run):
    """A solve's result as comparable values, or the error it raised."""
    try:
        sol = run()
    except NumericError as exc:
        return ("raised", str(exc))
    values = None if sol.values is None else sol.values.tobytes()
    return (sol.status, values, sol.objective_value, sol.iterations,
            sol.phase1_iterations)


@st.composite
def constraint_families(draw):
    """Small constraints with several objectives and feasibility tolerances.

    b leans to zero (degenerate starts).  An extra row may repeat a scaled
    row (redundant) or contradict one (infeasible), and a row sum(x) = s may
    bound the region; without it the LP can be unbounded.  Returns the
    constraints, the base rows (no repeat) and whether the repeat clashes.
    """
    m = draw(st.integers(1, 3))
    n = draw(st.integers(1, 5))
    A = np.array(draw(st.lists(st.lists(st.integers(-2, 2), min_size=n, max_size=n),
                               min_size=m, max_size=m)), dtype=float)
    b = np.array(draw(st.lists(st.sampled_from([0, 0, 0, 1, 2, -1]),
                               min_size=m, max_size=m)), dtype=float)
    if draw(st.booleans()):
        s = draw(st.integers(0, 3))
        A, b = np.vstack([A, np.ones(n)]), np.append(b, float(s))
    base_A, base_b = A, b
    repeat = draw(st.sampled_from(["none", "redundant", "clash"]))
    if repeat != "none":
        i = draw(st.integers(0, len(b) - 1))
        k = draw(st.sampled_from([1.0, 2.0, -1.0]))
        A = np.vstack([A, k * A[i]])
        b = np.append(b, k * b[i] + (1.0 if repeat == "clash" else 0.0))
    objectives = draw(st.lists(st.lists(st.integers(-3, 3), min_size=n, max_size=n),
                               min_size=3, max_size=3))
    feas_tols = draw(st.lists(st.sampled_from([1e-12, lp_core.DEFAULT_FEAS_TOL, 1e-3]),
                              min_size=3, max_size=3))
    return A, b, base_A, base_b, repeat == "clash", objectives, feas_tols


@settings(max_examples=200, deadline=None)
@given(constraint_families())
def test_one_start_serves_every_objective(family):
    A, b, base_A, base_b, clash, objectives, feas_tols = family
    try:
        start = lp_core.phase1(A, b)
    except NumericError as exc:
        start_error = ("raised", str(exc))
    else:
        start_error = None
    for c, feas_tol in zip(objectives, feas_tols):
        problem = LpProblem(objective=c, eq_coeffs=A, eq_rhs=b)
        cold = _outcome(lambda: solve(problem, feas_tol=feas_tol))
        warm = start_error or _outcome(lambda: solve(problem, feas_tol=feas_tol,
                                                     start=start))
        assert warm == cold
        # the enumeration oracle needs independent rows to find every vertex
        if (cold[0] == "raised" or feas_tol > lp_core.DEFAULT_FEAS_TOL
                or np.linalg.matrix_rank(base_A) < base_A.shape[0]):
            continue
        status, best = ("infeasible", None) if clash else lp_optimum_by_enumeration(
            c, base_A, base_b)
        if cold[0] == "optimal":
            assert status == "optimal"
            assert cold[2] == pytest.approx(best, abs=1e-7)
        else:
            # unbounded needs a feasible region; infeasible needs none
            assert status == ("optimal" if cold[0] == "unbounded" else "infeasible")


def test_feasibility_is_judged_per_call():
    # x + y = 1 and x + y = 1 + 1e-6: phase 1 ends with 1e-6 of artificial
    A, b = np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0 + 1e-6])
    start = lp_core.phase1(A, b)
    assert start.infeasibility == pytest.approx(1e-6)
    problem = LpProblem(objective=[1.0, 0.0], eq_coeffs=A, eq_rhs=b)
    for feas_tol, status in ((1e-8, "infeasible"), (1e-4, "optimal")):
        warm = solve(problem, feas_tol=feas_tol, start=start)
        assert warm.status == status
        assert _outcome(lambda: warm) == _outcome(lambda: solve(problem, feas_tol=feas_tol))


def test_infeasible_verdict_counts_the_phase_1_search(monkeypatch):
    # x = 2 and -y = 1: the search takes one pivot and driving the second
    # artificial out another; the verdict reports the search alone, as a
    # solve that stops at the verdict does
    A, b = np.array([[1.0, 0.0], [0.0, -1.0]]), np.array([2.0, 1.0])
    searched = []
    real_run = lp_core._Revised.run

    def recording_run(self):
        status = real_run(self)
        searched.append(self.iterations)
        return status

    monkeypatch.setattr(lp_core._Revised, "run", recording_run)
    start = lp_core.phase1(A, b)
    assert searched == [1] and start.iterations == 2
    problem = LpProblem(objective=[1.0, 1.0], eq_coeffs=A, eq_rhs=b)
    for sol in (solve(problem, start=start), solve(problem)):
        assert (sol.status, sol.iterations, sol.phase1_iterations) == ("infeasible", 1, 1)


def test_min_pivot_spans_both_phases():
    # x0 + 4 x1 = 4: phase 1 enters x1 on the pivot 4; maximizing x0, phase
    # 2 enters x0 on B^-1 a_0 = 1/4.  Without a pivot the smallest is inf
    A, b = np.array([[1.0, 4.0]]), np.array([4.0])
    start = lp_core.phase1(A, b)
    assert (start.iterations, start.min_pivot) == (1, 4.0)
    sol = solve(LpProblem(objective=[1.0, 0.0], eq_coeffs=A, eq_rhs=b), start=start)
    assert (sol.iterations, sol.min_pivot, sol.values.tolist()) == (2, 0.25, [4.0, 0.0])
    assert solve(LpProblem(objective=[0.0, 1.0], eq_coeffs=A, eq_rhs=b)).min_pivot == 4.0
    assert solve(LpProblem(objective=[1.0], eq_coeffs=np.zeros((0, 1)),
                           eq_rhs=np.zeros(0))).min_pivot == np.inf


def test_start_must_match_the_problem():
    rng = np.random.default_rng(5)
    problem = make_bounded_problem(rng, 3, 6)
    start = lp_core.phase1(problem.eq_coeffs, problem.eq_rhs)
    for arr in (start.eq_coeffs, start.eq_rhs, start.inverse, start.rhs):
        assert arr.flags.writeable is False
    other = make_bounded_problem(rng, 3, 7)
    with pytest.raises(ValueError, match="phase-1 start"):
        solve(other, start=start)
    with pytest.raises(ValueError, match="opt_tol"):
        solve(problem, opt_tol=1e-7, start=start)
    assert _outcome(lambda: solve(problem, start=start)) == _outcome(lambda: solve(problem))


def test_phase_counts_split_the_total():
    rng = np.random.default_rng(9)
    problem = make_bounded_problem(rng, 4, 8)
    start = lp_core.phase1(problem.eq_coeffs, problem.eq_rhs)
    sol = solve(problem, start=start)
    assert sol.phase1_iterations == start.iterations > 0
    assert sol.iterations >= sol.phase1_iterations


# -- many objectives in one stack ------------------------------------------------

def _each(objectives, A, b, start, feas_tol=lp_core.DEFAULT_FEAS_TOL):
    """solve() on each objective: its fields, or the NumericError it raised."""
    out = []
    for c in objectives:
        problem = LpProblem(objective=c, eq_coeffs=A, eq_rhs=b)
        try:
            out.append(_fields(solve(problem, feas_tol=feas_tol, start=start)))
        except NumericError as exc:
            out.append(("raised", str(exc)))
    return out


def _assert_many_matches_each(objectives, A, b, start, feas_tol=lp_core.DEFAULT_FEAS_TOL):
    each = _each(objectives, A, b, start, feas_tol)
    raised = [o for o in each if o[0] == "raised"]
    try:
        many = lp_core.solve_many(objectives, A, b, start, feas_tol=feas_tol)
    except NumericError as exc:
        # raised in the round where some problem's solve raises it
        assert ("raised", str(exc)) in raised
        return each
    assert not raised
    assert [_fields(sol) for sol in many] == each
    return each


@settings(max_examples=200, deadline=None)
@given(constraint_families())
def test_solve_many_equals_solve_per_objective(family):
    A, b, _, _, _, objectives, feas_tols = family
    try:
        start = lp_core.phase1(A, b)
    except NumericError as exc:
        with pytest.raises(NumericError, match=str(exc)):
            lp_core.solve_many(objectives, A, b)
        return
    for feas_tol in feas_tols:
        each = _assert_many_matches_each(objectives, A, b, start, feas_tol)
    if all(o[0] != "raised" for o in each):
        # without a start, phase 1 runs inside, as in solve
        assert [_fields(s) for s in lp_core.solve_many(objectives, A, b,
                                                       feas_tol=feas_tols[-1])] == each


@settings(max_examples=300, deadline=None)
@given(constraint_families())
def test_solve_agrees_with_the_reference_and_enumeration(family):
    # degenerate, redundant and clashing rows: solve reaches the dense
    # reference's status, and an objective within feas_tol * (1 + |b|_inf)
    # of the reference's and of the best basis by enumeration
    A, b, base_A, base_b, clash, objectives, feas_tols = family
    bound_of = lambda tol: tol * (1.0 + np.abs(b).max(initial=0.0))  # noqa: E731
    for c, feas_tol in zip(objectives, feas_tols):
        problem = LpProblem(objective=c, eq_coeffs=A, eq_rhs=b)
        got = _outcome(lambda: solve(problem, feas_tol=feas_tol))
        ref = _outcome(lambda: solve_by_reference(problem, feas_tol=feas_tol))
        assert got[0] == ref[0]
        if got[0] != "optimal":
            continue
        assert abs(got[2] - ref[2]) <= bound_of(feas_tol)
        # the enumeration oracle needs independent rows to find every vertex
        if (not clash and feas_tol <= lp_core.DEFAULT_FEAS_TOL
                and np.linalg.matrix_rank(base_A) == base_A.shape[0]):
            status, best = lp_optimum_by_enumeration(c, base_A, base_b)
            assert status == "optimal"
            assert abs(got[2] - best) <= bound_of(feas_tol)


@pytest.mark.parametrize("graph, local", [("complete:3", "parity:2:3"),
                                          ("cycle:3", "repetition:3:2"),
                                          ("complete:4", "parity:3:4")])
def test_solve_many_takes_each_problems_own_pivot_count(graph, local):
    # decoding LPs: most ratio tests tie, and problems leave the stack after
    # different numbers of phase-2 pivots
    g = resolve_graph(graph)
    code = ExpanderCode(g, resolve_code(local, g.delta), resolve_code(local, g.delta))
    rng = np.random.default_rng(13)
    problems = [build_reduced(code, rng.integers(0, code.field.q, size=code.num_edges))[0]
                for _ in range(40)]
    A, b = problems[0].eq_coeffs, problems[0].eq_rhs
    start = lp_core.phase1(A, b)
    each = _assert_many_matches_each(np.array([p.objective for p in problems]), A, b, start)
    phase2 = {o[3] - o[4] for o in each}
    assert len(phase2) >= 2
    for problem, fields in zip(problems, each):
        _agree(solve(problem, start=start), solve_by_reference(problem), b)


def test_solve_many_infeasible_start():
    # x + y = 1 and x + y = 1 + 1e-6: infeasible at 1e-8, feasible at 1e-4
    A, b = np.array([[1.0, 1.0], [1.0, 1.0]]), np.array([1.0, 1.0 + 1e-6])
    start = lp_core.phase1(A, b)
    objectives = [[1.0, 0.0], [0.0, 1.0], [-1.0, -1.0]]
    assert {o[0] for o in _assert_many_matches_each(objectives, A, b, start, 1e-8)} == {
        "infeasible"}
    assert {o[0] for o in _assert_many_matches_each(objectives, A, b, start, 1e-4)} == {
        "optimal"}


def _unseparable_start():
    """A start whose basis inverse has two equal rows: entering column 2
    ties them with equal keys, which no lexicographic comparison separates."""
    A = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, 1.0]])
    arrays = A, np.zeros(2), np.ones((2, 2)), np.zeros(2)
    for arr in arrays:
        arr.flags.writeable = False
    start = lp_core.Phase1(shape=(2, 3), opt_tol=lp_core.DEFAULT_OPT_TOL, infeasibility=0.0,
                           search_iterations=0, iterations=0, eq_coeffs=arrays[0],
                           eq_rhs=arrays[1], inverse=arrays[2], rhs=arrays[3], basis=(0, 1))
    return A, np.zeros(2), start


def test_solve_many_raises_the_unseparable_tie_as_solve_does():
    A, b, start = _unseparable_start()
    # the first objective enters column 2 and ties; the others stop at once
    objectives = [[0.0, 0.0, 1.0], [0.0, 0.0, -1.0], [1.0, 1.0, 0.0]]
    each = _each(objectives, A, b, start)
    assert each[0] == ("raised", "lexicographic ratio test could not separate candidate rows")
    assert [o[0] for o in each[1:]] == ["optimal", "optimal"]
    with pytest.raises(NumericError, match="could not separate candidate rows"):
        lp_core.solve_many(objectives, A, b, start)
    _assert_many_matches_each(objectives[1:], A, b, start)


def test_optimal_raises_the_first_failing_residual_in_stack_order():
    # x = 1, y = 2 at three optimal bases; only the middle problem's basic
    # values are off, then the last one's too, by more
    A, b = np.eye(2), np.array([1.0, 2.0])
    start = lp_core.phase1(A, b)
    C, basis = np.ones((3, 2)), np.array([[0, 1]] * 3)
    for rhs, residual in (([[1.0, 2.0], [1.0, 2.5], [1.0, 2.0]], 0.5),
                          ([[1.0, 2.0], [1.0, 2.5], [1.75, 2.0]], 0.5)):
        with pytest.raises(NumericError, match=f"^constraint residual {residual} exceeds"):
            lp_core._optimal(A, b, C, basis, np.array(rhs), np.zeros(3, dtype=np.int64),
                             np.ones(3), start, lp_core.DEFAULT_FEAS_TOL)


def test_solve_many_checks_its_inputs():
    rng = np.random.default_rng(5)
    problem = make_bounded_problem(rng, 3, 6)
    A, b = problem.eq_coeffs, problem.eq_rhs
    start = lp_core.phase1(A, b)
    with pytest.raises(ValueError, match="objectives"):
        lp_core.solve_many(np.ones((2, 5)), A, b, start)
    with pytest.raises(ValueError, match="non-finite"):
        lp_core.solve_many([[np.inf] + [0.0] * 5], A, b, start)
    other = make_bounded_problem(rng, 3, 7)
    with pytest.raises(ValueError, match="phase-1 start"):
        lp_core.solve_many(np.ones((2, 7)), other.eq_coeffs, other.eq_rhs, start)
    with pytest.raises(ValueError, match="opt_tol"):
        lp_core.solve_many(np.ones((2, 6)), A, b, start, opt_tol=1e-7)
    assert lp_core.solve_many(np.zeros((0, 6)), A, b, start) == []


def test_leaving_rows_matches_leaving_on_tie_heavy_stacks():
    # the ratio test on a stack of five picks, in each problem that has a
    # positive entry, the row it picks on that problem in a stack of one,
    # and raises where one of them raises
    rng = np.random.default_rng(2025)
    multi_row_ties = unseparable = 0
    for _ in range(60):
        m = int(rng.integers(4, 30))
        tabs = [tie_heavy_tableau(rng, m, 6) for _ in range(5)]
        for col in range(6):
            has_row = [bool((tab.T[:, col] > 1e-9).any()) for tab in tabs]
            stacked_tabs = [tab for tab, h in zip(tabs, has_row) if h]
            if not stacked_tabs:
                continue
            expected = []
            for tab in stacked_tabs:
                alpha = tab.T[None, :, col]
                single = engine_stack([tab])
                try:
                    expected.extend(single._leaving(alpha, _candidates(alpha)).tolist())
                except NumericError:
                    expected.append(None)
            stacked = engine_stack(stacked_tabs)
            alpha = np.stack([tab.T[:, col] for tab in stacked_tabs])
            if None in expected:
                with pytest.raises(NumericError, match="could not separate"):
                    stacked._leaving(alpha, _candidates(alpha))
                unseparable += 1
                continue
            assert stacked._leaving(alpha, _candidates(alpha)).tolist() == expected
            T = np.stack([tab.T for tab in tabs])
            colvals = T[:, :, col]
            pos = colvals > 1e-9
            ratios = np.where(pos, T[:, :, -1] / np.where(pos, colvals, 1.0), np.inf)
            multi_row_ties += int(((ratios == ratios.min(axis=1, keepdims=True))
                                   & pos).sum(axis=1).max() > 2)
    assert multi_row_ties > 50 and unseparable > 10


def _random_stack(rng, k, m, n):
    """k problems over one random sparse m x n A: a sparse B^-1 (the
    identity with a few more entries), a right-hand side and reduced costs,
    with zeros of both signs; returns the engine's arguments but A."""
    W = np.zeros((k, m, m + 1))
    W[:, :, :m] = np.eye(m)
    W[:, :, :m] += rng.normal(size=(k, m, m)) * (rng.random((k, m, m)) < 0.02)
    W[:, :, m] = rng.uniform(0.0, 2.0, size=(k, m)) * (rng.random((k, m)) < 0.5)
    W[rng.random(W.shape) < 0.05] = -0.0
    d = rng.normal(size=(k, n))
    basis = np.repeat(np.arange(n, n + m)[None], k, axis=0)
    return W, basis, d


def _engine_on(cols, W, basis, d):
    return lp_core._Revised(cols, W, basis, d, np.full(len(W), np.inf),
                            lp_core.DEFAULT_OPT_TOL, 0, 10**9)


def _safe_pivots(engine, rng):
    """An entering column per problem, and in it the row of the largest
    magnitude."""
    cols = rng.integers(0, engine.d.shape[1], size=len(engine.W))
    return np.abs(engine.column(cols)).argmax(axis=1), cols


@pytest.mark.parametrize("seed", range(4))
def test_stacked_pivot_is_pivot_bit_for_bit(seed):
    # B^-1 starts sparse and fills in: every entry of B^-1, the right-hand
    # side and the reduced costs, its sign bit included, the basis and the
    # smallest pivot are what pivoting each problem in a stack of one leaves
    rng = np.random.default_rng(seed)
    m, n, k = 40, 30, 6
    A = rng.integers(-2, 3, size=(m, n)) * (rng.random((m, n)) < 0.1)
    A[rng.integers(0, m, size=n), np.arange(n)] = 1      # no column is all zero
    cols = lp_core._Columns(A.astype(float))
    W, basis, d = _random_stack(rng, k, m, n)
    stacked = _engine_on(cols, W.copy(), basis.copy(), d.copy())
    singles = [_engine_on(cols, W[s:s + 1].copy(), basis[s:s + 1].copy(), d[s:s + 1].copy())
               for s in range(k)]
    for _ in range(30):
        rows, entering = _safe_pivots(stacked, rng)
        stacked.pivot(rows, entering)
        for s, single in enumerate(singles):
            single.pivot(rows[s:s + 1], entering[s:s + 1])
        for name in ("W", "d", "basis", "min_pivot"):
            assert getattr(stacked, name).tobytes() == np.concatenate(
                [getattr(single, name) for single in singles]).tobytes()


# -- the stack's working set ---------------------------------------------------------

def test_keep_compacts_the_stack_in_its_own_buffer():
    # problems leave from the front, the middle and the back: the kept ones
    # move, in slot order, to the front of the same arrays, and pivot there
    # as a fresh stack of them does
    rng = np.random.default_rng(17)
    k, m, n = 9, 5, 6
    A = rng.integers(-2, 3, size=(m, n)).astype(float)
    A[0] = 1.0                                           # no column is all zero
    cols = lp_core._Columns(A)
    tab = _engine_on(cols, *_random_stack(rng, k, m, n))
    buffers = [tab.W, tab.d, tab.basis, tab.min_pivot]
    for going in ([0, 1, 1, 0, 1, 1, 1, 1, 0], [1, 0, 1, 1, 1, 1],
                  [1, 1, 1, 0, 1], [0, 1, 1, 1], [1, 1, 0], [0, 1]):
        going = np.array(going, dtype=bool)
        expected = [arr[going].copy() for arr in (tab.W, tab.d, tab.basis, tab.min_pivot)]
        tab.keep(going)
        kept = [tab.W, tab.d, tab.basis, tab.min_pivot]
        for arr, buffer, want in zip(kept, buffers, expected):
            assert arr.ctypes.data == buffer.ctypes.data
            assert arr.tobytes() == want.tobytes()
        W, d, basis, min_pivot = expected
        fresh = lp_core._Revised(cols, W, basis, d, min_pivot, lp_core.DEFAULT_OPT_TOL, 0, 10**9)
        rows, entering = _safe_pivots(tab, rng)
        tab.pivot(rows, entering)
        fresh.pivot(rows, entering)
        for arr, want in zip((tab.W, tab.d, tab.basis, tab.min_pivot),
                             (fresh.W, fresh.d, fresh.basis, fresh.min_pivot)):
            assert arr.tobytes() == want.tobytes()


def test_solve_many_peak_memory_is_under_twice_its_stack(k33_parity2):
    # 100 problems of a stack: with compaction in place, solve_many's peak
    # allocation stays below 2.2 times the bytes the stack is budgeted
    # (Phase1.problem_bytes each; a copy per retirement would take it past 3)
    words = np.array(list(itertools.product(range(2), repeat=9)))[:100]
    problems = [build_reduced(k33_parity2, y)[0] for y in words]
    A, b = problems[0].eq_coeffs, problems[0].eq_rhs
    start = lp_core.phase1(A, b)
    objectives = np.array([p.objective for p in problems])
    lp_core.solve_many(objectives, A, b, start)
    tracemalloc.start()
    try:
        solutions = lp_core.solve_many(objectives, A, b, start)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert {sol.status for sol in solutions} == {"optimal"}
    assert peak < 2.2 * len(objectives) * start.problem_bytes
