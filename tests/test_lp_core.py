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


def engine_stack(tabs):
    """lp_core's engine over a stack of copies of reference tableaux, each
    with its reduced costs as its last row."""
    T = np.stack([np.vstack([tab.T, tab.z]) for tab in tabs])
    return lp_core._Simplex(T, np.array([tab.basis for tab in tabs]), tabs[0].n,
                            tabs[0].opt_tol)


def test_leaving_matches_column_by_column_on_ties():
    # stacks of one and of five tie-heavy tableaux: the engine's row in each
    # problem is the reference's; a problem without a positive entry makes
    # it report None, and otherwise an unseparable tie raises
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
                if None in expected:
                    assert engine._leaving(engine.T[:, :, col]) is None
                elif "raised" in expected:
                    with pytest.raises(NumericError, match="could not separate candidate rows"):
                        engine._leaving(engine.T[:, :, col])
                    unseparable += 1
                else:
                    assert engine._leaving(engine.T[:, :, col]).tolist() == expected
    assert multi_row_ties > 100 and unseparable > 20


@pytest.mark.parametrize("seed", range(4))
def test_sparse_and_dense_pivots_give_equal_tableaux(seed, monkeypatch):
    # m = 40 rows: pivot columns with at most 10 nonzeros in all take the
    # sparse update, 11 or more the dense one.  A stack of one forms the
    # dense products in row blocks, here of 5 rows, so 41 rows make 9 blocks
    # and the last has one row; a stack of six takes two halves, and one
    # such stack shrinks through keep to three (one chunk) and then to one
    # (row blocks).  The product buffer holds NaN before every pivot, and
    # some entries of the pivot columns and rows are so small that their
    # products are subnormal or underflow to zero of either sign.  Every
    # entry, its sign bit included, is what the reference's full
    # outer-product update leaves
    rng = np.random.default_rng(seed)
    m, n = 40, 30
    monkeypatch.setattr(lp_core, "_BLOCK_BYTES", 5 * 8 * (n + m + 1))
    scales = np.array([1.0, 2.0 ** -530, 2.0 ** -560])
    branches, subnormal, signed_underflow = set(), 0, 0
    for k, shrink in ((1, {}), (6, {}), (6, {4: [0, 2, 5], 8: [1]})):
        tabs = []
        for _ in range(k):
            T = rng.normal(size=(m, n + m + 1)) * (rng.random((m, n + m + 1)) < 0.3)
            T[rng.random(T.shape) < 0.2] = -0.0
            T[:, n:-1] = np.eye(m)
            tab = ReferenceTableau(T, n, range(n, n + m))
            tab.z[:] = rng.normal(size=n + m + 1)
            tabs.append(tab)
        engine = engine_stack(tabs)
        for round_, nnz_choices in enumerate(([1, 2], [10, 11, 25, m], [1, 2, 10, 11, 25, m]) * 4):
            if round_ in shrink:
                going = np.isin(np.arange(len(tabs)), shrink[round_])
                engine.keep(going)
                tabs = [tab for tab, kept in zip(tabs, going) if kept]
            rows, cols = [], []
            for s, tab in enumerate(tabs):
                col, nnz = int(rng.integers(0, n)), int(rng.choice(nnz_choices))
                rows_nz = rng.choice(m, size=nnz, replace=False)
                column = np.zeros(m)
                column[rows_nz] = (rng.uniform(0.5, 2.0, size=nnz)
                                   * rng.choice([-1.0, 1.0], size=nnz) * rng.choice(scales, size=nnz))
                column[rows_nz[0]] = rng.uniform(0.5, 2.0)
                tab.T[:, col] = column
                row_scales = rng.choice(scales, size=n + m + 1, p=[0.6, 0.2, 0.2])
                row_scales[col] = 1.0
                tab.T[rows_nz[0]] *= row_scales
                engine.T[s, :m] = tab.T
                body_col = np.append(column, tab.z[col])
                products = np.outer(body_col, tab.T[rows_nz[0]] / column[rows_nz[0]])
                nonzero = np.outer(body_col != 0, tab.T[rows_nz[0]] != 0)
                subnormal += np.count_nonzero(
                    (products != 0) & (np.abs(products) < np.finfo(float).tiny))
                signed_underflow += np.count_nonzero(nonzero & (products == 0) & np.signbit(products))
                rows.append(int(rows_nz[0]))
                cols.append(col)
            branches.add((len(tabs), len(engine._chunks), 4 * sum(
                np.count_nonzero(tab.T[:, c]) for tab, c in zip(tabs, cols)) <= len(tabs) * m))
            engine._outer[:] = np.nan
            engine.pivot(np.array(rows), np.array(cols))
            for tab, row, col in zip(tabs, rows, cols):
                pivot_dense(tab, row, col)
            assert engine.T.tobytes() == engine_stack(tabs).T.tobytes()
            assert engine.basis.tolist() == [tab.basis for tab in tabs]
    assert branches == {(k, chunks, sparse) for k, chunks in ((1, 9), (3, 1), (6, 2))
                        for sparse in (True, False)}
    assert subnormal > 100 and signed_underflow > 100


def _fields(sol):
    """Every field of a solution, values by their bytes and the objective by hex."""
    values = None if sol.values is None else sol.values.tobytes()
    objective = None if sol.objective_value is None else sol.objective_value.hex()
    return sol.status, values, objective, sol.iterations, sol.phase1_iterations


@pytest.mark.parametrize("graph, local, weight", [
    ("random:40:6:1", "repetition:2:6", 30),
    ("random:40:6:1", "repetition:2:6", 54),
    ("random:12:6:1", "parity:2:6", 3),
    ("random:12:6:1", "parity:2:6", 6),
])
def test_solve_takes_the_reference_pivots(graph, local, weight):
    g = resolve_graph(graph)
    code = ExpanderCode(g, resolve_code(local, g.delta), resolve_code(local, g.delta))
    rng = np.random.default_rng(weight)
    c = code.random_codeword(rng)
    problem, _ = build_reduced(code, sample_error_pattern(code, c, weight, rng))
    fast = solve(problem)
    assert fast.status == "optimal"
    assert _fields(fast) == _fields(solve_by_reference(problem))


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
    # the reference-pivot instances, solved cold; recorded from the
    # two-engine solver this one replaced
    graph, local, weight = case.split()
    g = resolve_graph(graph)
    code = ExpanderCode(g, resolve_code(local, g.delta), resolve_code(local, g.delta))
    rng = np.random.default_rng(int(weight))
    c = code.random_codeword(rng)
    problem, _ = build_reduced(code, sample_error_pattern(code, c, int(weight), rng))
    assert golden_fields(solve(problem)) == GOLDEN["solve"][case]


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
    real_run = lp_core._Simplex.run

    def recording_run(self):
        status = real_run(self)
        searched.append(self.iterations)
        return status

    monkeypatch.setattr(lp_core._Simplex, "run", recording_run)
    start = lp_core.phase1(A, b)
    assert searched == [1] and start.iterations == 2
    problem = LpProblem(objective=[1.0, 1.0], eq_coeffs=A, eq_rhs=b)
    for sol in (solve(problem, start=start), solve(problem)):
        assert (sol.status, sol.iterations, sol.phase1_iterations) == ("infeasible", 1, 1)


def test_start_must_match_the_problem():
    rng = np.random.default_rng(5)
    problem = make_bounded_problem(rng, 3, 6)
    start = lp_core.phase1(problem.eq_coeffs, problem.eq_rhs)
    assert start.tableau.flags.writeable is False
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

def _each(objectives, A, b, start, feas_tol=lp_core.DEFAULT_FEAS_TOL, reference=False):
    """solve() on each objective, or the reference solver (which runs its
    own phase 1): its fields, or the NumericError it raised."""
    out = []
    for c in objectives:
        problem = LpProblem(objective=c, eq_coeffs=A, eq_rhs=b)
        try:
            out.append(_fields(solve_by_reference(problem, feas_tol=feas_tol) if reference
                               else solve(problem, feas_tol=feas_tol, start=start)))
        except NumericError as exc:
            out.append(("raised", str(exc)))
    return out


def _assert_many_matches_each(objectives, A, b, start, feas_tol=lp_core.DEFAULT_FEAS_TOL,
                              reference=False):
    each = _each(objectives, A, b, start, feas_tol, reference)
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
        each = _assert_many_matches_each(objectives, A, b, start, feas_tol, reference=True)
    if all(o[0] != "raised" for o in each):
        # without a start, phase 1 runs inside, as in solve
        assert [_fields(s) for s in lp_core.solve_many(objectives, A, b,
                                                       feas_tol=feas_tols[-1])] == each


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
    each = _assert_many_matches_each(np.array([p.objective for p in problems]), A, b, start,
                                     reference=True)
    phase2 = {o[3] - o[4] for o in each}
    assert len(phase2) >= 2


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
    """A start whose two rows agree everywhere: entering column 2 ties them
    with equal keys, which no lexicographic comparison separates."""
    T = np.array([[1.0, 0.0, 1.0, 1.0, 1.0, 0.0],
                  [0.0, 1.0, 1.0, 1.0, 1.0, 0.0]])
    T.flags.writeable = False
    start = lp_core.Phase1(shape=(2, 3), opt_tol=lp_core.DEFAULT_OPT_TOL, infeasibility=0.0,
                           search_iterations=0, iterations=0, tableau=T, basis=(0, 1))
    return T[:, :3], np.zeros(2), start


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
                             start, lp_core.DEFAULT_FEAS_TOL)


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
                single = engine_stack([tab])
                try:
                    expected.extend(single._leaving(single.T[:, :, col]).tolist())
                except NumericError:
                    expected.append(None)
            stacked = engine_stack(stacked_tabs)
            if None in expected:
                with pytest.raises(NumericError, match="could not separate"):
                    stacked._leaving(stacked.T[:, :, col])
                unseparable += 1
                continue
            assert stacked._leaving(stacked.T[:, :, col]).tolist() == expected
            T = np.stack([tab.T for tab in tabs])
            colvals = T[:, :, col]
            pos = colvals > 1e-9
            ratios = np.where(pos, T[:, :, -1] / np.where(pos, colvals, 1.0), np.inf)
            multi_row_ties += int(((ratios == ratios.min(axis=1, keepdims=True))
                                   & pos).sum(axis=1).max() > 2)
    assert multi_row_ties > 50 and unseparable > 10


@pytest.mark.parametrize("seed", range(4))
def test_stacked_pivot_is_pivot_bit_for_bit(seed):
    # both sides of the sparse/dense switch in one stack, and zeros of both
    # signs: every entry, its sign bit included, is what pivoting each
    # problem in a stack of one leaves
    rng = np.random.default_rng(seed)
    m, n, k = 40, 30, 6
    tabs = []
    for _ in range(k):
        T = rng.normal(size=(m, n + m + 1)) * (rng.random((m, n + m + 1)) < 0.3)
        T[rng.random(T.shape) < 0.2] = -0.0
        T[:, n:-1] = np.eye(m)
        tab = ReferenceTableau(T, n, range(n, n + m))
        tab.z[:] = rng.normal(size=n + m + 1)
        tabs.append(tab)
    singles = [engine_stack([tab]) for tab in tabs]
    stacked = engine_stack(tabs)
    for _ in range(12):
        rows, cols = [], []
        for s, single in enumerate(singles):
            col, nnz = int(rng.integers(0, n)), int(rng.choice([1, 2, 10, 11, 25, m]))
            rows_nz = rng.choice(m, size=nnz, replace=False)
            column = np.zeros(m)
            column[rows_nz] = (rng.uniform(0.5, 2.0, size=nnz)
                               * rng.choice([-1.0, 1.0], size=nnz))
            single.T[0, :m, col] = stacked.T[s, :m, col] = column
            rows.append(int(rows_nz[0]))
            cols.append(col)
        stacked.pivot(np.array(rows), np.array(cols))
        for single, row, col in zip(singles, rows, cols):
            single.pivot(np.array([row]), np.array([col]))
        assert stacked.T.tobytes() == np.concatenate([s.T for s in singles]).tobytes()
        assert stacked.basis.tolist() == [s.basis[0].tolist() for s in singles]


# -- the stack's working set ---------------------------------------------------------

def test_keep_compacts_the_stack_in_its_own_buffer():
    # problems leave from the front, the middle and the back: the kept ones
    # move, in slot order, to the front of the same arrays, and pivot there
    # as a fresh stack of them does, across the chunked and the one-call
    # dense update
    rng = np.random.default_rng(17)
    k, m, n = 9, 5, 6
    T = rng.normal(size=(k, m + 1, n + m + 1))
    basis = rng.integers(0, n + m, size=(k, m))
    tab = lp_core._Simplex(T.copy(), basis.copy(), n, lp_core.DEFAULT_OPT_TOL)
    buffer = tab.T
    for entering, going in enumerate(([0, 1, 1, 0, 1, 1, 1, 1, 0], [1, 0, 1, 1, 1, 1],
                                      [1, 1, 1, 0, 1], [0, 1, 1, 1], [1, 1, 0], [0, 1])):
        going = np.array(going, dtype=bool)
        expected_T, expected_basis = tab.T[going], tab.basis[going]
        tab.keep(going)
        assert np.shares_memory(tab.T, buffer) and tab.T.ctypes.data == buffer.ctypes.data
        assert tab.T.tobytes() == expected_T.tobytes()
        assert tab.basis.tolist() == expected_basis.tolist()
        fresh = lp_core._Simplex(expected_T.copy(), expected_basis.copy(), n,
                                 lp_core.DEFAULT_OPT_TOL)
        # a column not pivoted on before, so every pivot entry is nonzero
        rows, cols = rng.integers(0, m, size=len(tab.T)), np.full(len(tab.T), entering)
        tab.pivot(rows, cols)
        fresh.pivot(rows, cols)
        assert tab.T.tobytes() == fresh.T.tobytes()
        assert tab.basis.tolist() == fresh.basis.tolist()


def test_solve_many_peak_memory_is_under_twice_its_stack(k33_parity2):
    # 100 problems of a stack: with compaction in place and a product
    # buffer for half the stack, solve_many's peak allocation stays below
    # 2.2 times the stack's tableaux (a copy per retirement and a full
    # buffer would take it past 3)
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
    height, width = start.tableau.shape
    stack = len(objectives) * (height + 1) * width * 8
    assert peak < 2.2 * stack
