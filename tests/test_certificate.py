"""Peeling, error cores, and exact dual witnesses."""

import copy
import dataclasses
import functools
import gc
import json
import math
import os
import pickle
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from expanderlp import (
    GF,
    DualWitness,
    ExpanderCode,
    OrientedEdgeSet,
    WitnessUnavailableError,
    build_witness_from_orientation,
    build_witness_from_peeling,
    certificate,
    check_witness,
    complete_bipartite,
    decode,
    find_error_core,
    find_witness,
    generalized_reed_solomon,
    peel,
    repetition,
)

from oracles import (check_witness_by_fraction, find_witness_by_halving, peel_by_sets,
                     remargin_witness, vertex_totals_by_positions)

EPS = Fraction(1, 10**6)


# -- peeling ------------------------------------------------------------------------


def test_peel_clean_word(k66_rep2):
    c = np.zeros(36, dtype=np.int64)
    trace = peel(k66_rep2, c, c)
    assert trace.terminated_empty
    assert len(trace.edge_sets) == 1
    assert trace.edge_sets.shape == (1, 36) and not trace.edge_sets.any()
    assert trace.vertex_sets.shape == (2, 6) and not trace.vertex_sets.any()


def test_peel_single_error_empties(k66_rep2):
    # one bad edge: its A endpoint holds 1 < 6/4 of its local distance, so
    # round 2 drops it and the edge set empties immediately
    c = np.zeros(36, dtype=np.int64)
    y = c.copy()
    y[5] = 1
    trace = peel(k66_rep2, c, y)
    assert trace.terminated_empty
    assert len(trace.edge_sets) == 2
    assert np.flatnonzero(trace.edge_sets[0]).tolist() == [5]
    assert not trace.edge_sets[-1].any()


def test_peel_stagnates_on_weak_instance(four_cycle_rep3):
    # local distance 2 on a degree-2 graph: the survival threshold is
    # 4*deg >= 2, which a single error edge always meets at both endpoints
    c = np.zeros(4, dtype=np.int64)
    y = c.copy()
    y[0] = 1
    trace = peel(four_cycle_rep3, c, y)
    assert not trace.terminated_empty
    assert np.flatnonzero(trace.edge_sets[-1]).tolist() == [0]


def test_peel_keeps_a_vertex_exactly_at_the_threshold(k44_rep4):
    # local distance 4 on K_{4,4}: one error edge gives 4*deg == d, which
    # still survives, so the single error never peels
    c = np.zeros(16, dtype=np.int64)
    y = c.copy()
    y[5] = 1
    trace = peel(k44_rep4, c, y)
    assert not trace.terminated_empty
    assert np.flatnonzero(trace.edge_sets[-1]).tolist() == [5]


def test_peel_all_errors_keep_everything(k33_parity2):
    c = np.zeros(9, dtype=np.int64)
    y = np.ones(9, dtype=np.int64)
    # flipping every symbol of the zero word is not a codeword move, but y
    # differs from c on all 9 edges either way
    trace = peel(k33_parity2, c, y)
    assert not trace.terminated_empty
    assert trace.edge_sets[-1].all()


def test_peel_sets_shrink(k66_rep2, rng):
    c = np.zeros(36, dtype=np.int64)
    y = c.copy()
    y[rng.choice(36, size=8, replace=False)] = 1
    trace = peel(k66_rep2, c, y)
    assert not (trace.edge_sets[1:] & ~trace.edge_sets[:-1]).any()
    assert not (trace.vertex_sets[2:] & ~trace.vertex_sets[:-2]).any()


def test_peel_requires_codeword(four_cycle_rep3):
    with pytest.raises(ValueError):
        peel(four_cycle_rep3, [0, 0, 0, 1], [0, 0, 0, 0])


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fixture=st.sampled_from(["four_cycle_rep3", "k33_parity2", "k44_rep4", "k66_rep2",
                                "k66_grs", "r20_rep2"]), data=st.data())
def test_mask_peel_equals_the_set_peel(fixture, data, request):
    # every round's masks against the frozenset reference, on the stagnating
    # 4-cycle, the threshold-equality K_{4,4} and all-error words
    code = request.getfixturevalue(fixture)
    num_edges, q, n = code.num_edges, code.field.q, code.graph.n
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    c = code.random_codeword(rng)
    errors = list(data.draw(st.one_of(st.just(range(num_edges)),
                                      st.sets(st.integers(0, num_edges - 1))), label="errors"))
    y = c.copy()
    y[errors] = (c[errors] + rng.integers(1, q, size=len(errors))) % q
    trace = peel(code, c, y)
    vertex_sets, edge_sets, terminated_empty, released = peel_by_sets(code, c, y)
    assert trace.terminated_empty == terminated_empty
    assert [set(np.flatnonzero(row).tolist()) for row in trace.edge_sets] == edge_sets
    assert [set((np.flatnonzero(row) + i % 2 * n).tolist())
            for i, row in enumerate(trace.vertex_sets)] == vertex_sets
    if terminated_empty:
        sides = certificate._released_by_peeling(trace)
        assert {e: s for e, s in enumerate(sides.tolist()) if s >= 0} == released
    else:
        with pytest.raises(WitnessUnavailableError):
            certificate._released_by_peeling(trace)


# -- error cores --------------------------------------------------------------------


def test_core_of_emptied_trace_is_none(k66_rep2):
    c = np.zeros(36, dtype=np.int64)
    y = c.copy()
    y[0] = 1
    trace = peel(k66_rep2, c, y)
    assert find_error_core(k66_rep2, trace) is None


def test_core_all_errors(k33_parity2):
    c = np.zeros(9, dtype=np.int64)
    y = np.ones(9, dtype=np.int64)
    trace = peel(k33_parity2, c, y)
    core = find_error_core(k33_parity2, trace)
    assert core.edges == frozenset(range(9))
    assert core.vertices_a == frozenset([0, 1, 2])
    assert core.vertices_b == frozenset([3, 4, 5])
    assert core.zeta_a == Fraction(1, 6)


def test_find_witness_reports_core(four_cycle_rep3):
    result = find_witness(four_cycle_rep3, [0, 0, 0, 0], [1, 0, 0, 0], mode="peel")
    assert not result.witness_found
    assert result.core is not None
    assert result.core.edges == frozenset([0])
    assert "stagnated" in result.reason


# -- witness construction from a peeling trace ---------------------------------------


def test_peeling_witness_tau_values(k66_rep2):
    c = np.zeros(36, dtype=np.int64)
    y = c.copy()
    y[5] = 1
    trace = peel(k66_rep2, c, y)
    w = build_witness_from_peeling(k66_rep2, c, y, trace)

    # error edge, matched symbol: +1/2 at both endpoints
    assert w.tau_a[5][0] == Fraction(1, 2)
    assert w.tau_b[5][0] == Fraction(1, 2)
    # the A endpoint was peeled first: it gets the released row
    assert w.tau_a[5][1] == Fraction(-5, 2) - EPS
    assert w.tau_b[5][1] == Fraction(3, 2)

    # a correct edge: -1/2 at its symbol, 1/2 - eps elsewhere
    assert w.tau_a[0][0] == Fraction(-1, 2)
    assert w.tau_b[0][0] == Fraction(-1, 2)
    assert w.tau_a[0][1] == Fraction(1, 2) - EPS

    # the vertex bounds come from c and y: a witness is its tau values and eps
    assert [f.name for f in dataclasses.fields(w)] == ["tau_a", "tau_b", "epsilon"]

    assert check_witness(k66_rep2, c, y, w).ok


def test_witness_found_end_to_end(k66_rep2):
    c = np.zeros(36, dtype=np.int64)
    y = c.copy()
    y[[1, 14, 30]] = 1
    result = find_witness(k66_rep2, c, y, mode="peel")
    assert result.witness_found
    assert result.epsilon == EPS
    assert check_witness(k66_rep2, c, y, result.witness).ok


# -- the exact checker catches every kind of tampering --------------------------------


def valid_single_error_witness(code):
    c = np.zeros(36, dtype=np.int64)
    y = c.copy()
    y[5] = 1
    trace = peel(code, c, y)
    return c, y, build_witness_from_peeling(code, c, y, trace)


def test_checker_flags_strict_edge_violation(k66_rep2):
    c, y, w = valid_single_error_witness(k66_rep2)
    w = copy.deepcopy(w)
    w.tau_a[0][1] = Fraction(3, 2)  # off-symbol sums to 2 - eps > 1 - eps
    result = check_witness(k66_rep2, c, y, w)
    assert not result.ok
    assert result.violation.startswith("strict edge constraint at edge 0")


def test_checker_flags_weak_edge_violation(k66_rep2):
    c, y, w = valid_single_error_witness(k66_rep2)
    w = copy.deepcopy(w)
    w.tau_a[0][0] = Fraction(0)  # matched-symbol sum rises above cost -1
    result = check_witness(k66_rep2, c, y, w)
    assert not result.ok
    assert result.violation.startswith("weak edge constraint at edge 0")


def test_checker_flags_vertex_violation(k66_rep2):
    c, y, w = valid_single_error_witness(k66_rep2)
    w = copy.deepcopy(w)
    a0 = [int(e) for e in k66_rep2.graph.a_edges[0]]
    for e in a0:
        w.tau_a[e][0] = Fraction(-10)
    result = check_witness(k66_rep2, c, y, w)
    assert not result.ok
    assert "vertex constraint at a0" in result.violation


def test_checker_rejects_nonpositive_epsilon(k66_rep2):
    c, y, w = valid_single_error_witness(k66_rep2)
    w = copy.deepcopy(w)
    w.epsilon = Fraction(0)
    assert not check_witness(k66_rep2, c, y, w).ok


def test_all_zero_witness_fails(four_cycle_rep3):
    zeros = [[Fraction(0)] * 3 for _ in range(4)]
    w = DualWitness(tau_a=copy.deepcopy(zeros), tau_b=copy.deepcopy(zeros), epsilon=EPS)
    result = check_witness(four_cycle_rep3, [0, 0, 0, 0], [0, 0, 0, 0], w)
    assert not result.ok


# -- witnesses from orientations -----------------------------------------------------


def test_orientation_witness_end_to_end(k66_rep2):
    c = np.zeros(36, dtype=np.int64)
    y = c.copy()
    y[[0, 13]] = 1
    result = find_witness(k66_rep2, c, y, mode="orient")
    assert result.witness_found
    assert check_witness(k66_rep2, c, y, result.witness).ok


def test_orientation_witness_rejects_heavy_heads(k66_rep2):
    # two error edges oriented into one A vertex: 4*2 >= d_A = 6 breaks the
    # builder's precondition even though the caps themselves allow it
    graph = k66_rep2.graph
    edges = sorted([int(np.nonzero((graph.a_of == 0) & (graph.b_of == b))[0][0])
                    for b in (0, 1)])
    oriented = OrientedEdgeSet(graph=graph, edges=tuple(edges),
                               head_side={e: "a" for e in edges},
                               cap_a=2, cap_b=2)
    c = np.zeros(36, dtype=np.int64)
    y = c.copy()
    y[edges] = 1
    with pytest.raises(ValueError):
        build_witness_from_orientation(k66_rep2, c, y, oriented)


def test_witness_builders_need_exactly_the_error_edges(k66_rep2):
    # the trace and the orientation describe the errors of y at edge 3;
    # the received word they are paired with has its error at edge 4
    c = np.zeros(36, dtype=np.int64)
    y = c.copy()
    y[3] = 1
    other = c.copy()
    other[4] = 1
    oriented = OrientedEdgeSet(graph=k66_rep2.graph, edges=(3,), head_side={3: "b"},
                               cap_a=1, cap_b=1)
    with pytest.raises(ValueError, match="peeling trace must cover exactly"):
        build_witness_from_peeling(k66_rep2, c, other, peel(k66_rep2, c, y))
    with pytest.raises(ValueError, match="orientation must cover exactly"):
        build_witness_from_orientation(k66_rep2, c, other, oriented)
    # the set refuses an edge id off the graph when it is made, and it is
    # frozen, so no edge id reaches the builder unchecked
    for edge in (-1, 36):
        with pytest.raises(ValueError, match=rf"in \[0, 36\), got {edge}"):
            OrientedEdgeSet(graph=k66_rep2.graph, edges=(edge,), head_side={edge: "b"},
                            cap_a=1, cap_b=1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            oriented.edges = (edge,)
    assert oriented.edges == (3,)


def test_orient_mode_needs_theta(four_cycle_rep3):
    # repetition distance 2 on a degree-2 graph leaves no valid theta
    result = find_witness(four_cycle_rep3, [0, 0, 0, 0], [1, 0, 0, 0], mode="orient")
    assert not result.witness_found
    assert result.reason is not None


def test_unknown_mode_rejected(k66_rep2):
    c = np.zeros(36, dtype=np.int64)
    with pytest.raises(ValueError):
        find_witness(k66_rep2, c, c, mode="guess")


# -- one epsilon -----------------------------------------------------------------------


def test_any_epsilon_up_to_the_bound_accepted(k66_rep2):
    # the error edge's A endpoint sums to -6*eps, against a bound of -2: the
    # witness holds for every eps up to 1/(2*Delta) = 1/12, however small,
    # but fails at eps = 1/2 (vertex constraint at a0)
    c = np.zeros(36, dtype=np.int64)
    y = c.copy()
    y[0] = 1
    result = find_witness(k66_rep2, c, y, mode="peel")
    assert result.witness_found and result.epsilon == certificate.EPSILON_START
    for eps in (Fraction(1, 12), Fraction(1, 10**15)):
        assert check_witness(k66_rep2, c, y, remargin_witness(result.witness, eps)).ok
    verdict = check_witness(k66_rep2, c, y, remargin_witness(result.witness, Fraction(1, 2)))
    assert verdict.violation.startswith("vertex constraint at a0")


def test_failed_check_is_reported_not_found(k66_rep2, monkeypatch):
    c = np.zeros(36, dtype=np.int64)
    y = c.copy()
    y[0] = 1
    real = certificate._write_witness

    def broken(*args):
        witness, scaled = real(*args)
        witness.tau_a[0][0] += 3
        scaled.tau[0, 0, 0] += 3 * scaled.den
        return witness, scaled

    # find_witness checks the integers the writer scaled the witness to, and
    # quotes the witness's lists: the tamper reaches both
    monkeypatch.setattr(certificate, "_write_witness", broken)
    expected = check_witness(k66_rep2, c, y,
                             build_witness_from_peeling(k66_rep2, c, y, peel(k66_rep2, c, y)))
    result = find_witness(k66_rep2, c, y, mode="peel")
    assert (result.witness_found, result.epsilon, result.witness) == (False, None, None)
    assert result.reason == f"witness fails the exact check: {expected.violation}"


def _location(verdict):
    """A check's verdict without the totals it quotes, which carry eps."""
    return verdict.ok, None if verdict.ok else verdict.violation.split(":")[0]


@pytest.mark.parametrize("fixture", ["k66_rep2", "k66_grs", "four_cycle_rep3"])
def test_verdict_is_the_same_at_every_epsilon_up_to_the_bound(fixture, request):
    # on the recorded patterns: the peel- and orientation-built witnesses,
    # and the error-free word's witness checked against a word with an error
    # at edge 0, which it violates
    code = request.getfixturevalue(fixture)
    epsilons = (Fraction(1, 2 * code.graph.delta), Fraction(1, 10**6), Fraction(1, 10**12))
    seen = set()
    for case in GOLDEN_WITNESSES[fixture]:
        c, y = np.array(case["c"]), np.array(case["y"])
        trace = peel(code, c, y)
        heads = {int(e): side for e, side in case["orient_edges"].items()}
        oriented = OrientedEdgeSet(graph=code.graph, edges=tuple(heads), head_side=heads,
                                   cap_a=1, cap_b=1)
        wrong = y.copy()
        wrong[0] = (c[0] + 1) % code.field.q
        checks = [(y, build_witness_from_orientation(code, c, y, oriented)),
                  (wrong, build_witness_from_peeling(code, c, c, peel(code, c, c)))]
        if trace.terminated_empty:
            checks.append((y, build_witness_from_peeling(code, c, y, trace)))
        for received, witness in checks:
            verdicts = {_location(check_witness(code, c, received,
                                                remargin_witness(witness, eps)))
                        for eps in epsilons}
            assert len(verdicts) == 1
            seen |= verdicts
    assert {ok for ok, _ in seen} == {True, False}


@pytest.mark.parametrize("fixture", ["four_cycle_rep3", "k33_parity2", "k66_rep2",
                                     "k66_rep3", "k66_grs", "r20_rep2"])
def test_one_epsilon_matches_the_halving_search(fixture, request):
    code = request.getfixturevalue(fixture)
    q = code.field.q
    rng = np.random.default_rng(515)
    found = set()
    for weight in (0, 1, 2, 3, code.num_edges // 4, code.num_edges // 2):
        for _ in range(3):
            c = code.random_codeword(rng)
            y = c.copy()
            errors = rng.choice(code.num_edges, size=weight, replace=False)
            y[errors] = (y[errors] + rng.integers(1, q, size=weight)) % q
            for mode in ("peel", "orient"):
                fast = find_witness(code, c, y, mode=mode)
                slow = find_witness_by_halving(code, c, y, mode=mode)
                assert ((fast.witness_found, fast.epsilon, fast.reason, fast.core)
                        == (slow.witness_found, slow.epsilon, slow.reason, slow.core))
                if fast.witness_found:
                    assert _as_strings(fast.witness) == _as_strings(slow.witness)
                found.add(fast.witness_found)
    assert found == {True, False}


def test_witness_certifies_decode_agreement(k66_rep2, rng):
    # whenever a witness exists the LP must land exactly on c
    c = np.zeros(36, dtype=np.int64)
    for _ in range(10):
        weight = int(rng.integers(1, 4))
        y = c.copy()
        y[rng.choice(36, size=weight, replace=False)] = 1
        for mode in ("peel", "orient"):
            result = find_witness(k66_rep2, c, y, mode=mode)
            if not result.witness_found:
                continue
            decoded = decode(k66_rep2, y)
            assert decoded.status == "codeword"
            assert np.array_equal(decoded.codeword, c)


# -- the integer checker against the Fraction reference -------------------------------

TINY = Fraction(1, 3**50)     # a denominator that forces Python-int arrays


@pytest.fixture(scope="module")
def k66_rep3():
    """K_{6,6} with ternary repetition locals."""
    local = repetition(GF(3), 6)
    return ExpanderCode(complete_bipartite(6), local, local)


def _same_verdict(code, c, y, witness):
    fast = check_witness(code, c, y, witness)
    slow = check_witness_by_fraction(code, c, y, witness)
    assert (fast.ok, fast.violation) == (slow.ok, slow.violation)
    return fast


def _built_witnesses(code, rng, patterns):
    """(c, y, witness, route) from random error patterns of weight 1 to 3:
    the error-free word's witness (route "base", which y violates), and the
    peel- and orientation-built witnesses found."""
    q = code.field.q
    built = []
    for _ in range(patterns):
        c = code.random_codeword(rng)
        y = c.copy()
        errors = rng.choice(code.num_edges, size=int(rng.integers(1, 4)), replace=False)
        y[errors] = (y[errors] + rng.integers(1, q, size=len(errors))) % q
        base = build_witness_from_peeling(code, c, c, peel(code, c, c))
        built.append((c, y, base, "base"))
        for mode in ("peel", "orient"):
            result = find_witness(code, c, y, mode=mode)
            if result.witness_found:
                built.append((c, y, result.witness, mode))
    return built


def _tampered(code, c, witness, rng):
    """One to three random edits of tau values or eps."""
    w = copy.deepcopy(witness)
    eps = w.epsilon
    steps = [Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(-3), eps, -eps,
             Fraction(1, 3), Fraction(-7, 5), TINY, -TINY]
    for _ in range(int(rng.integers(1, 4))):
        kind = int(rng.integers(4))
        if kind < 3:
            taus = w.tau_a if kind == 0 else w.tau_b
            e = int(rng.integers(code.num_edges))
            # the codeword symbol half the time, so weak constraints get hit
            alpha = int(c[e]) if kind == 2 else int(rng.integers(code.field.q))
            taus[e][alpha] += steps[int(rng.integers(len(steps)))]
        else:
            w.epsilon = [Fraction(0), -eps, 2 * eps, eps / 3, TINY, Fraction(5),
                         Fraction(1, 4)][int(rng.integers(7))]
    return w


@pytest.mark.parametrize("fixture", ["k66_rep2", "k66_rep3", "k66_grs"])
def test_checker_matches_fraction_reference(fixture, request):
    code = request.getfixturevalue(fixture)
    rng = np.random.default_rng(404)
    built = _built_witnesses(code, rng, patterns=6)
    assert {route for *_, route in built} == {"base", "peel", "orient"}
    kinds = set()
    for c, y, witness, route in built:
        assert _same_verdict(code, c, y, witness).ok or route == "base"
        for _ in range(12):
            verdict = _same_verdict(code, c, y, _tampered(code, c, witness, rng))
            kinds.add("ok" if verdict.ok else verdict.violation.split(" at ")[0])
    assert kinds >= {"ok", "strict edge constraint", "weak edge constraint",
                     "vertex constraint", "epsilon must be positive"}


def test_checker_exact_beyond_int64(k66_grs):
    # a 3**50 denominator pushes the scaled values past int64; a TINY raise
    # at a tight edge constraint is a violation only exact arithmetic sees
    code = k66_grs
    c = code.random_codeword(np.random.default_rng(9))
    y = c.copy()
    y[4] = (y[4] + 1) % 7
    w = find_witness(code, c, y, mode="peel").witness
    low = copy.deepcopy(w)
    low.tau_a[0][(int(c[0]) + 1) % 7] -= TINY
    tau, _, _ = certificate._scaled_taus(low, (36, 7), 6)
    assert tau.dtype == object
    assert _same_verdict(code, c, y, low).ok

    # the weak constraint at a correct edge is tight: -1/2 + -1/2 <= -1
    high = copy.deepcopy(w)
    high.tau_b[0][int(c[0])] += TINY
    verdict = _same_verdict(code, c, y, high)
    assert verdict.violation.startswith("weak edge constraint at edge 0")

    # the strict constraint at the error edge's received symbol is tight
    high = copy.deepcopy(w)
    high.tau_b[4][int(y[4])] += TINY
    verdict = _same_verdict(code, c, y, high)
    assert verdict.violation.startswith("strict edge constraint at edge 4")

    # an integer eps past int64 takes the exact path too
    huge = copy.deepcopy(w)
    huge.epsilon = Fraction(2**70)
    verdict = _same_verdict(code, c, y, huge)
    assert verdict.violation.startswith("strict edge constraint at edge 0")


def test_checker_dtype_boundary(k66_grs):
    # eps = 1/m with m odd makes den = 2m; the largest scaled value is the
    # error edge's |-5/2 - eps| * den = 5m + 2, so int64 holds up to
    # (5m + 2) * 8 < 2**62, and the object arrays take over just above
    code = k66_grs
    c = code.random_codeword(np.random.default_rng(11))
    y = c.copy()
    y[7] = (y[7] + 2) % 7
    trace = peel(code, c, y)
    m_last = ((2**62 - 1) // 8 - 2) // 5
    m_last -= 1 - m_last % 2
    for m, dtype in ((m_last, np.int64), (m_last + 2, object)):
        w = remargin_witness(build_witness_from_peeling(code, c, y, trace), Fraction(1, m))
        assert certificate._scaled_taus(w, (36, 7), 6)[0].dtype == dtype
        assert _same_verdict(code, c, y, w).ok
        w.tau_b[7][int(y[7])] += Fraction(1, m)
        assert _same_verdict(code, c, y, w).violation.startswith(
            "strict edge constraint at edge 7")


@pytest.fixture(scope="module")
def k66_grs_rep7():
    """K_{6,6}: GRS[6,2] over GF(7) on A (49 local codewords), repetition
    over GF(7) on B (7), so the one-hot table has spare B columns."""
    return ExpanderCode(complete_bipartite(6), generalized_reed_solomon(GF(7), 6, 2),
                        repetition(GF(7), 6))


def test_checker_with_unequal_local_code_counts(k66_grs_rep7):
    # lowering one tau at the codeword symbol breaks the tight vertex
    # constraint of c's own local codeword, on whichever side it is
    code = k66_grs_rep7
    rng = np.random.default_rng(505)
    built = [b for b in _built_witnesses(code, rng, patterns=6) if b[-1] != "base"]
    assert built
    for c, y, witness, _ in built:
        assert _same_verdict(code, c, y, witness).ok
        e = int(np.flatnonzero(c == y)[0])
        for side in ("a", "b"):
            bad = copy.deepcopy(witness)
            getattr(bad, f"tau_{side}")[e][int(c[e])] -= 3
            assert _same_verdict(code, c, y, bad).violation.startswith(
                f"vertex constraint at {side}")
        for _ in range(12):
            _same_verdict(code, c, y, _tampered(code, c, witness, rng))


# -- the vertex-totals kernel ---------------------------------------------------------


def _kernel_values(rng, shape, delta, path):
    """A (2, E, q) array for one of the kernel's three paths: float64 up to
    largest magnitude (2**53 - 1) // Delta ("float" is on that edge and
    "int64-edge" one past it), int64 from there up to the storage rule's
    2**62 / (Delta + 2) ("int64-near" draws its largest magnitude
    log-uniformly up to 4 times the edge, "int64" up to that rule), and
    Python ints past int64 ("object")."""
    if path == "object":
        high = rng.integers(-2**30, 2**30, size=shape).astype(object)
        return high * 2**40 + rng.integers(0, 2**40, size=shape).astype(object)
    first_int = (2**53 - 1) // delta + 1
    top = {"int64-near": 4 * first_int, "int64": 2**62 // (delta + 2)}.get(path, first_int)
    largest = {"small": 9, "float": first_int - 1, "int64-edge": first_int}.get(
        path, int(2 ** rng.uniform(math.log2(first_int), math.log2(top))))
    # mostly +largest or +largest - 1, so many totals sit at Delta*largest
    # less 0 to Delta, odd and even, just past 2**53 on "int64-edge"; a
    # tenth negative, a tenth anywhere, and one entry exactly largest
    signs = rng.choice([1, -1], size=shape, p=[0.9, 0.1])
    values = signs * (largest - rng.integers(0, 2, size=shape))
    spread = rng.random(shape) < 0.1
    values[spread] = rng.integers(-largest, largest + 1, size=int(spread.sum()))
    values.flat[int(rng.integers(values.size))] = largest
    return values


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fixture=st.sampled_from(["four_cycle_rep3", "k33_parity2", "k66_grs", "k66_grs_rep7"]),
       path=st.sampled_from(["small", "float", "int64-edge", "int64-near", "int64", "object"]),
       seed=st.integers(0, 2**32 - 1))
def test_vertex_totals_equal_the_position_sum(fixture, path, seed, request):
    code = request.getfixturevalue(fixture)
    values = _kernel_values(np.random.default_rng(seed), (2, code.num_edges, code.field.q),
                            code.graph.delta, path)
    totals = certificate._vertex_totals(values, certificate._plan(code))
    assert totals.dtype == values.dtype
    for side, reference in zip(totals, vertex_totals_by_positions(values, code)):
        count = reference.shape[1]
        assert np.array_equal(side[:, :count], reference)
        # a spare column k repeats column k mod K_s
        assert np.array_equal(side, side[:, np.arange(side.shape[1]) % count])


# -- values are read once per distinct object ----------------------------------------


def test_checker_reads_rows_that_alias_one_list(k66_rep2):
    # y == c == 0: every edge is correct with symbol 0, so one row serves all
    c = np.zeros(36, dtype=np.int64)
    w = build_witness_from_peeling(k66_rep2, c, c, peel(k66_rep2, c, c))
    row = w.tau_a[0]
    w.tau_a = [row] * 36
    assert _same_verdict(k66_rep2, c, c, w).ok
    row[1] = Fraction(2)      # the off-symbol slot of every edge at once
    assert _same_verdict(k66_rep2, c, c, w).violation.startswith(
        "strict edge constraint at edge 0")
    w.tau_b = [row] * 36
    row[1] = Fraction(1, 2) - EPS
    row[0] = Fraction(-10)    # both endpoints of every edge at once
    assert _same_verdict(k66_rep2, c, c, w).violation.startswith("vertex constraint at a0")


def test_checker_sees_one_shared_value_replaced(k66_rep2):
    # the writer shares each value object across rows; a new object in one
    # slot, equal or not, is read on its own
    c, y, w = valid_single_error_witness(k66_rep2)
    assert w.tau_a[0][1] is w.tau_a[1][1]
    for e, value in ((0, Fraction(1, 2) - EPS), (1, Fraction(1, 2)), (35, Fraction(3, 4))):
        bad = copy.deepcopy(w)
        bad.tau_a[e][1] = value
        _same_verdict(k66_rep2, c, y, bad)


def test_checker_reads_equal_but_distinct_values(k66_grs):
    c = k66_grs.random_codeword(np.random.default_rng(3))
    y = c.copy()
    y[[2, 20]] = (y[[2, 20]] + 3) % 7
    w = find_witness(k66_grs, c, y, mode="peel").witness
    fresh = DualWitness(
        tau_a=[[Fraction(x.numerator, x.denominator) for x in row] for row in w.tau_a],
        tau_b=[[Fraction(x.numerator, x.denominator) for x in row] for row in w.tau_b],
        epsilon=w.epsilon)
    assert fresh.tau_a[0][0] is not fresh.tau_a[1][0]
    assert _same_verdict(k66_grs, c, y, fresh).ok
    fresh.tau_b[20][int(y[20])] += EPS
    assert _same_verdict(k66_grs, c, y, fresh).violation.startswith(
        "strict edge constraint at edge 20")


def test_checker_reads_int_and_float_values(k66_rep2):
    # eps = 1/4 makes every witness value dyadic, so floats hold them exactly
    c = np.zeros(36, dtype=np.int64)
    y = c.copy()
    y[5] = 1
    w = remargin_witness(build_witness_from_peeling(k66_rep2, c, y, peel(k66_rep2, c, y)),
                         Fraction(1, 4))
    mixed = DualWitness(tau_a=[[float(x) for x in row] for row in w.tau_a],
                        tau_b=[list(row) for row in w.tau_b], epsilon=w.epsilon)
    assert _same_verdict(k66_rep2, c, y, mixed).ok
    mixed.tau_a[0][1] = 1            # int: 1 + 1/4 > 1 - eps
    assert _same_verdict(k66_rep2, c, y, mixed).violation.startswith(
        "strict edge constraint at edge 0")
    mixed.tau_a[0][1] = 0.25
    mixed.tau_a[0][0] = -10.5        # float: a0's total falls below its bound
    assert _same_verdict(k66_rep2, c, y, mixed).violation == (
        "vertex constraint at a0, local codeword [0, 0, 0, 0, 0, 0]: -12 < -2")


def test_checker_reads_rows_given_as_tuples(k66_rep2):
    c, y, w = valid_single_error_witness(k66_rep2)
    rows = DualWitness(tau_a=[tuple(row) for row in w.tau_a],
                       tau_b=[tuple(row) for row in w.tau_b], epsilon=w.epsilon)
    assert _same_verdict(k66_rep2, c, y, rows).ok
    rows.tau_b[9] = (Fraction(0), Fraction(0))
    assert _same_verdict(k66_rep2, c, y, rows).violation.startswith(
        "weak edge constraint at edge 9")


def _ragged_rows(w):
    # same number of values, but edge 0 is one short and edge 1 one long
    w.tau_a[1].insert(0, w.tau_a[0].pop())


def _missing_row(w):
    w.tau_b.pop()


def _extra_row(w):
    w.tau_b.append(list(w.tau_b[0]))


@pytest.mark.parametrize("malform, message", [
    pytest.param(_ragged_rows, "tau_a must be 36 rows of 2 values", id="ragged-rows"),
    pytest.param(_missing_row, "tau_b must be 36 rows of 2 values", id="missing-row"),
    pytest.param(_extra_row, "tau_b must be 36 rows of 2 values", id="extra-row"),
])
def test_checker_rejects_malformed_witness(k66_rep2, malform, message):
    c, y, w = valid_single_error_witness(k66_rep2)
    w = copy.deepcopy(w)
    malform(w)
    with pytest.raises(ValueError, match=message):
        check_witness(k66_rep2, c, y, w)


# -- the received word is validated like the transmitted one -------------------------


def _bad_received_words():
    out_of_field = np.zeros(36, dtype=np.int64)
    out_of_field[0] = 5
    return {"symbol-5": out_of_field, "length-1": np.zeros(1, dtype=np.int64),
            "length-37": np.zeros(37, dtype=np.int64)}


@pytest.mark.parametrize("name", sorted(_bad_received_words()))
@pytest.mark.parametrize("entry", ["peel", "find_witness_peel", "find_witness_orient",
                                   "check_witness", "build_witness_from_peeling",
                                   "build_witness_from_orientation"])
def test_invalid_received_word_rejected(k66_rep2, entry, name):
    c = np.zeros(36, dtype=np.int64)
    y = _bad_received_words()[name]
    clean = peel(k66_rep2, c, c)
    witness = build_witness_from_peeling(k66_rep2, c, c, clean)
    # edge 0 is the one error of the symbol-5 word
    oriented = OrientedEdgeSet(graph=k66_rep2.graph, edges=(0,), head_side={0: "b"},
                               cap_a=1, cap_b=1)
    calls = {
        "peel": lambda: peel(k66_rep2, c, y),
        "find_witness_peel": lambda: find_witness(k66_rep2, c, y, mode="peel"),
        "find_witness_orient": lambda: find_witness(k66_rep2, c, y, mode="orient"),
        "check_witness": lambda: check_witness(k66_rep2, c, y, witness),
        "build_witness_from_peeling": lambda: build_witness_from_peeling(k66_rep2, c, y, clean),
        "build_witness_from_orientation":
            lambda: build_witness_from_orientation(k66_rep2, c, y, oriented),
    }
    with pytest.raises(ValueError):
        calls[entry]()


def _bad_transmitted_words():
    return {"half": [0.5] * 36, "nan": np.full(36, np.nan),
            "complex": np.full(36, 0.5 + 0j), "imaginary": np.full(36, 1j)}


@pytest.mark.parametrize("name", sorted(_bad_transmitted_words()))
@pytest.mark.parametrize("entry", ["peel", "find_witness_peel", "find_witness_orient",
                                   "check_witness", "build_witness_from_peeling",
                                   "build_witness_from_orientation"])
def test_non_integer_transmitted_word_rejected(k66_rep2, entry, name):
    # [0.5] * 36 would truncate to the zero codeword, and y's one error at
    # edge 0 would then be certified for a c that is no word of the code
    c = _bad_transmitted_words()[name]
    y = np.zeros(36, dtype=np.int64)
    y[0] = 1
    zero = np.zeros(36, dtype=np.int64)
    trace = peel(k66_rep2, zero, y)
    witness = build_witness_from_peeling(k66_rep2, zero, y, trace)
    oriented = OrientedEdgeSet(graph=k66_rep2.graph, edges=(0,), head_side={0: "b"},
                               cap_a=1, cap_b=1)
    calls = {
        "peel": lambda: peel(k66_rep2, c, y),
        "find_witness_peel": lambda: find_witness(k66_rep2, c, y, mode="peel"),
        "find_witness_orient": lambda: find_witness(k66_rep2, c, y, mode="orient"),
        "check_witness": lambda: check_witness(k66_rep2, c, y, witness),
        "build_witness_from_peeling": lambda: build_witness_from_peeling(k66_rep2, c, y, trace),
        "build_witness_from_orientation":
            lambda: build_witness_from_orientation(k66_rep2, c, y, oriented),
    }
    with pytest.raises(ValueError, match="symbols must be integers"):
        calls[entry]()


def test_complex_received_word_rejected(k33_parity2):
    # 0.9+0j once truncated to 0, and the error-free word it became was
    # certified in both modes
    c = np.zeros(9, dtype=np.int64)
    y = np.zeros(9, dtype=complex)
    y[0] = 0.9
    for call in (lambda: peel(k33_parity2, c, y),
                 lambda: find_witness(k33_parity2, c, y, mode="peel"),
                 lambda: find_witness(k33_parity2, c, y, mode="orient")):
        with pytest.raises(ValueError, match="symbols must be integers"):
            call()


def test_find_witness_validates_c_and_y_once(k66_rep2, k66_grs, four_cycle_rep3, monkeypatch):
    # the search checks its inputs once, then runs peel, the builder and
    # the check on the checked arrays; the public entries keep checking
    counts = {"is_codeword": 0, "check_word": 0}
    real_is_codeword, real_check_word = ExpanderCode.is_codeword, certificate.check_word

    def counted_is_codeword(self, word):
        counts["is_codeword"] += 1
        return real_is_codeword(self, word)

    def counted_check_word(*args):
        counts["check_word"] += 1
        return real_check_word(*args)

    monkeypatch.setattr(ExpanderCode, "is_codeword", counted_is_codeword)
    monkeypatch.setattr(certificate, "check_word", counted_check_word)
    codes = {"k66_rep2": k66_rep2, "k66_grs": k66_grs, "four_cycle_rep3": four_cycle_rep3}
    searches = 0
    for name, code in codes.items():
        for case in GOLDEN_WITNESSES[name]:
            for mode in ("peel", "orient"):
                counts.update(is_codeword=0, check_word=0)
                find_witness(code, np.array(case["c"]), np.array(case["y"]), mode=mode)
                assert counts == {"is_codeword": 1, "check_word": 1}
                searches += 1
    assert searches == 2 * sum(len(GOLDEN_WITNESSES[name]) for name in codes)
    # orient mode tests c too, also where no orientation would be found
    for mode in ("peel", "orient"):
        with pytest.raises(ValueError, match="c must be a codeword"):
            find_witness(four_cycle_rep3, [0, 0, 0, 1], [0, 0, 0, 0], mode=mode)


# -- witnesses pinned to recorded values ---------------------------------------------

GOLDEN_WITNESSES = json.loads(
    (Path(__file__).parent / "golden" / "witnesses.json").read_text())


def _as_strings(witness):
    return {"tau_a": [[str(x) for x in row] for row in witness.tau_a],
            "tau_b": [[str(x) for x in row] for row in witness.tau_b],
            "epsilon": str(witness.epsilon)}


@pytest.mark.parametrize("fixture", ["k66_rep2", "k66_grs", "four_cycle_rep3"])
def test_witnesses_match_golden(fixture, request):
    code = request.getfixturevalue(fixture)
    for case in GOLDEN_WITNESSES[fixture]:
        c, y = np.array(case["c"]), np.array(case["y"])
        trace = peel(code, c, y)
        assert trace.terminated_empty == case["peel_terminated_empty"]
        heads = {int(e): side for e, side in case["orient_edges"].items()}
        oriented = OrientedEdgeSet(graph=code.graph, edges=tuple(heads), head_side=heads,
                                   cap_a=1, cap_b=1)
        built = [build_witness_from_peeling(code, c, y, trace),
                 build_witness_from_orientation(code, c, y, oriented)]
        assert [_as_strings(w) for w in built] == [case["peel"], case["orient"]]
        for mode in ("peel", "orient"):
            result = find_witness(code, c, y, mode=mode)
            assert case[f"find_{mode}"] == {"found": result.witness_found,
                                            "reason": result.reason,
                                            "epsilon": str(result.epsilon)}
        # every tau row is its own list: one edit in place shows up nowhere else
        e = min(heads, default=0)
        for witness in built:
            expected = _as_strings(witness)
            witness.tau_a[e][int(c[e])] += 1
            expected["tau_a"][e][int(c[e])] = str(Fraction(expected["tau_a"][e][int(c[e])]) + 1)
            assert _as_strings(witness) == expected


# -- the search checks the integers its writer wrote ----------------------------------


@pytest.mark.parametrize("epsilon, dtype", [(EPS, np.int64), (Fraction(1, 10**30), object)],
                         ids=["int64", "object"])
@pytest.mark.parametrize("fixture", ["k66_rep2", "k66_grs", "four_cycle_rep3"])
def test_writer_integers_equal_the_read_back(fixture, epsilon, dtype, request):
    # on the recorded patterns, both routes: the arrays the writer hands the
    # search are what check_witness reads back from the lists it renders
    code = request.getfixturevalue(fixture)
    shape, delta = (code.num_edges, code.field.q), code.graph.delta
    for case in GOLDEN_WITNESSES[fixture]:
        c, y = np.array(case["c"]), np.array(case["y"])
        heads = {int(e): side for e, side in case["orient_edges"].items()}
        oriented = OrientedEdgeSet(graph=code.graph, edges=tuple(heads), head_side=heads,
                                   cap_a=1, cap_b=1)
        built = [certificate._write_witness(code, c, y, released, "route")
                 for released in (certificate._released_by_peeling(peel(code, c, y)),
                                  certificate._released_by_orientation(code, oriented))]
        for witness, scaled in built:
            tau, den, eps_scaled = certificate._scaled_taus(witness, shape, delta)
            assert tau.dtype == scaled.tau.dtype == np.int64
            assert np.array_equal(tau, scaled.tau)
            assert (den, eps_scaled) == (scaled.den, scaled.eps)
            # moved to epsilon, the lists read back as the writer's integers
            # with epsilon's in place of its own: h/2 * den - k * eps * den
            tau, den, eps_scaled = certificate._scaled_taus(
                remargin_witness(witness, epsilon), shape, delta)
            k = scaled.tau % (scaled.den // 2) != 0
            halves = (scaled.tau + k * scaled.eps) // (scaled.den // 2)
            assert tau.dtype == dtype
            assert np.array_equal(tau, halves.astype(object) * (den // 2) - k * eps_scaled)


def _edit_both(code, c, witness, scaled, rng):
    """One to three random edits, made alike to a witness's lists and to
    its scaled integers."""
    steps = [Fraction(1, 2), Fraction(-1, 2), Fraction(3), Fraction(-3),
             witness.epsilon, -witness.epsilon]
    for _ in range(int(rng.integers(1, 4))):
        side = int(rng.integers(2))
        e = int(rng.integers(code.num_edges))
        # the codeword symbol a third of the time, so weak constraints get hit
        alpha = int(c[e]) if rng.integers(3) == 2 else int(rng.integers(code.field.q))
        step = steps[int(rng.integers(len(steps)))]
        (witness.tau_a, witness.tau_b)[side][e][alpha] += step
        scaled.tau[side, e, alpha] += int(step * scaled.den)


@pytest.mark.parametrize("epsilon, dtype", [(EPS, np.int64), (Fraction(1, 10**30), object)],
                         ids=["int64", "object"])
@pytest.mark.parametrize("fixture", ["k66_rep2", "k66_rep3", "k66_grs"])
def test_find_witness_verdict_matches_fraction_reference(fixture, epsilon, dtype, request,
                                                         monkeypatch):
    # the search's verdict and reason are the Fraction reference's on the
    # witness it built: as written, and after edits made to its lists and
    # its integers alike.  Moved to epsilon, the witness's check on the
    # dtype's path agrees with the reference too, at the search's location
    # when unedited
    code = request.getfixturevalue(fixture)
    rng = np.random.default_rng(505)
    real = certificate._write_witness
    built = []
    edit = False

    def recording(*args):
        witness, scaled = real(*args)
        if edit:
            _edit_both(code, args[1], witness, scaled, rng)
        built.append(witness)
        return witness, scaled

    monkeypatch.setattr(certificate, "_write_witness", recording)
    q = code.field.q
    kinds = set()
    for _ in range(6):
        c = code.random_codeword(rng)
        y = c.copy()
        errors = rng.choice(code.num_edges, size=int(rng.integers(1, 4)), replace=False)
        y[errors] = (y[errors] + rng.integers(1, q, size=len(errors))) % q
        for mode in ("peel", "orient"):
            for edit in (False,) + (True,) * 6:
                built.clear()
                result = find_witness(code, c, y, mode=mode)
                if not built:
                    continue
                slow = check_witness_by_fraction(code, c, y, built[0])
                if result.witness_found:
                    assert slow.ok and result.witness is built[0]
                else:
                    assert result.reason == f"witness fails the exact check: {slow.violation}"
                moved = remargin_witness(built[0], epsilon)
                assert certificate._scaled_taus(moved, (code.num_edges, q),
                                                code.graph.delta).tau.dtype == dtype
                verdict = _same_verdict(code, c, y, moved)
                if not edit:
                    assert _location(verdict) == _location(slow)
                kinds.add("ok" if verdict.ok else verdict.violation.split(" at ")[0])
    assert kinds == {"ok", "strict edge constraint", "weak edge constraint",
                     "vertex constraint"}


@pytest.mark.parametrize("epsilon, dtype", [(EPS, np.int64), (Fraction(1, 10**30), object)],
                         ids=["int64", "object"])
def test_edge_limits_are_tight_at_every_cell(k66_grs, epsilon, dtype):
    # tau_a at an edge constraint's limit in every cell passes the edge
    # checks; one more at any cell is that cell's violation, with the
    # message the Fraction reference gives
    code = k66_grs
    num_edges, q = code.num_edges, code.field.q
    rng = np.random.default_rng(606)
    c = code.random_codeword(rng)
    y = c.copy()
    errors = rng.choice(num_edges, size=4, replace=False)
    y[errors] = (y[errors] + rng.integers(1, q, size=4)) % q
    den = 2 * epsilon.denominator
    limit = [[(-1 if alpha == y[e] else 1) - (0 if alpha == c[e] else epsilon)
              for alpha in range(q)] for e in range(num_edges)]
    tau = np.zeros((2, num_edges, q), dtype=dtype)
    tau[0] = [[int(v * den) for v in row] for row in limit]
    assert tau.dtype == dtype
    verdict = certificate._check_scaled(code, c, y, certificate._Scaled(tau, den,
                                                                        int(epsilon * den)))
    assert verdict.ok or verdict.violation.startswith("vertex constraint")
    cells = [(int(e), alpha) for e in errors for alpha in range(q)]
    cells += [(int(e), int(alpha)) for e, alpha in zip(rng.integers(num_edges, size=30),
                                                        rng.integers(q, size=30))]
    kinds = set()
    for e, alpha in cells:
        bumped = tau.copy()
        bumped[1, e, alpha] += 1
        verdict = certificate._check_scaled(code, c, y, certificate._Scaled(
            bumped, den, int(epsilon * den)))
        witness = DualWitness(tau_a=[list(row) for row in limit],
                              tau_b=[[Fraction(0)] * q for _ in range(num_edges)],
                              epsilon=epsilon)
        witness.tau_b[e][alpha] = Fraction(1, den)
        assert verdict.violation == check_witness_by_fraction(code, c, y, witness).violation
        kinds.add(verdict.violation.split(" at ")[0])
    assert kinds == {"weak edge constraint", "strict edge constraint"}


def test_find_witness_reads_no_value_objects(k66_rep2, k66_grs, four_cycle_rep3, monkeypatch):
    # the search checks the writer's integers, never the Fraction lists
    def refuse(values):
        raise AssertionError("find_witness read a witness's value objects")

    monkeypatch.setattr(certificate, "_distinct_ratios", refuse)
    codes = {"k66_rep2": k66_rep2, "k66_grs": k66_grs, "four_cycle_rep3": four_cycle_rep3}
    for name, code in codes.items():
        for case in GOLDEN_WITNESSES[name]:
            for mode in ("peel", "orient"):
                result = find_witness(code, np.array(case["c"]), np.array(case["y"]), mode=mode)
                assert case[f"find_{mode}"] == {"found": result.witness_found,
                                                "reason": result.reason,
                                                "epsilon": str(result.epsilon)}


# -- witness lists built on first read ----------------------------------------------


def _found_witnesses(code, fixture):
    """(c, y, a search that finds a witness, an eager witness equal to the
    one it finds) per golden pattern and mode where find_witness finds one."""
    for case in GOLDEN_WITNESSES[fixture]:
        c, y = np.array(case["c"]), np.array(case["y"])
        for mode in ("peel", "orient"):
            if case[f"find_{mode}"]["found"]:
                search = functools.partial(find_witness, code, c, y, mode=mode)
                read = search().witness
                yield c, y, search, DualWitness(tau_a=copy.deepcopy(read.tau_a),
                                                tau_b=copy.deepcopy(read.tau_b),
                                                epsilon=read.epsilon)


@pytest.mark.parametrize("fixture", ["k66_rep2", "k66_grs", "four_cycle_rep3"])
def test_tamper_of_an_unread_witness_is_seen(fixture, request):
    # perfbench's tamper: deepcopy a found witness no one has read and add 3
    # to tau_a[0][0]; check_witness reads the edited lists
    code = request.getfixturevalue(fixture)
    strict = 0
    for c, y, search, eager in _found_witnesses(code, fixture):
        unread = search().witness
        bad = copy.deepcopy(unread)
        bad.tau_a[0][0] += 3
        eager.tau_a[0][0] += 3
        verdict = check_witness(code, c, y, bad)
        assert not verdict.ok and verdict == check_witness(code, c, y, eager)
        if c[0] != 0:
            assert verdict.violation.startswith("strict edge constraint at edge 0, symbol 0:")
            strict += 1
        assert check_witness(code, c, y, unread).ok
    assert strict


@pytest.mark.parametrize("fixture", ["k66_rep2", "k66_grs", "four_cycle_rep3"])
def test_unread_witness_equals_an_eager_one(fixture, request):
    # asdict, ==, repr, copies and a pickle round trip read the fields, so a
    # witness no one has read looks like one built from its lists
    code = request.getfixturevalue(fixture)
    views = [dataclasses.asdict, repr, copy.copy, copy.deepcopy,
             lambda w: pickle.loads(pickle.dumps(w))]
    for _, _, search, eager in _found_witnesses(code, fixture):
        assert search().witness == eager and eager == search().witness
        for view in views:
            assert view(search().witness) == view(eager)
        # a shallow copy shares the lists, and a pickle holds only the fields
        unread = search().witness
        assert copy.copy(unread).tau_b is unread.tau_b
        assert vars(pickle.loads(pickle.dumps(search().witness))).keys() == {
            "tau_a", "tau_b", "epsilon"}
        # a field assigned before the first read is kept
        unread = search().witness
        unread.tau_a = eager.tau_a
        assert unread == eager and unread.tau_a is eager.tau_a


def test_plan_entry_goes_with_its_code(k66_rep2):
    code = ExpanderCode(k66_rep2.graph, k66_rep2.code_a, k66_rep2.code_b)
    c = np.zeros(36, dtype=np.int64)
    y = c.copy()
    y[0] = 1
    assert find_witness(code, c, y, mode="orient").witness_found
    plan = certificate._PLANS[code]
    assert plan.gather.shape == (2, 6, 12) and plan.onehot.shape == (2, 12, 2)
    assert not plan.gather.flags.writeable and not plan.onehot.flags.writeable
    entries = len(certificate._PLANS)
    ref = weakref.ref(code)
    del code
    gc.collect()
    assert ref() is None
    assert len(certificate._PLANS) == entries - 1


# -- no numpy.ma ------------------------------------------------------------------

_NO_MASKED_ARRAYS = """
import sys
import numpy as np
from expanderlp import certificate, decode
from expanderlp.harness import resolve_instance, sample_error_pattern

for spec, weight, decodes in ((("random:40:6:1", "repetition:2:6", "repetition:2:6"), 6, True),
                              (("random:100:6:1", "grs:7:6:2", "grs:7:6:2"), 20, False)):
    code = resolve_instance(*spec)
    rng = np.random.default_rng(1)
    c = code.random_codeword(rng)
    y = sample_error_pattern(code, c, weight, rng)
    if decodes:
        assert decode(code, y).status == "codeword"
    for mode in ("peel", "orient"):
        result = certificate.find_witness(code, c, y, mode=mode)
        assert result.witness_found, (spec, mode, result.reason)
        assert certificate.check_witness(code, c, y, result.witness).ok
print("numpy.ma" in sys.modules)
"""


def test_decode_and_certify_leave_numpy_ma_unimported():
    # a plain np.unique(arr) imports numpy.ma, ~1.3 MB of peak RSS; the
    # decode, both witness routes and check_witness on the sweep and
    # certify codes must not, so this runs them in a fresh process
    import expanderlp
    src = str(Path(expanderlp.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", _NO_MASKED_ARRAYS], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False"]
