"""Bounded-in-degree orientation by path reversal, vs brute force."""

import copy
import itertools
import json
import pickle
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from expanderlp import (
    DomainError,
    OrientationFailure,
    OrientedEdgeSet,
    complete_bipartite,
    cycle_graph,
    orient,
    random_regular_bipartite,
    verify_orientation,
)

from oracles import orientation_exists_brute_force


def test_single_edge():
    g = complete_bipartite(2)
    result = orient(g, [0], 1, 1)
    assert isinstance(result, OrientedEdgeSet)
    assert verify_orientation(result) == []


def test_star_forced_to_point_outward():
    # three edges at one A vertex, cap 1 each side: at most one may point
    # at the center, so at least two land on distinct B vertices
    g = complete_bipartite(3)
    star = [int(e) for e in g.a_edges[0]]
    result = orient(g, star, 1, 1)
    assert isinstance(result, OrientedEdgeSet)
    assert verify_orientation(result) == []
    indeg = result.indegrees()
    assert all(d <= 1 for d in indeg.values())


def test_overloaded_star_fails_with_blocking_set():
    g = complete_bipartite(3)
    star = [int(e) for e in g.a_edges[0]]
    result = orient(g, star, 1, 0)
    assert isinstance(result, OrientationFailure)
    assert result.induced_edges > result.capacity
    assert 0 in result.blocking_set  # the A-side center is trapped
    # the reported numbers must describe the actual blocking set
    blocked = result.blocking_set
    induced = sum(1 for e in star
                  if int(g.a_of[e]) in blocked and (3 + int(g.b_of[e])) in blocked)
    assert induced == result.induced_edges
    assert result.capacity == sum(1 for v in blocked if v < 3)


def test_saturated_cycle_needs_reversals():
    # all four edges of the 4-cycle with caps 1/1: only the two directed
    # cycles work, and the all-B start must be repaired by path flipping
    g = cycle_graph(2)
    result = orient(g, [0, 1, 2, 3], 1, 1)
    assert isinstance(result, OrientedEdgeSet)
    assert sorted(result.indegrees().values()) == [1, 1, 1, 1]


def test_brute_force_equivalence_exhaustive():
    g = cycle_graph(3)
    all_edges = list(range(g.num_edges))
    for size in range(len(all_edges) + 1):
        for subset in itertools.combinations(all_edges, size):
            for cap_a in (0, 1, 2):
                for cap_b in (0, 1):
                    got = orient(g, list(subset), cap_a, cap_b)
                    expected = orientation_exists_brute_force(g, subset, cap_a, cap_b)
                    if expected:
                        assert isinstance(got, OrientedEdgeSet)
                        assert verify_orientation(got) == []
                    else:
                        assert isinstance(got, OrientationFailure)


def test_failure_blocking_sets_check_out(rng):
    # every reported failure must carry a genuinely over-capacity closure
    g = complete_bipartite(4)
    found_failure = False
    for _ in range(200):
        size = int(rng.integers(1, 10))
        subset = rng.choice(16, size=size, replace=False)
        result = orient(g, [int(e) for e in subset], 1, 0)
        if isinstance(result, OrientedEdgeSet):
            assert verify_orientation(result) == []
            continue
        found_failure = True
        blocked = result.blocking_set
        induced = sum(
            1 for e in subset
            if int(g.a_of[e]) in blocked and (4 + int(g.b_of[e])) in blocked)
        assert induced == result.induced_edges
        assert result.capacity == sum(
            1 if v < 4 else 0 for v in blocked)  # cap_a=1, cap_b=0
        assert induced > result.capacity
    assert found_failure


def test_fractional_caps_rejected():
    # in-degrees are integers, so a cap is one too: 3/2 is not floored to 1
    g = complete_bipartite(2)
    with pytest.raises(DomainError, match="cap_a must be a nonnegative integer"):
        orient(g, [0, 1], Fraction(3, 2), 1)
    assert orient(g, [0, 1], Fraction(2, 2), 1).cap_a == 1


def test_negative_cap_rejected():
    g = complete_bipartite(2)
    with pytest.raises(DomainError):
        orient(g, [0], -1, 1)


def test_bad_edge_ids_rejected():
    g = complete_bipartite(2)
    with pytest.raises(ValueError):
        orient(g, [99], 1, 1)


@pytest.mark.parametrize("edge", [-1, 36])
def test_oriented_set_rejects_edge_ids_off_the_graph(edge):
    # -1 would otherwise read as the last edge, and 36 fail as an IndexError
    g = complete_bipartite(6)
    with pytest.raises(ValueError, match=rf"in \[0, 36\), got {edge}"):
        OrientedEdgeSet(graph=g, edges=(edge,), head_side={edge: "b"}, cap_a=0, cap_b=0)


def test_head_tail_bookkeeping():
    g = complete_bipartite(2)
    oriented = OrientedEdgeSet(graph=g, edges=(0,), head_side={0: "b"},
                               cap_a=1, cap_b=1)
    assert oriented.indegrees() == {2 + int(g.b_of[0]): 1}
    flipped = OrientedEdgeSet(graph=g, edges=(0,), head_side={0: "a"},
                              cap_a=1, cap_b=1)
    assert flipped.indegrees() == {int(g.a_of[0]): 1}


def test_oriented_set_validates_head_side():
    g = complete_bipartite(2)
    with pytest.raises(ValueError):
        OrientedEdgeSet(graph=g, edges=(0, 1), head_side={0: "a"}, cap_a=1, cap_b=1)
    with pytest.raises(ValueError):
        OrientedEdgeSet(graph=g, edges=(0,), head_side={0: "up"}, cap_a=1, cap_b=1)


def test_head_side_is_read_only():
    # a deleted head once reached the witness builder as a TypeError from
    # "ab".index(None); now the edit itself fails, and the set keeps its
    # own copy of the heads it checked
    g = complete_bipartite(6)
    heads = {3: "b"}
    oriented = OrientedEdgeSet(graph=g, edges=(3,), head_side=heads, cap_a=1, cap_b=1)
    with pytest.raises(TypeError):
        del oriented.head_side[3]
    with pytest.raises(TypeError):
        oriented.head_side[3] = "up"
    heads[3] = "a"
    assert oriented.head_side == {3: "b"}
    for copied in (copy.copy(oriented), copy.deepcopy(oriented),
                   pickle.loads(pickle.dumps(oriented))):
        assert (copied.edges, copied.head_side, copied.cap_a, copied.cap_b) == (
            (3,), {3: "b"}, 1, 1)
        with pytest.raises(TypeError):
            del copied.head_side[3]


def test_verify_orientation_reports_violations():
    g = complete_bipartite(2)
    both_at_a0 = [int(e) for e in g.a_edges[0]]
    oriented = OrientedEdgeSet(graph=g, edges=tuple(both_at_a0),
                               head_side={e: "a" for e in both_at_a0},
                               cap_a=1, cap_b=1)
    assert verify_orientation(oriented) == [(0, 2, 1)]


def test_orientation_deterministic():
    g = complete_bipartite(4)
    edges = [0, 3, 5, 9, 12]
    a = orient(g, edges, 1, 1)
    b = orient(g, edges, 1, 1)
    assert isinstance(a, OrientedEdgeSet)
    assert a.head_side == b.head_side


def test_empty_edge_set():
    g = complete_bipartite(2)
    result = orient(g, [], 0, 0)
    assert isinstance(result, OrientedEdgeSet)
    assert result.edges == ()


# -- orientations pinned to recorded values ------------------------------------------

GOLDEN_ORIENTATIONS = json.loads(
    (Path(__file__).parent / "golden" / "orientations.json").read_text())


def test_orientations_match_golden():
    # the repairs run in a fixed order (lowest heavy vertex first), so which
    # edges end up flipped, or which set blocks, is part of the output
    g = random_regular_bipartite(20, 6, seed=1)
    for case in GOLDEN_ORIENTATIONS:
        got = orient(g, case["edges"], *case["caps"])
        if "heads" in case:
            assert "".join(got.head_side[e] for e in got.edges) == case["heads"]
        else:
            assert (got.violations, sorted(got.blocking_set), got.induced_edges,
                    got.capacity) == (case["violations"], case["blocking_set"],
                                      case["induced_edges"], case["capacity"])
