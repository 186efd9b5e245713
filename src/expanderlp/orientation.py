"""Orient an edge subset so that every vertex has small in-degree.

Given the error edges of a received word, directing each one at an endpoint
and keeping every vertex's in-degree under delta*Delta/4 yields a dual
witness directly (the head of each edge plays the part of the vertex that
released it during peeling).  This module does the directing.

The algorithm is greedy repair by path reversal.  Start with every edge
pointing at its B endpoint.  While some vertex is over its cap, walk
backwards along in-edges from it until a vertex with spare capacity is
found, and flip the whole path: the overloaded vertex loses an in-edge, the
spare vertex gains one, everyone in between breaks even.  If the backward
search is ever trapped, the set of vertices it reached induces more edges
than its total capacity, which proves no valid orientation exists at all;
that set is returned as the blocking certificate.

Edge ids and caps are integers, checked by gf.check_word: nothing is
floored or truncated.
"""

from __future__ import annotations

import math
from collections import Counter, deque
from collections.abc import Mapping
from dataclasses import dataclass
from types import MappingProxyType

from .errors import DomainError, InternalInvariantError
from .gf import check_word
from .tanner_graph import TannerGraph


@dataclass(frozen=True)
class OrientedEdgeSet:
    """A direction for each edge of a subset, with per-side in-degree caps.

    head_side[e] is "a" or "b": the endpoint the edge points at.  Vertices
    are global ids, as in TannerGraph.ends (A-side vertex v is v, B-side
    vertex v is n + v).  The set is frozen and head_side is a read-only
    view of its own copy, so the edge ids and heads stay the ones checked
    when it was made.
    """

    graph: TannerGraph
    edges: tuple[int, ...]
    head_side: Mapping[int, str]
    cap_a: int
    cap_b: int

    def __post_init__(self) -> None:
        edges = check_word(list(self.edges), self.graph.num_edges)
        object.__setattr__(self, "edges", tuple(sorted(edges.tolist())))
        object.__setattr__(self, "head_side", MappingProxyType(dict(self.head_side)))
        if set(self.head_side) != set(self.edges):
            raise ValueError("head_side must assign exactly the edges of the set")
        for e, side in self.head_side.items():
            if side not in ("a", "b"):
                raise ValueError(f"bad head side {side!r} for edge {e}")

    def __reduce__(self):
        # a read-only view does not pickle; the dict it views does
        return type(self), (self.graph, self.edges, dict(self.head_side), self.cap_a, self.cap_b)

    def indegrees(self) -> Counter[int]:
        """In-edge counts by global vertex id, in order of first appearance;
        only vertices that appear."""
        sides = ["ab".index(self.head_side[e]) for e in self.edges]
        return Counter(self.graph.ends[sides, list(self.edges)].tolist())

    def cap_of(self, vglobal: int) -> int:
        return self.cap_a if vglobal < self.graph.n else self.cap_b


@dataclass
class OrientationFailure:
    """Proof that the caps cannot be met.

    blocking_set induces more edges of the set than its combined capacity;
    every orientation must push some member of it over its cap.
    """

    violations: int
    blocking_set: frozenset[int]
    induced_edges: int
    capacity: int


def _check_cap(cap, name: str) -> int:
    """The cap as an int; DomainError unless it is a nonnegative integer.
    A cap has no upper bound, so check_word is given q = inf."""
    try:
        return int(check_word(cap, math.inf, ()))
    except ValueError as exc:
        raise DomainError(f"{name} must be a nonnegative integer, got {cap}") from exc


def orient(graph: TannerGraph, edges, cap_a, cap_b):
    """Direct the given edges with in-degree at most cap_a on A, cap_b on B.

    Returns an OrientedEdgeSet on success, or an OrientationFailure carrying
    a blocking vertex set when the caps are impossible.  The edges are ids
    in [0, num_edges), repeats ignored, or ValueError; a cap that is not a
    nonnegative integer is a DomainError.
    """
    cap_a = _check_cap(cap_a, "cap_a")
    cap_b = _check_cap(cap_b, "cap_b")
    edge_list = sorted(set(check_word(list(edges), graph.num_edges).tolist()))
    # each error edge's [A end, B end], gathered once; head[i] indexes the
    # end edge_list[i] points at, and a flip is head[i] ^= 1
    ends = graph.ends[:, edge_list].T.tolist()
    head = [1] * len(edge_list)

    # positions in edge_list of the error edges at each global vertex, ascending
    incident: dict[int, list[int]] = {}
    for i, pair in enumerate(ends):
        for v in pair:
            incident.setdefault(v, []).append(i)
    cap = {v: cap_a if v < graph.n else cap_b for v in incident}

    indeg: dict[int, int] = {v: 0 for v in incident}
    for _, b_end in ends:
        indeg[b_end] += 1

    def fix_one(v: int) -> frozenset[int] | None:
        """Shift one unit of excess off v; None on success, else the trapped set."""
        parent_edge: dict[int, int] = {v: -1}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for i in incident[u]:
                pair, h = ends[i], head[i]
                if pair[h] != u:
                    continue
                t = pair[1 - h]
                if t in parent_edge:
                    continue
                parent_edge[t] = i
                if indeg[t] < cap[t]:
                    # flip the path t -> ... -> v; step to the old head first,
                    # since flipping makes the current node the new head
                    node = t
                    while node != v:
                        edge = parent_edge[node]
                        node = ends[edge][head[edge]]
                        head[edge] ^= 1
                    indeg[v] -= 1
                    indeg[t] += 1
                    return None
                queue.append(t)
        return frozenset(parent_edge)

    # a repair moves one unit to a vertex below its cap, so no vertex turns
    # heavy and the heavy vertices can be repaired in one ascending pass
    for heavy in sorted(v for v, d in indeg.items() if d > cap[v]):
        while indeg[heavy] > cap[heavy]:
            trapped = fix_one(heavy)
            if trapped is None:
                continue
            induced = sum(1 for a_end, b_end in ends
                          if a_end in trapped and b_end in trapped)
            capacity = sum(cap[v] for v in trapped)
            violations = sum(max(0, indeg[v] - cap[v]) for v in indeg)
            if induced <= capacity:
                raise InternalInvariantError(
                    "trapped vertex set does not actually exceed its capacity")
            return OrientationFailure(violations=violations,
                                      blocking_set=trapped,
                                      induced_edges=induced,
                                      capacity=capacity)

    return OrientedEdgeSet(graph=graph, edges=tuple(edge_list),
                           head_side={e: "ab"[h] for e, h in zip(edge_list, head)},
                           cap_a=cap_a, cap_b=cap_b)


def verify_orientation(oriented: OrientedEdgeSet) -> list[tuple[int, int, int]]:
    """All cap violations as (global vertex, in-degree, cap); empty if valid."""
    violations = []
    for v, deg in sorted(oriented.indegrees().items()):
        cap = oriented.cap_of(v)
        if deg > cap:
            violations.append((v, deg, cap))
    return violations
