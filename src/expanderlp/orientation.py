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
"""

from __future__ import annotations

import math
import warnings
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError, InternalInvariantError
from .tanner_graph import TannerGraph


@dataclass
class OrientedEdgeSet:
    """A direction for each edge of a subset, with per-side in-degree caps.

    head_side[e] is "a" or "b": the endpoint the edge points at.  Vertices
    are global ids, as in TannerGraph.ends (A-side vertex v is v, B-side
    vertex v is n + v).
    """

    graph: TannerGraph
    edges: tuple[int, ...]
    head_side: dict[int, str]
    cap_a: int
    cap_b: int

    def __post_init__(self) -> None:
        self.edges = tuple(sorted(int(e) for e in self.edges))
        if set(self.head_side) != set(self.edges):
            raise ValueError("head_side must assign exactly the edges of the set")
        for e, side in self.head_side.items():
            if side not in ("a", "b"):
                raise ValueError(f"bad head side {side!r} for edge {e}")

    def head(self, e: int) -> int:
        return int(self.graph.ends["ab".index(self.head_side[e]), e])

    def tail(self, e: int) -> int:
        return int(self.graph.ends["ba".index(self.head_side[e]), e])

    def indegrees(self) -> dict[int, int]:
        """In-edge counts by global vertex id; only vertices that appear."""
        counts: dict[int, int] = {}
        for e in self.edges:
            h = self.head(e)
            counts[h] = counts.get(h, 0) + 1
        return counts

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


def _floor_cap(cap, name: str) -> int:
    if isinstance(cap, int):
        value = cap
    else:
        value = math.floor(cap)
        if Fraction(cap) != value:
            warnings.warn(f"{name} = {cap} is not an integer; flooring to {value}",
                          stacklevel=3)
    if value < 0:
        raise DomainError(f"{name} must be nonnegative, got {cap}")
    return value


def orient(graph: TannerGraph, edges, cap_a, cap_b):
    """Direct the given edges with in-degree at most cap_a on A, cap_b on B.

    Returns an OrientedEdgeSet on success, or an OrientationFailure carrying
    a blocking vertex set when the caps are impossible.  Non-integer caps are
    floored (with a warning), since in-degrees are integers anyway.
    """
    cap_a = _floor_cap(cap_a, "cap_a")
    cap_b = _floor_cap(cap_b, "cap_b")
    edge_list = sorted({int(e) for e in edges})
    for e in edge_list:
        if not 0 <= e < graph.num_edges:
            raise ValueError(f"edge id {e} out of range")
    head_side = {e: "b" for e in edge_list}
    # flipped in place below; on success this is the result
    oriented = OrientedEdgeSet(graph=graph, edges=tuple(edge_list),
                               head_side=head_side, cap_a=cap_a, cap_b=cap_b)
    head_of, tail_of, cap_of = oriented.head, oriented.tail, oriented.cap_of

    # incident error edges per global vertex, ascending
    incident: dict[int, list[int]] = {}
    for e, ends in zip(edge_list, graph.ends[:, edge_list].T.tolist()):
        for v in ends:
            incident.setdefault(v, []).append(e)

    indeg: dict[int, int] = {v: 0 for v in incident}
    for e in edge_list:
        indeg[head_of(e)] += 1

    def fix_one(v: int) -> frozenset[int] | None:
        """Shift one unit of excess off v; None on success, else the trapped set."""
        parent_edge: dict[int, int] = {v: -1}
        queue = deque([v])
        while queue:
            u = queue.popleft()
            for e in incident[u]:
                if head_of(e) != u:
                    continue
                t = tail_of(e)
                if t in parent_edge:
                    continue
                parent_edge[t] = e
                if indeg[t] < cap_of(t):
                    # flip the path t -> ... -> v; step to the old head first,
                    # since flipping makes the current node the new head
                    node = t
                    while node != v:
                        edge = parent_edge[node]
                        nxt = head_of(edge)
                        head_side[edge] = "a" if head_side[edge] == "b" else "b"
                        node = nxt
                    indeg[v] -= 1
                    indeg[t] += 1
                    return None
                queue.append(t)
        return frozenset(parent_edge)

    # a repair moves one unit to a vertex below its cap, so no vertex turns
    # heavy and the heavy vertices can be repaired in one ascending pass
    for heavy in sorted(v for v, d in indeg.items() if d > cap_of(v)):
        while indeg[heavy] > cap_of(heavy):
            trapped = fix_one(heavy)
            if trapped is None:
                continue
            induced = sum(1 for e in edge_list
                          if head_of(e) in trapped and tail_of(e) in trapped)
            capacity = sum(cap_of(v) for v in trapped)
            violations = sum(max(0, indeg[v] - cap_of(v)) for v in indeg)
            if induced <= capacity:
                raise InternalInvariantError(
                    "trapped vertex set does not actually exceed its capacity")
            return OrientationFailure(violations=violations,
                                      blocking_set=trapped,
                                      induced_edges=induced,
                                      capacity=capacity)

    return oriented


def verify_orientation(oriented: OrientedEdgeSet) -> list[tuple[int, int, int]]:
    """All cap violations as (global vertex, in-degree, cap); empty if valid."""
    violations = []
    for v, deg in sorted(oriented.indegrees().items()):
        cap = oriented.cap_of(v)
        if deg > cap:
            violations.append((v, deg, cap))
    return violations
