"""Delta-regular bipartite graphs whose edges carry code symbols.

Both sides have n vertices.  Edges are held in a fixed global order (the
order defines symbol positions in words), lexicographic by (a, b) for the
built-in constructors, file order when loaded from text.  Every graph is
validated to be simple, regular and connected; gf.check_word checks its
endpoints and the vertex ids passed to count_induced_edges.

Where one id space covers both sides, A vertex v is v and B vertex v is
n + v; `ends` holds every edge's two endpoints in that numbering, and the
rest of the package reads it from there.

The expansion quantity gamma is the second largest adjacency eigenvalue of
the (2n)-vertex graph, by signed value, divided by Delta.  It is computed on
the first call of spectral_gamma() and kept.  Graphs of up to 600 vertices
use a dense symmetric eigensolve; larger ones use power iteration on the
shifted adjacency operator with the known top eigenvector deflated away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import GraphConstructionError, NumericError
from .gf import check_word

_DENSE_LIMIT = 600          # use a dense eigensolve up to this many total vertices
_TOP_TOL = 1e-7             # the dense top eigenvalue must be Delta within this times Delta
_POWER_TOL = 1e-6
_POWER_STEPS = 100_000
_MATCHING_ATTEMPTS = 100_000   # single permutation draws per matching
# random_regular_bipartite draws a matching's candidates in batches that
# start at up to _FIRST_BATCH permutations and double up to _BATCH_BYTES of
# int64 rows
_FIRST_BATCH = 8
_BATCH_BYTES = 64 * 1024
_GRAPH_ATTEMPTS = 200


@dataclass(frozen=True)
class SpectralInfo:
    """Top two adjacency eigenvalues and their ratio gamma = lambda2 / Delta."""

    lambda1: float
    lambda2: float
    gamma: float


class EdgeCountBounds(NamedTuple):
    """Upper bounds on the degree sum 2|E(U_A, U_B)| of an induced subgraph."""

    tight: float
    loose: float


class TannerGraph:
    """A Delta-regular bipartite graph on n + n vertices with ordered edges.

    A-side vertices are 0..n-1 and B-side vertices are also 0..n-1 in their
    own namespace.  ends[0, e] and ends[1, e] are edge e's A and B endpoints
    as global ids, the B side offset by n.
    """

    def __init__(self, n: int, delta: int, edges: Sequence[tuple[int, int]]):
        if n < 1:
            raise ValueError("n must be positive")
        if not 1 <= delta <= n:
            raise ValueError(f"need 1 <= delta <= n, got delta={delta}, n={n}")
        self.a_of, self.b_of = check_word(edges, n, (delta * n, 2)).T.copy()
        if len(set((self.a_of * n + self.b_of).tolist())) != delta * n:
            raise ValueError("parallel edges are not allowed")
        self.n = n
        self.delta = delta
        counts_a = np.bincount(self.a_of, minlength=n)
        counts_b = np.bincount(self.b_of, minlength=n)
        if (counts_a != delta).any() or (counts_b != delta).any():
            raise ValueError("graph is not delta-regular on both sides")
        self.ends = np.stack((self.a_of, n + self.b_of))
        # incidence: edge ids at each vertex, ascending
        self.a_edges = np.argsort(self.a_of, kind="stable").reshape(n, delta)
        self.b_edges = np.argsort(self.b_of, kind="stable").reshape(n, delta)
        if not self._connected():
            raise ValueError("graph is not connected")
        self._spectral: SpectralInfo | None = None

    # -- structure ------------------------------------------------------------

    @property
    def num_edges(self) -> int:
        return self.delta * self.n

    def edges(self) -> list[tuple[int, int]]:
        return list(zip(self.a_of.tolist(), self.b_of.tolist()))

    def _connected(self) -> bool:
        """Grow the reached set from vertex 0 across whole edge layers, A to
        B then B to A, until it stops growing; connected if it holds all 2n."""
        a, b = self.ends
        reached = np.zeros(2 * self.n, dtype=bool)
        reached[0] = True
        count = 1
        while True:
            reached[b[reached[a]]] = True
            reached[a[reached[b]]] = True
            grown = np.count_nonzero(reached)
            if grown == count:
                return count == 2 * self.n
            count = grown

    def adjacency_matrix(self) -> np.ndarray:
        """Dense (2n, 2n) 0/1 adjacency; A side first, B side offset by n."""
        size = 2 * self.n
        adj = np.zeros((size, size))
        a, b = self.ends
        adj[a, b] = 1.0
        adj[b, a] = 1.0
        return adj

    # -- spectra ----------------------------------------------------------------

    def spectral_gamma(self) -> SpectralInfo:
        """lambda1, lambda2 and gamma = lambda2 / Delta, computed on the first call."""
        if self._spectral is None:
            if 2 * self.n <= _DENSE_LIMIT:
                evs = np.linalg.eigvalsh(self.adjacency_matrix())
                lambda1, lambda2 = float(evs[-1]), float(evs[-2])
                if abs(lambda1 - self.delta) > _TOP_TOL * self.delta:
                    raise NumericError(
                        f"top eigenvalue {lambda1} is not Delta={self.delta}")
            else:
                lambda1, lambda2 = float(self.delta), self._power_lambda2()
            self._spectral = SpectralInfo(lambda1=lambda1, lambda2=lambda2,
                                          gamma=lambda2 / self.delta)
        return self._spectral

    def _power_lambda2(self) -> float:
        """Power iteration for the second eigenvalue, by signed value.

        Works on C = A + Delta*I with the eigenvector of lambda1 = Delta
        (the all-ones vector) deflated.  The -Delta eigenvector shifts to 0
        on its own, so the dominant eigenvalue of the deflated C is
        Delta + lambda2 >= 0 and the iteration converges to it.
        """
        size = 2 * self.n
        delta = float(self.delta)
        u1 = np.full(size, 1.0 / math.sqrt(size))
        a, b = self.ends

        def op(v: np.ndarray) -> np.ndarray:
            out = delta * v
            np.add.at(out, a, v[b])
            np.add.at(out, b, v[a])
            out -= (2.0 * delta) * (u1 @ v) * u1
            return out

        rng = np.random.default_rng(0x5EED)
        v = rng.standard_normal(size)
        v -= (u1 @ v) * u1
        v /= np.linalg.norm(v)
        prev = math.inf
        for _ in range(_POWER_STEPS):
            w = op(v)
            lam = float(v @ w)
            nrm = np.linalg.norm(w)
            if nrm < 1e-30:
                # deflated operator annihilated v: remaining spectrum is 0
                return -delta
            v = w / nrm
            v -= (u1 @ v) * u1
            v /= np.linalg.norm(v)
            if abs(lam - prev) <= _POWER_TOL * max(1.0, delta):
                resid = np.linalg.norm(op(v) - lam * v)
                if resid <= 10 * _POWER_TOL * max(1.0, delta):
                    return lam - delta
            prev = lam
        raise NumericError(f"power iteration did not converge in {_POWER_STEPS} steps")

    # -- induced subgraph counting ------------------------------------------------

    def count_induced_edges(self, a_subset, b_subset) -> int:
        in_a = np.zeros(self.n, dtype=bool)
        in_b = np.zeros(self.n, dtype=bool)
        for inside, subset in ((in_a, a_subset), (in_b, b_subset)):
            inside[check_word(list(subset), self.n)] = True
        return int(np.count_nonzero(in_a[self.a_of] & in_b[self.b_of]))

    def induced_edge_count_bound(self, alpha: float, beta: float) -> EdgeCountBounds:
        """Expander-mixing bounds on the degree sum of an induced subgraph.

        For vertex subsets of sizes alpha*n and beta*n, the degree sum
        2|E(U_A, U_B)| is at most the tight value
        2(alpha*beta + gamma*sqrt(alpha(1-alpha)beta(1-beta)))*Delta*n,
        which itself is at most the looser
        2((1-gamma)*alpha*beta + gamma*sqrt(alpha*beta))*Delta*n.
        """
        if not (0 <= alpha <= 1 and 0 <= beta <= 1):
            raise ValueError("alpha and beta must lie in [0, 1]")
        gamma = self.spectral_gamma().gamma
        dn = self.delta * self.n
        tight = 2 * (alpha * beta + gamma * math.sqrt(alpha * (1 - alpha) * beta * (1 - beta))) * dn
        loose = 2 * ((1 - gamma) * alpha * beta + gamma * math.sqrt(alpha * beta)) * dn
        return EdgeCountBounds(tight=tight, loose=loose)

    # -- text format ----------------------------------------------------------------

    def to_text(self) -> str:
        """Header ``n delta`` then one ``a b`` line per edge, in global order."""
        lines = [f"{self.n} {self.delta}"]
        lines.extend(f"{int(a)} {int(b)}" for a, b in zip(self.a_of, self.b_of))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str) -> "TannerGraph":
        rows = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
        if not rows:
            raise ValueError("empty graph file")
        header = rows[0].split()
        if len(header) != 2:
            raise ValueError(f"header must be 'n delta', got {rows[0]!r}")
        n, delta = int(header[0]), int(header[1])
        edges = []
        for ln in rows[1:]:
            parts = ln.split()
            if len(parts) != 2:
                raise ValueError(f"bad edge line {ln!r}")
            edges.append((int(parts[0]), int(parts[1])))
        return cls(n, delta, edges)

    def __repr__(self) -> str:
        return f"TannerGraph(n={self.n}, delta={self.delta})"


# -- constructors ------------------------------------------------------------------

def complete_bipartite(n: int) -> TannerGraph:
    """K_{n,n}: every A vertex joined to every B vertex (Delta = n, gamma = 0)."""
    edges = [(a, b) for a in range(n) for b in range(n)]
    return TannerGraph(n, n, edges)


def cycle_graph(n: int) -> TannerGraph:
    """The 2n-cycle as a 2-regular bipartite graph: a_i ~ b_i and a_i ~ b_{i-1}."""
    if n < 2:
        raise ValueError("cycle needs n >= 2")
    edges = sorted({(i, i) for i in range(n)} | {(i, (i - 1) % n) for i in range(n)})
    return TannerGraph(n, 2, edges)


def random_regular_bipartite(n: int, delta: int, seed: int) -> TannerGraph:
    """A random simple Delta-regular bipartite graph.

    Built as a union of Delta random perfect matchings; each matching is
    redrawn until it is edge-disjoint from the earlier ones, and the whole
    graph is resampled until connected.  Deterministic for a fixed seed.
    Neither this rejection loop nor its fallback below samples uniformly
    from the Delta-regular bipartite graphs; a switch chain is the usual
    route to near-uniform samples.

    The matchings are drawn in batches, but the graph is the one that
    drawing one rng.permutation(n) at a time gives: rng.permuted over the
    rows of a (b, n) batch consumes the generator as b such calls do and
    returns the same rows.  The first row that is disjoint from the edges
    used so far is the matching; when rows follow it, the generator goes
    back to its state before the batch and redraws the rows up to that one.
    So it stands where the one-at-a-time loop leaves it, and the next
    matching, or the resample after a disconnected graph, sees the same
    numbers.

    With Delta near n the last matchings are rare among all permutations.
    When one has not turned up in _MATCHING_ATTEMPTS draws, this matching
    and the rest are completed by augmenting paths (_augmented_matching):
    the edges not used by the j matchings so far form an (n - j)-regular
    bipartite graph, which has a perfect matching by Konig's theorem, so
    every valid (n, Delta) finishes.
    """
    if not 1 <= delta <= n:
        raise GraphConstructionError(f"need 1 <= delta <= n, got delta={delta}, n={n}")
    rng = np.random.default_rng(seed)
    most = max(1, _BATCH_BYTES // (8 * n))
    vertices = np.broadcast_to(np.arange(n), (most, n))
    row_start = np.arange(0, n * n, n)      # edge (a, b) is the number a*n + b
    for _ in range(_GRAPH_ATTEMPTS):
        used = np.zeros(n * n, dtype=bool)
        for j in range(delta):
            # a draw misses the j earlier matchings with chance about e^-j
            drawn, batch = 0, min(_FIRST_BATCH, 1 << j)
            while drawn < _MATCHING_ATTEMPTS:
                size = min(batch, most, _MATCHING_ATTEMPTS - drawn)
                state = rng.bit_generator.state
                edges = rng.permuted(vertices[:size], axis=1)
                edges += row_start
                free = np.flatnonzero(~used.take(edges).any(axis=1))
                if len(free):
                    hit = int(free[0])
                    if hit + 1 < size:
                        rng.bit_generator.state = state
                        rng.permuted(vertices[:hit + 1], axis=1)
                    used[edges[hit]] = True
                    break
                drawn += size
                batch *= 2
            else:
                for _ in range(j, delta):
                    used[row_start + _augmented_matching(~used.reshape(n, n), rng)] = True
                break
        try:
            # row-major order is the sorted order of the numbers a*n + b
            return TannerGraph(n, delta, np.column_stack(used.reshape(n, n).nonzero()))
        except ValueError:
            continue   # disconnected sample; try again
    raise GraphConstructionError(
        f"no connected sample in {_GRAPH_ATTEMPTS} attempts (n={n}, delta={delta})")


def _augmented_matching(free: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """A perfect matching inside the (n, n) boolean mask free, as the B
    vertex matched to each A vertex; the mask must hold one.

    A vertices are matched in the order of one rng.permutation(n), each
    along the shortest augmenting path (breadth first), trying its free B
    vertices in the order of its own row of rng.permuted over an (n, n)
    batch.  By Berge's theorem an unmatched A vertex has an augmenting path
    while a perfect matching exists, so every A vertex gets matched.
    """
    n = len(free)
    order = rng.permuted(np.broadcast_to(np.arange(n), (n, n)), axis=1)
    options = [row[free[a, row]].tolist() for a, row in enumerate(order)]
    match_a, match_b = [-1] * n, [-1] * n
    for root in rng.permutation(n).tolist():
        reached_from = {}               # B vertex -> the A vertex that reached it
        frontier = [root]
        while match_a[root] < 0:
            if not frontier:
                raise GraphConstructionError("mask holds no perfect matching")
            nxt = []
            for a in frontier:
                for b in options[a]:
                    if b in reached_from:
                        continue
                    reached_from[b] = a
                    if match_b[b] < 0:
                        # flip the path back to the root
                        while b >= 0:
                            a = reached_from[b]
                            match_b[b], match_a[a], b = a, b, match_a[a]
                        break
                    nxt.append(match_b[b])
                if match_a[root] >= 0:
                    break
            frontier = nxt
    return np.array(match_a)
