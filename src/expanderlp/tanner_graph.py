"""Delta-regular bipartite graphs whose edges carry code symbols.

Both sides have n vertices.  Edges are held in a fixed global order (the
order defines symbol positions in words), lexicographic by (a, b) for the
built-in constructors, file order when loaded from text.  Every graph is
validated to be simple, regular and connected.

The expansion quantity gamma is the second largest adjacency eigenvalue of
the (2n)-vertex graph, by signed value, divided by Delta.  Small graphs use
a dense symmetric eigensolve; large ones use power iteration on the shifted
adjacency operator with the known top eigenvector deflated away.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import GraphConstructionError, NumericError, StateError

_DENSE_LIMIT = 600          # use a dense eigensolve up to this many total vertices
_DENSE_TOL = 1e-9
_POWER_TOL = 1e-6


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
    own namespace; where a single id space is needed (peeling, witnesses) the
    B side is offset by n.
    """

    def __init__(self, n: int, delta: int, edges: Sequence[tuple[int, int]]):
        if n < 1:
            raise ValueError("n must be positive")
        if not 1 <= delta <= n:
            raise ValueError(f"need 1 <= delta <= n, got delta={delta}, n={n}")
        edge_list = [(int(a), int(b)) for a, b in edges]
        if len(edge_list) != delta * n:
            raise ValueError(f"expected {delta * n} edges, got {len(edge_list)}")
        if len(set(edge_list)) != len(edge_list):
            raise ValueError("parallel edges are not allowed")
        self.n = n
        self.delta = delta
        self.a_of = np.array([e[0] for e in edge_list], dtype=np.int64)
        self.b_of = np.array([e[1] for e in edge_list], dtype=np.int64)
        if self.a_of.min() < 0 or self.a_of.max() >= n or self.b_of.min() < 0 or self.b_of.max() >= n:
            raise ValueError("edge endpoints out of range")
        counts_a = np.bincount(self.a_of, minlength=n)
        counts_b = np.bincount(self.b_of, minlength=n)
        if (counts_a != delta).any() or (counts_b != delta).any():
            raise ValueError("graph is not delta-regular on both sides")
        # incidence: edge ids at each vertex, ascending
        self.a_edges = np.zeros((n, delta), dtype=np.int64)
        self.b_edges = np.zeros((n, delta), dtype=np.int64)
        fill_a = np.zeros(n, dtype=np.int64)
        fill_b = np.zeros(n, dtype=np.int64)
        for eid in range(len(edge_list)):
            a, b = edge_list[eid]
            self.a_edges[a, fill_a[a]] = eid
            fill_a[a] += 1
            self.b_edges[b, fill_b[b]] = eid
            fill_b[b] += 1
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
        n = self.n
        seen_a = np.zeros(n, dtype=bool)
        seen_b = np.zeros(n, dtype=bool)
        stack = [("a", 0)]
        seen_a[0] = True
        while stack:
            side, v = stack.pop()
            if side == "a":
                for eid in self.a_edges[v]:
                    u = int(self.b_of[eid])
                    if not seen_b[u]:
                        seen_b[u] = True
                        stack.append(("b", u))
            else:
                for eid in self.b_edges[v]:
                    u = int(self.a_of[eid])
                    if not seen_a[u]:
                        seen_a[u] = True
                        stack.append(("a", u))
        return bool(seen_a.all() and seen_b.all())

    def adjacency_matrix(self) -> np.ndarray:
        """Dense (2n, 2n) 0/1 adjacency; A side first, B side offset by n."""
        size = 2 * self.n
        adj = np.zeros((size, size))
        adj[self.a_of, self.b_of + self.n] = 1.0
        adj[self.b_of + self.n, self.a_of] = 1.0
        return adj

    # -- spectra ----------------------------------------------------------------

    def spectral_gamma(self, tol: float | None = None, method: str = "auto",
                       max_iters: int = 100_000) -> SpectralInfo:
        """Compute lambda1, lambda2 and gamma = lambda2 / Delta.

        Every call computes them afresh; the latest result is also kept for
        spectral_info().
        """
        if method not in ("auto", "dense", "power"):
            raise ValueError(f"unknown method {method!r}")
        if method == "auto":
            method = "dense" if 2 * self.n <= _DENSE_LIMIT else "power"
        if method == "dense":
            evs = np.linalg.eigvalsh(self.adjacency_matrix())
            lambda1, lambda2 = float(evs[-1]), float(evs[-2])
            if abs(lambda1 - self.delta) > max(tol or _DENSE_TOL, 1e-7) * max(1, self.delta):
                raise NumericError(
                    f"top eigenvalue {lambda1} is not Delta={self.delta}")
        else:
            lambda1 = float(self.delta)
            lambda2 = self._power_lambda2(tol or _POWER_TOL, max_iters)
        info = SpectralInfo(lambda1=lambda1, lambda2=lambda2, gamma=lambda2 / self.delta)
        self._spectral = info
        return info

    def _power_lambda2(self, tol: float, max_iters: int) -> float:
        """Power iteration for the second eigenvalue, by signed value.

        Works on C = A + Delta*I with the eigenvector of lambda1 = Delta
        (the all-ones vector) deflated.  The -Delta eigenvector shifts to 0
        on its own, so the dominant eigenvalue of the deflated C is
        Delta + lambda2 >= 0 and the iteration converges to it.
        """
        size = 2 * self.n
        delta = float(self.delta)
        u1 = np.full(size, 1.0 / math.sqrt(size))
        bi = self.b_of + self.n

        def op(v: np.ndarray) -> np.ndarray:
            out = delta * v
            np.add.at(out, self.a_of, v[bi])
            np.add.at(out, bi, v[self.a_of])
            out -= (2.0 * delta) * (u1 @ v) * u1
            return out

        rng = np.random.default_rng(0x5EED)
        v = rng.standard_normal(size)
        v -= (u1 @ v) * u1
        v /= np.linalg.norm(v)
        prev = math.inf
        for _ in range(max_iters):
            w = op(v)
            lam = float(v @ w)
            nrm = np.linalg.norm(w)
            if nrm < 1e-30:
                # deflated operator annihilated v: remaining spectrum is 0
                return -delta
            v = w / nrm
            v -= (u1 @ v) * u1
            v /= np.linalg.norm(v)
            if abs(lam - prev) <= tol * max(1.0, delta):
                resid = np.linalg.norm(op(v) - lam * v)
                if resid <= 10 * tol * max(1.0, delta):
                    return lam - delta
            prev = lam
        raise NumericError(f"power iteration did not converge in {max_iters} steps")

    @property
    def spectral_info(self) -> SpectralInfo:
        if self._spectral is None:
            raise StateError("spectral info not computed; call spectral_gamma() first")
        return self._spectral

    # -- induced subgraph counting ------------------------------------------------

    def count_induced_edges(self, a_subset, b_subset) -> int:
        in_a = np.zeros(self.n, dtype=bool)
        in_b = np.zeros(self.n, dtype=bool)
        in_a[list(a_subset)] = True
        in_b[list(b_subset)] = True
        return int(np.count_nonzero(in_a[self.a_of] & in_b[self.b_of]))

    def induced_edge_count_bound(self, alpha: float, beta: float) -> EdgeCountBounds:
        """Expander-mixing bounds on the degree sum of an induced subgraph.

        For vertex subsets of sizes alpha*n and beta*n, the degree sum
        2|E(U_A, U_B)| is at most the tight value
        2(alpha*beta + gamma*sqrt(alpha(1-alpha)beta(1-beta)))*Delta*n,
        which itself is at most the looser
        2((1-gamma)*alpha*beta + gamma*sqrt(alpha*beta))*Delta*n.
        Requires spectral info to have been computed.
        """
        if not (0 <= alpha <= 1 and 0 <= beta <= 1):
            raise ValueError("alpha and beta must lie in [0, 1]")
        gamma = self.spectral_info.gamma
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


def random_regular_bipartite(n: int, delta: int, seed: int,
                             max_matching_attempts: int = 100_000,
                             max_graph_attempts: int = 200) -> TannerGraph:
    """A uniform-ish random simple Delta-regular bipartite graph.

    Built as a union of Delta random perfect matchings; each matching is
    redrawn until it is edge-disjoint from the earlier ones, and the whole
    graph is resampled until connected.  Deterministic for a fixed seed.
    """
    if not 1 <= delta <= n:
        raise GraphConstructionError(f"need 1 <= delta <= n, got delta={delta}, n={n}")
    rng = np.random.default_rng(seed)
    for _ in range(max_graph_attempts):
        used: set[tuple[int, int]] = set()
        perms: list[np.ndarray] = []
        failed = False
        for _ in range(delta):
            for _ in range(max_matching_attempts):
                perm = rng.permutation(n)
                candidate = {(a, int(perm[a])) for a in range(n)}
                if used.isdisjoint(candidate):
                    used |= candidate
                    perms.append(perm)
                    break
            else:
                failed = True
                break
        if failed:
            raise GraphConstructionError(
                f"could not find {delta} disjoint matchings on n={n} "
                f"within {max_matching_attempts} attempts")
        edges = sorted(used)
        try:
            return TannerGraph(n, delta, edges)
        except ValueError:
            continue   # disconnected sample; try again
    raise GraphConstructionError(
        f"no connected sample in {max_graph_attempts} attempts (n={n}, delta={delta})")
