"""The global code cut out by local codes on the edges of a bipartite graph.

A word assigns one GF(q) symbol to every edge.  It is a codeword when its
restriction to the edge neighborhood of every A vertex lies in the A-side
local code and likewise on the B side.  Words are validated by
gf.check_word, imported here too, for local and global words alike.  This
module also carries the analytic machinery: the spectral distance bound,
the correctable-fraction formulas (both the error-core route and the
orientation route), the theta quantity used by the orientation route, and
the two published rate/fraction tables' generating formulas.  Each bound
formula is exact, returning a Fraction, when all its arguments are
Fractions, and a float otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from . import gflinalg
from .errors import DomainError, EnumerationCapError, NoValidThetaError
from .gf import GF, check_word
from .linear_code import LocalCode
from .tanner_graph import TannerGraph

DEFAULT_GLOBAL_ENUMERATION_CAP = 2 ** 16


# -- words ---------------------------------------------------------------------

def parse_word(text: str, q: int, expected_length: int | None = None) -> np.ndarray:
    """One line of space-separated element indices."""
    return check_word([int(x) for x in text.split()], q, expected_length)


def format_word(word) -> str:
    return " ".join(str(int(x)) for x in np.asarray(word)) + "\n"


def hamming_distance(x, y) -> int:
    a = np.asarray(x)
    b = np.asarray(y)
    if a.shape != b.shape:
        raise ValueError(f"length mismatch: {a.shape} vs {b.shape}")
    return int(np.count_nonzero(a != b))


# -- the global code -------------------------------------------------------------

class ExpanderCode:
    """Local codes attached to both sides of a Tanner graph.

    The symbol order of global words is the graph's global edge order; the
    restriction to a vertex uses that vertex's ascending incident-edge list,
    matching the local code's coordinate order.
    """

    def __init__(self, graph: TannerGraph, code_a: LocalCode, code_b: LocalCode):
        if code_a.length != graph.delta or code_b.length != graph.delta:
            raise ValueError(
                f"local code lengths ({code_a.length}, {code_b.length}) "
                f"must equal the graph degree {graph.delta}")
        if code_a.field != code_b.field:
            raise ValueError("both local codes must live over the same field")
        self.graph = graph
        self.code_a = code_a
        self.code_b = code_b
        self.field: GF = code_a.field
        self._checks: tuple[np.ndarray, np.ndarray] | None = None
        self._parity: np.ndarray | None = None
        self._basis: np.ndarray | None = None
        self._codewords: np.ndarray | None = None

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def restriction(self, word, side: str, v: int) -> np.ndarray:
        """The subword on the edges at vertex v (side 'a' or 'b') of a checked word."""
        if side not in ("a", "b"):
            raise ValueError(f"side must be 'a' or 'b', got {side!r}")
        w = check_word(word, self.field.q, self.num_edges)
        inc = self.graph.a_edges if side == "a" else self.graph.b_edges
        return w[inc[check_word(v, self.graph.n, ())]]

    def is_codeword(self, word) -> bool:
        w = check_word(word, self.field.q, self.num_edges)
        return bool(self.codeword_mask(w[None])[0])

    def codeword_mask(self, words: np.ndarray) -> np.ndarray:
        """Whether each row of a (k, E) stack of checked words is a codeword."""
        if self._checks is None:
            # both sides' check matrices, the shorter padded with zero
            # checks, and each side's (Delta, n) incident edges
            local = (self.code_a.parity_check, self.code_b.parity_check)
            checks = np.zeros((2, max(map(len, local)), self.graph.delta), dtype=np.int64)
            for side, h in zip(checks, local):
                side[:len(h)] = h
            self._checks = checks, np.stack((self.graph.a_edges.T, self.graph.b_edges.T))
        checks, incident = self._checks
        # one product for both sides: column v*k + i of side s's product is
        # the syndrome of word i's subword at vertex v of that side
        n, k = self.graph.n, len(words)
        subwords = words.T[incident].reshape(2, self.graph.delta, n * k)
        syndromes = gflinalg.mat_mul(checks, subwords, self.field)
        return ~syndromes.any(axis=(0, 1)).reshape(n, k).any(axis=0)

    def parity_check_matrix(self) -> np.ndarray:
        """Global parity-check matrix, read-only: every local check row,
        scattered to edge columns, the A checks first."""
        if self._parity is None:
            n = self.graph.n
            checks = ((self.code_a.parity_check, self.graph.a_edges),
                      (self.code_b.parity_check, self.graph.b_edges))
            H = np.zeros((n * sum(len(h) for h, _ in checks), self.num_edges), dtype=np.int64)
            first_row = 0
            for h, inc in checks:
                # row first_row + v*len(h) + i is check i of vertex v
                rows = first_row + np.arange(n * len(h)).reshape(n, len(h), 1)
                H[rows, inc[:, None, :]] = h
                first_row += n * len(h)
            H.flags.writeable = False
            self._parity = H
        return self._parity

    def codeword_basis(self) -> np.ndarray:
        """A basis of the global code, one codeword per row, read-only: the
        basis ``gflinalg.null_space(self.parity_check_matrix())`` returns,
        built from the local codes without the global matrix.

        The A checks of vertex v touch only its edges ``a_edges[v]``, which
        ascend, so the A half of the check matrix is block-diagonal and its
        RREF is the A code's, placed on each vertex's edges.  A word meets
        the A checks exactly when each vertex's subword is its symbols on
        the local free positions (the A-free edges) times the A code's
        kernel basis; so the B checks become one matrix on the A-free edges,
        in edge order, and only that matrix is eliminated.

        The free columns are the global matrix's.  Column c is free exactly
        when some word meeting every check is 1 at c and 0 past it.  An A
        pivot is a combination of later A-free edges at its vertex, so a
        word of the A checks that is 0 past c is 0 at c: every A pivot is a
        global pivot.  An A-free edge c is free exactly when the B matrix
        has a kernel vector that is 1 at c and 0 past it, since the A pivots
        past c then read 0 too.  The basis that is the identity on the free
        columns is unique, so it is the null-space basis row for row.
        """
        if self._basis is None:
            self._basis = self._basis_from_local_codes()
            self._basis.flags.writeable = False
        return self._basis

    def _basis_from_local_codes(self) -> np.ndarray:
        field, graph = self.field, self.graph
        n, delta = graph.n, graph.delta
        a_edges, b_edges = graph.a_edges, graph.b_edges
        # (k_a, delta): a word of the A checks is z_v @ local at vertex v
        local, free = gflinalg.kernel_of_rref(
            *gflinalg.rref(self.code_a.parity_check, field), field)
        k_a = len(free)
        # each A-free edge's column in the B matrix: its rank among them
        free_edges = a_edges[:, free]
        is_free = np.zeros(self.num_edges, dtype=bool)
        is_free[free_edges] = True
        column = (is_free.cumsum() - 1)[free_edges]
        slot = np.empty(self.num_edges, dtype=np.int64)
        slot[a_edges] = np.arange(delta)
        # B check j of vertex u reads h[j, t] times local[:, s] on the A-free
        # edges of the A end of u's t-th edge (at its slot s); a simple graph
        # has one edge per (u, A end), so every entry is one product
        h = self.code_b.parity_check
        rows = (np.arange(n)[:, None] * len(h) + np.arange(len(h)))[:, None, :, None]
        B = np.zeros((n * len(h), n * k_a), dtype=np.int64)
        B[rows, column[graph.a_of[b_edges]][:, :, None, :]] = field.mul_table[
            h.T[:, :, None], local.T[slot[b_edges]][:, :, None, :]]
        z, _ = gflinalg.kernel_of_rref(*gflinalg.rref(B, field), field)
        basis = np.empty((len(z), self.num_edges), dtype=np.int64)
        words = gflinalg.mat_mul(z[:, column].reshape(-1, k_a), local, field)
        basis[:, a_edges] = words.reshape(len(z), n, delta)
        return basis

    @property
    def dimension(self) -> int:
        return self.codeword_basis().shape[0]

    def random_codeword(self, rng: np.random.Generator) -> np.ndarray:
        basis = self.codeword_basis()
        coeffs = rng.integers(0, self.field.q, size=basis.shape[0])
        return gflinalg.mat_mul(coeffs[None], basis, self.field)[0]

    def enumerate_codewords(self, cap: int = DEFAULT_GLOBAL_ENUMERATION_CAP) -> np.ndarray:
        """Every codeword, one per row: spanned once per code, kept read-only."""
        total = self.field.q ** self.dimension
        if total > cap:
            raise EnumerationCapError(f"{total} global codewords exceed cap {cap}")
        if self._codewords is None:
            self._codewords = gflinalg.span(self.codeword_basis(), self.field)
            self._codewords.flags.writeable = False
        return self._codewords

    def brute_force_min_distance(self, cap: int = DEFAULT_GLOBAL_ENUMERATION_CAP) -> int:
        return gflinalg.min_weight(self.enumerate_codewords(cap))

    def rate_lower_bound(self) -> Fraction:
        """r_A + r_B - 1, a floor on the global rate dimension/num_edges."""
        return self.code_a.rate + self.code_b.rate - 1

    def __repr__(self) -> str:
        return (f"ExpanderCode(n={self.graph.n}, delta={self.graph.delta}, "
                f"q={self.field.q})")


# -- exact square roots of rationals ----------------------------------------------

def sqrt_fraction(x: Fraction) -> Fraction:
    """Exact square root of a rational, or ValueError if it is irrational."""
    if x < 0:
        raise ValueError("cannot take the square root of a negative rational")
    num = math.isqrt(x.numerator)
    den = math.isqrt(x.denominator)
    if num * num != x.numerator or den * den != x.denominator:
        raise ValueError(f"{x} has no rational square root")
    return Fraction(num, den)


# -- distance and correctable-fraction bounds --------------------------------------

class DistanceBound(NamedTuple):
    value: float | Fraction
    positive: bool


def _sqrt_for(*args):
    """Exact sqrt_fraction when every argument is a Fraction, else math.sqrt."""
    return sqrt_fraction if all(isinstance(a, Fraction) for a in args) else math.sqrt


def distance_bound_eq1(delta_a, delta_b, gamma) -> DistanceBound:
    """Spectral lower bound on the relative distance of the global code:

        (delta_a*delta_b - gamma*sqrt(delta_a*delta_b)) / (1 - gamma).

    The value may be nonpositive when gamma exceeds sqrt(delta_a*delta_b);
    it is returned as computed, with a positivity flag.  With Fraction
    arguments the value is an exact Fraction (sqrt(delta_a*delta_b) must
    then be rational), otherwise a float.
    """
    _check_rel_distance(delta_a, "delta_a")
    _check_rel_distance(delta_b, "delta_b")
    if not 0 <= gamma < 1:
        raise DomainError(f"gamma must lie in [0, 1), got {gamma}")
    sqrt = _sqrt_for(delta_a, delta_b, gamma)
    prod = delta_a * delta_b
    value = (prod - gamma * sqrt(prod)) / (1 - gamma)
    return DistanceBound(value=value, positive=value > 0)


def correctable_fraction_core(delta_a, delta_b, gamma):
    """Correctable fraction of edges via the error-core argument:

        (delta_a*delta_b/16 - gamma*sqrt(delta_a*delta_b/16)) / (1 - gamma),

    valid when gamma <= sqrt(delta_a*delta_b)/4.  Exact, as a Fraction,
    when every argument is a Fraction.
    """
    _check_rel_distance(delta_a, "delta_a")
    _check_rel_distance(delta_b, "delta_b")
    sqrt = _sqrt_for(delta_a, delta_b, gamma)
    limit = sqrt(delta_a * delta_b) / 4
    if not 0 <= gamma <= limit:
        raise DomainError(
            f"gamma={gamma} outside [0, sqrt(delta_a*delta_b)/4] = [0, {limit}]")
    prod16 = delta_a * delta_b / 16
    return (prod16 - gamma * sqrt(prod16)) / (1 - gamma)


def compute_theta(delta: Fraction, degree: int) -> Fraction:
    """The largest theta with 0 < theta < delta and theta*degree/4 integral.

    theta = 4m/degree for the largest integer m >= 1 with m < delta*degree/4.
    Raises when no such m exists (local distance too small for the degree).
    """
    if degree < 1:
        raise ValueError("degree must be positive")
    if not isinstance(delta, Fraction):
        raise TypeError("delta must be a Fraction for exact comparison")
    if not 0 < delta <= 1:
        raise DomainError(f"relative distance must lie in (0, 1], got {delta}")
    cutoff = delta * degree / 4
    m = (cutoff.numerator - 1) // cutoff.denominator   # largest integer < cutoff
    if m < 1:
        raise NoValidThetaError(
            f"no positive multiple of 4/{degree} lies below delta={delta}")
    return Fraction(4 * m, degree)


def correctable_fraction_orientation(theta_a, theta_b, gamma):
    """Correctable fraction of edges via the orientation argument:

        (theta_a*theta_b - 2*gamma*sqrt(theta_a*theta_b)) / (4*(1 - gamma)),

    valid when gamma <= sqrt(theta_a*theta_b)/2.  Exact, as a Fraction,
    when every argument is a Fraction.
    """
    _check_rel_distance(theta_a, "theta_a")
    _check_rel_distance(theta_b, "theta_b")
    sqrt = _sqrt_for(theta_a, theta_b, gamma)
    limit = sqrt(theta_a * theta_b) / 2
    if not 0 <= gamma <= limit:
        raise DomainError(
            f"gamma={gamma} outside [0, sqrt(theta_a*theta_b)/2] = [0, {limit}]")
    prod = theta_a * theta_b
    return (prod - 2 * gamma * sqrt(prod)) / (4 * (1 - gamma))


def _check_rel_distance(x, name: str) -> None:
    if not 0 < x <= 1:
        raise DomainError(f"{name} must lie in (0, 1], got {x}")


# -- published-table formulas ---------------------------------------------------------

def binary_entropy(x: float) -> float:
    if not 0 <= x <= 1:
        raise ValueError(f"entropy argument must lie in [0, 1], got {x}")
    if x in (0.0, 1.0):
        return 0.0
    return -x * math.log2(x) - (1 - x) * math.log2(1 - x)


def binary_entropy_inverse(y: float, tol: float = 1e-12) -> float:
    """The x in [0, 1/2] with H2(x) = y, by bisection."""
    if not 0 <= y <= 1:
        raise ValueError(f"entropy value must lie in [0, 1], got {y}")
    lo, hi = 0.0, 0.5
    while hi - lo > tol:
        mid = (lo + hi) / 2
        if binary_entropy(mid) < y:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def table_fraction(rate: float, regime: str) -> float:
    """Correctable fraction delta^2/4 at overall rate R for the two regimes.

    'binary': local rate r = (1+R)/2 and local distance at the entropy bound,
    delta = H2^{-1}(1 - r).  'grs': MDS locals, delta = (1-R)/2, giving the
    closed form (1-R)^2/16.
    """
    if not 0 < rate < 1:
        raise ValueError(f"overall rate must lie in (0, 1), got {rate}")
    if regime == "binary":
        local_rate = (1 + rate) / 2
        delta = binary_entropy_inverse(1 - local_rate)
    elif regime == "grs":
        delta = (1 - rate) / 2
    else:
        raise ValueError(f"unknown regime {regime!r}")
    return delta * delta / 4


# -- report bundle --------------------------------------------------------------------

@dataclass
class BoundReport:
    """Every analytic bound for one (graph, code_a, code_b) triple.

    Fields that require a hypothesis the instance fails are None, with the
    reason recorded in notes under the field name.
    """

    gamma: float
    delta_a: Fraction
    delta_b: Fraction
    rate_lower_bound: Fraction
    distance_lower_bound: float | None
    distance_bound_positive: bool | None
    core_fraction: float | None
    orientation_fraction: float | None
    theta_a: Fraction | None
    theta_b: Fraction | None
    notes: dict[str, str]
