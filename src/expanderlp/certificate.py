"""Dual witnesses that certify LP decoding success, and the peeling process.

A witness assigns a rational tau value to every (endpoint, edge, symbol)
triple.  Feasibility of the witness for the strict dual polytope implies the
decoding LP has the transmitted word's embedding as its unique optimum, so a
checked witness is a proof that decode() must succeed on that instance.

The constraints checked, for a codeword c and received word y with edge
costs cost[e][alpha] (-1 at the received symbol, +1 elsewhere):

  (strict)  tau_a[e][alpha] + tau_b[e][alpha] <= cost[e][alpha] - eps
            for every symbol alpha != c_e;
  (weak)    tau_a[e][c_e] + tau_b[e][c_e] <= cost[e][c_e];
  (vertex)  sum over the edges at v of tau_v[e][b_e]
            >= -Delta/2 + dist(y|_v, c|_v)
            for every vertex v and every local codeword b at v.

A vertex's bound is fixed by c and y, so a witness is its tau values and
eps alone.

Witnesses are built two ways.  The peeling route iteratively discards
vertices with few remaining error edges, on boolean masks: one row over the
edges and one over the round's side per round.  If the error set peels
away completely, each error edge remembers the round it died and that
round dictates its tau values.  Peeling that stagnates instead yields an
error core, an error subset whose every involved vertex keeps a constant
fraction of error edges.  The orientation route directs the error edges so
that every vertex has small in-degree, and in-edges take the role of the
peeled edges.  Either way the witness comes down to one array over the
edges, the side that released each error edge (0 for A, 1 for B, -1 off the
error edges), and one writer turns that into tau.  The two sides share one
code path: a side index selects the local code, the incident-edge array
and the edges' endpoints.
Everything here is exact rational arithmetic.  Witnesses hold Fraction
values, and the check compares them exactly as integers: every value is
scaled by one common denominator, so each constraint becomes an integer
comparison done on whole numpy arrays.  The only floats are in the vertex
totals (_vertex_totals), which sum integers in float64 when every partial
sum is an integer below 2**53, where float64 sums are exact.  The
writer knows each value as one of a few integers per edge kind: it builds
the scaled arrays, and find_witness checks those arrays directly.  The
witness it returns keeps only each row's kind and codeword symbol and the
few shared value objects, and builds its Fraction lists the first time
they are read.  check_witness takes any witness, so it reads the integers
back from the lists, each distinct value object once.  Both feed one check
core, which reads nothing but those integers, c and y.  What depends on
the code alone (the gather and one-hot tables behind the vertex totals,
the peel threshold, the orientation caps) is one plan per code, built by
the first search and kept while the code lives.

One eps is enough, so the search uses one: EPSILON_START.  A built
witness's values are the half-integers -1/2, 1/2, -5/2 and 3/2, some less
eps, and its edge constraints hold for every eps > 0.  A vertex constraint
compares a sum H - k*eps, with H a multiple of 1/2 and 0 <= k <= Delta,
with a bound that is a multiple of 1/2.  For 0 < eps <= 1/(2*Delta), k*eps
is at most 1/2, so the constraint holds exactly when H exceeds the bound,
or equals it with k = 0: the verdict is the same at every such eps (the
dual-certificate argument of Feldman, Wainwright and Karger, IEEE T-IT
2005).  EPSILON_START = 10**-6 lies in that range on every graph that can
be built: a simple Delta-regular bipartite graph has n >= Delta, so E =
n*Delta >= Delta**2, and Delta above 1/(2*EPSILON_START) = 500,000 would
take over 2.5e11 edges, whose (2, E) int64 endpoint array alone is over
4 TB.  check_witness still takes a witness at any eps.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import InternalInvariantError, NoValidThetaError, WitnessUnavailableError
from .expander_code import ExpanderCode, check_word, compute_theta
from .orientation import OrientationFailure, OrientedEdgeSet, orient

EPSILON_START = Fraction(1, 10 ** 6)

# A written witness's values times _DEN, per edge kind: kind 0 a correct
# edge, 1 the endpoint that released an error edge, 2 its other endpoint.
# _MATCH holds the value at the codeword symbol (-1/2, 1/2, 1/2), _OFF at
# every other symbol (1/2 - eps, -5/2 - eps, 3/2).  None exceeds 2,500,001
# in absolute value, so the check's sums are int64 for Delta below 1.8e12,
# and float64 sums the vertex totals exactly for Delta below 3.6e9.
_DEN = math.lcm(2, EPSILON_START.denominator)
_EPS_SCALED = int(EPSILON_START * _DEN)
_MATCH = tuple(h * _DEN // 2 for h in (-1, 1, 1))
_OFF = tuple(h * _DEN // 2 - _EPS_SCALED * (kind < 2) for kind, h in enumerate((1, -5, 3)))


@dataclass
class PeelingTrace:
    """The full history of one peeling run, as read-only boolean masks.

    edge_sets is a (rounds, E) array whose row i marks E_{i+1}, the error
    edges surviving into round i+1 (row 0 is the initial error set); the
    last row is the round that finished the run, the first to come up empty
    or the last computed before the sets stopped changing.  vertex_sets is a
    (rounds + 1, n) array whose row i marks, by local id, the vertices kept
    on side i % 2 (A for even i, B for odd).
    """

    edge_sets: np.ndarray
    vertex_sets: np.ndarray
    terminated_empty: bool


@dataclass
class ErrorCore:
    """An error subset where every involved vertex keeps >= zeta*Delta edges."""

    edges: frozenset[int]
    vertices_a: frozenset[int]
    vertices_b: frozenset[int]
    zeta_a: Fraction
    zeta_b: Fraction


@dataclass
class DualWitness:
    """tau values per (endpoint, edge, symbol), plus the strictness margin eps.

    tau_a[e][alpha] belongs to the A endpoint of edge e, tau_b to the B
    endpoint.  Vertex v's bound, -Delta/2 + dist(y|_v, c|_v), comes from c
    and y, so the witness holds no value for it.

    A witness from find_witness or a builder builds both lists on the first
    read of either.  ==, repr, asdict, copy and pickle read the fields.
    """

    tau_a: list[list[Fraction]]
    tau_b: list[list[Fraction]]
    epsilon: Fraction

    def __getattr__(self, name):
        # reached only when normal lookup fails: a written witness's first
        # read of tau_a or tau_b; a field assigned before it is kept
        rows = self.__dict__.get("_rows")
        if rows is None or name not in ("tau_a", "tau_b"):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        del self.__dict__["_rows"]
        for field_name, lists in zip(("tau_a", "tau_b"), _render(*rows)):
            self.__dict__.setdefault(field_name, lists)
        return self.__dict__[name]

    def __getstate__(self):
        return {"tau_a": self.tau_a, "tau_b": self.tau_b, "epsilon": self.epsilon}


@dataclass
class WitnessCheck:
    ok: bool
    violation: str | None = None


@dataclass
class CertifyResult:
    """Outcome of a witness search: found or not, and why not."""

    witness_found: bool
    mode: str
    epsilon: Fraction | None = None
    witness: DualWitness | None = None
    core: ErrorCore | None = None
    reason: str | None = None


# -- the two sides ----------------------------------------------------------------
#
# Side 0 is A and side 1 is B.  Vertex masks are by local id; an error
# core's vertex sets hold global ids, as in TannerGraph.ends: A vertex v is
# v and B vertex v is n + v.

def _sides(code: ExpanderCode):
    """Per side: its local code and its (n, Delta) incident-edge array."""
    return ((code.code_a, code.graph.a_edges), (code.code_b, code.graph.b_edges))


class _Plan(NamedTuple):
    """What a search needs of the code alone.  _vertex_totals' read-only
    tables: the (2, n, Delta*q) flat indices (s*E + inc_s[v, t])*q + a into
    a (2, E, q) array, and the (2, Delta*q, K) one-hot table, 1.0 at
    [s, t*q + a, k] where side s's local codeword k has symbol a at
    position t.  K is the larger side's count; the other side's spare
    columns k repeat its column k mod K_s.  Per side the local distance d,
    which 4 * (edges held) is compared with to peel and to limit
    in-degrees.  The caps theta*Delta/4, or why none exist."""

    gather: np.ndarray
    onehot: np.ndarray
    need: tuple[int, int]
    caps: tuple[int, int] | None
    no_theta: str | None


# one entry per live code; it goes when the code is garbage collected
_PLANS: weakref.WeakKeyDictionary[ExpanderCode, _Plan] = weakref.WeakKeyDictionary()


def _plan(code: ExpanderCode) -> _Plan:
    """The code's plan, built on first use."""
    if code not in _PLANS:
        q, delta = code.field.q, code.graph.delta
        sides = _sides(code)
        incident = np.stack([inc for _, inc in sides])[..., None]
        gather = ((np.arange(2)[:, None, None, None] * code.num_edges + incident) * q
                  + np.arange(q)).reshape(2, code.graph.n, delta * q)
        words = [local.codewords() for local, _ in sides]
        width = max(map(len, words))
        onehot = np.stack([(w[np.arange(width) % len(w)].T[:, None, :]
                            == np.arange(q)[:, None]).reshape(delta * q, width)
                           for w in words]).astype(np.float64)
        gather.flags.writeable = onehot.flags.writeable = False
        try:
            caps = tuple(int(compute_theta(local.relative_distance, delta) * delta / 4)
                         for local, _ in sides)
            no_theta = None
        except NoValidThetaError as exc:
            caps, no_theta = None, str(exc)
        need = tuple(local.min_distance()[0] for local, _ in sides)
        _PLANS[code] = _Plan(gather, onehot, need, caps, no_theta)
    return _PLANS[code]


def _checked(code: ExpanderCode, c, y) -> tuple[np.ndarray, np.ndarray]:
    """c and y as int64 arrays; ValueError unless y is a word of the code's
    length and alphabet and c is a codeword."""
    yw = check_word(y, code.field.q, code.num_edges)
    # is_codeword validates the raw c, so the cast below truncates nothing
    if not code.is_codeword(c):
        raise ValueError("c must be a codeword")
    return np.asarray(c, dtype=np.int64), yw


# -- peeling --------------------------------------------------------------------

def peel(code: ExpanderCode, c, y) -> PeelingTrace:
    """Iteratively discard vertices holding fewer than delta*Delta/4 error edges.

    Round i keeps a vertex of the round's side (A for even i, B for odd)
    only if it still touches at least delta_side*Delta/4 surviving error
    edges (exact comparison).  The run ends when the surviving set is empty,
    or stagnates at a fixed point.
    """
    return _peel(code, *_checked(code, c, y))


def _peel(code: ExpanderCode, cw: np.ndarray, yw: np.ndarray) -> PeelingTrace:
    """peel() on a checked codeword and received word."""
    graph = code.graph
    ends = (graph.a_of, graph.b_of)
    # survive if 4 * (edges still held) >= d_side, i.e. degree >= delta*Delta/4
    need = _plan(code).need
    alive = cw != yw
    esets = [alive]
    vsets = [np.bincount(side[alive], minlength=graph.n) > 0 for side in ends]
    unchanged_streak = 0
    while alive.any() and unchanged_streak < 2:
        s = len(vsets) % 2
        held = np.bincount(ends[s][alive], minlength=graph.n)
        kept = vsets[-2] & (4 * held >= need[s])
        # a surviving edge's endpoint on the last round's side is in that
        # round's vertex set, so only this round's side can drop it
        survivors = alive & kept[ends[s]]
        unchanged = np.array_equal(kept, vsets[-2]) and np.array_equal(survivors, alive)
        # two consecutive no-change rounds freeze both sides for good
        unchanged_streak = unchanged_streak + 1 if unchanged else 0
        vsets.append(kept)
        esets.append(survivors)
        alive = survivors
    edge_sets, vertex_sets = np.array(esets), np.array(vsets)
    edge_sets.flags.writeable = vertex_sets.flags.writeable = False
    return PeelingTrace(edge_sets, vertex_sets, terminated_empty=not alive.any())


def find_error_core(code: ExpanderCode, trace: PeelingTrace) -> ErrorCore | None:
    """Extract the fixed-point core of a stagnated trace, or None if it emptied.

    Every vertex the surviving edges touch must hold at least zeta*Delta of
    them, zeta = delta_side/4: the peel's own rule, 4 * held >= d_side.  A
    stagnated peel that fails it indicates a bug, not bad input.
    """
    if trace.terminated_empty:
        return None
    graph = code.graph
    edges = trace.edge_sets[-1]
    vertices = []
    for s, (ends, need) in enumerate(zip((graph.a_of, graph.b_of), _plan(code).need)):
        held = np.bincount(ends[edges], minlength=graph.n)
        short = np.flatnonzero((held > 0) & (4 * held < need))
        if short.size:
            v = int(short[0])
            raise InternalInvariantError(f"stagnated peel left vertex {'ab'[s]}{v} with "
                                         f"{held[v]} < {Fraction(need, 4)} core edges")
        vertices.append(frozenset((np.flatnonzero(held) + s * graph.n).tolist()))
    return ErrorCore(edges=frozenset(np.flatnonzero(edges).tolist()),
                     vertices_a=vertices[0], vertices_b=vertices[1],
                     zeta_a=code.code_a.relative_distance / 4,
                     zeta_b=code.code_b.relative_distance / 4)


# -- witness construction ---------------------------------------------------------

class _Scaled(NamedTuple):
    """A witness's values as integers over one common denominator den: tau
    as a (2, E, q) array of tau_a, tau_b times den, and eps times den."""

    tau: np.ndarray
    den: int
    eps: int


def _write_witness(code: ExpanderCode, cw: np.ndarray, yw: np.ndarray,
                   released: np.ndarray, source: str) -> tuple[DualWitness, _Scaled]:
    """The witness in which side released[e] (0 = A, 1 = B) let go of error
    edge e, for a codeword and a checked received word, and its values as
    scaled integers.  released is -1 off the error edges, or ValueError.

    On both sides a correct edge takes -1/2 at the codeword symbol and
    1/2-eps elsewhere, and an error edge +1/2 at the codeword symbol.  At
    the other symbols of an error edge, the endpoint that released it takes
    -5/2-eps and the other endpoint +3/2, with eps = EPSILON_START.  The
    witness keeps the (2, E) index kind*q + c_e of each row, and renders
    its lists from it on first read (_render), so they equal the scaled
    integers.
    """
    q = code.field.q
    if not np.array_equal(released >= 0, cw != yw):
        raise ValueError(f"{source} must cover exactly the error edges")
    # kinds[s, e]: 0 off the error edges, 1 where side s released e, else 2
    kinds = np.where(released < 0, 0, 1 + (released != np.arange(2)[:, None]))
    # table row kind*q + a: the q values of a row of that kind whose
    # codeword symbol is a, so tau is one row lookup at index
    index = kinds * q + cw
    table = np.where(np.eye(q, dtype=bool), np.array(_MATCH, dtype=np.int64)[:, None, None],
                     np.array(_OFF, dtype=np.int64)[:, None, None]).reshape(3 * q, q)
    witness = object.__new__(DualWitness)
    witness.epsilon = EPSILON_START
    witness._rows = (index, q)
    return witness, _Scaled(table.take(index, axis=0), _DEN, _EPS_SCALED)


def _render(index: np.ndarray, q: int) -> list[list[list[Fraction]]]:
    """A written witness's tau_a and tau_b.  Row e is its own list, copied
    from the template index[s, e]: kind*q + codeword symbol.  All rows share
    the six value objects."""
    templates = [[m if alpha == symbol else o for alpha in range(q)]
                 for m, o in zip((Fraction(v, _DEN) for v in _MATCH),
                                 (Fraction(v, _DEN) for v in _OFF))
                 for symbol in range(q)]
    return [list(map(list, map(templates.__getitem__, row))) for row in index.tolist()]


def build_witness_from_peeling(code: ExpanderCode, c, y, trace: PeelingTrace) -> DualWitness:
    """Witness for a peel that terminated empty.

    An error edge that died in round i* (it is in edge_sets up to i* and not
    after) was released by its endpoint on the side of round i*-1; that
    endpoint held fewer than delta*Delta/4 surviving edges, and takes the
    -5/2-eps values.  c and y must be words of the code, or ValueError.
    """
    yw = check_word(y, code.field.q, code.num_edges)
    cw = check_word(c, code.field.q, code.num_edges)
    return _write_witness(code, cw, yw, _released_by_peeling(trace), "peeling trace")[0]


def _released_by_peeling(trace: PeelingTrace) -> np.ndarray:
    """Each error edge's releasing side (0 = A, 1 = B), -1 elsewhere."""
    if not trace.terminated_empty:
        raise WitnessUnavailableError("peeling stagnated; no witness from this trace")
    # edge_sets[idx] is E_{idx+1}, so an edge whose last set is E_{i*} was
    # released by the side of round i*-1 = idx
    return np.where(trace.edge_sets[0], (trace.edge_sets.sum(axis=0) - 1) % 2, -1)


def build_witness_from_orientation(code: ExpanderCode, c, y,
                                   orientation: OrientedEdgeSet) -> DualWitness:
    """Witness from a low-in-degree orientation of the error edges.

    The head of each directed error edge takes the -5/2-eps values, so the
    vertex constraints need every in-degree to stay strictly below
    delta*Delta/4 on its side; that is checked here as a precondition.  c
    and y must be words of the code, or ValueError.
    """
    yw = check_word(y, code.field.q, code.num_edges)
    cw = check_word(c, code.field.q, code.num_edges)
    return _write_witness(code, cw, yw, _released_by_orientation(code, orientation),
                          "orientation")[0]


def _released_by_orientation(code: ExpanderCode, orientation: OrientedEdgeSet) -> np.ndarray:
    """Each oriented edge's head side (0 = A, 1 = B), -1 elsewhere;
    ValueError unless every in-degree is below delta*Delta/4 on its side."""
    graph = code.graph
    edges = list(orientation.edges)
    released = np.full(graph.num_edges, -1)
    released[edges] = list(map("ab".index, map(orientation.head_side.get, edges)))
    indegree = np.bincount(graph.ends[released[edges], edges],
                           minlength=2 * graph.n).reshape(2, graph.n)
    limits = np.array(_plan(code).need)
    over = np.argwhere(4 * indegree >= limits[:, None])   # need deg < delta*Delta/4 strictly
    if over.size:
        s, v = over[0].tolist()
        raise ValueError(f"in-degree {indegree[s, v]} at {'ab'[s]}{v} is not below "
                         f"delta*Delta/4 = {limits[s]}/4")
    return released


# -- feasibility check ---------------------------------------------------------------

_INT64_SAFE = 2 ** 62
_FLOAT_EXACT = 2 ** 53


def _check_shape(witness: DualWitness, num_edges: int, q: int) -> None:
    """E rows of q values per side, or ValueError."""
    for name in ("tau_a", "tau_b"):
        rows = getattr(witness, name)
        if len(rows) != num_edges or set(map(len, rows)) != {q}:
            raise ValueError(f"witness {name} must be {num_edges} rows of {q} values")


def _distinct_ratios(values: list) -> tuple[list[tuple[int, int]], np.ndarray]:
    """as_integer_ratio of each distinct object in values, and each entry's
    index into that list.

    Witnesses repeat a few value objects many times, so entries are keyed by
    object identity and each object is read once.  The ids are unique: the
    list holds every object while they are taken.
    """
    ids = np.fromiter(map(id, values), dtype=np.uintp, count=len(values))
    _, first, inverse = np.unique(ids, return_index=True, return_inverse=True)
    return [values[i].as_integer_ratio() for i in first.tolist()], inverse


def _exact_dtype(scaled: list[int], den: int, eps_scaled: int, delta: int):
    """int64 if the check's integers fit it, else object (Python ints).

    Every value the check forms from tau values scaled to these integers is
    at most (Delta+2)*max(|tau*den|, den + eps*den) in absolute value: below
    2**62 the arrays are int64, above it they hold Python ints.  Both are
    exact.  The vertex totals of int64 values are summed in float64 when
    Delta * max|tau*den| < 2**53 (see _vertex_totals): each total is then a
    sum of integers whose every partial sum is an integer below 2**53, which
    float64 holds exactly, and the totals come back as int64.
    """
    largest = max(max(scaled), -min(scaled), den + eps_scaled)
    return np.int64 if largest * (delta + 2) < _INT64_SAFE else object


def _scaled_taus(witness: DualWitness, shape: tuple[int, int], delta: int) -> _Scaled:
    """The witness's tau values times one common denominator, as integers.

    den is the lcm of 2, eps's denominator and every tau denominator, so
    tau*den, eps*den and the vertex bounds (2*dist - Delta)*den/2 are all
    integers.  The (2, E, q) array of tau_a, tau_b scaled by den is of
    _exact_dtype.
    """
    ratios, inverse = _distinct_ratios(
        list(chain.from_iterable(chain(witness.tau_a, witness.tau_b))))
    eps_num, eps_den = witness.epsilon.as_integer_ratio()
    den = math.lcm(2, eps_den, *(d for _, d in ratios))
    scaled = [num * (den // d) for num, d in ratios]
    eps_scaled = eps_num * (den // eps_den)
    dtype = _exact_dtype(scaled, den, eps_scaled, delta)
    return _Scaled(np.array(scaled, dtype=dtype)[inverse].reshape((2,) + shape), den,
                   eps_scaled)


def check_witness(code: ExpanderCode, c, y, witness: DualWitness) -> WitnessCheck:
    """Exact feasibility check of a witness; reports the first violation found.

    The witness's values are read back from its lists as integers over their
    common denominator (each distinct value object once), and every
    constraint is an integer comparison.  The order is every edge by
    (e, alpha), then side a before side b, vertex by vertex.  A witness
    without E rows of q values per side is a ValueError.
    """
    cw, yw = _checked(code, c, y)
    graph = code.graph
    _check_shape(witness, graph.num_edges, code.field.q)
    if witness.epsilon <= 0:
        return WitnessCheck(ok=False, violation="epsilon must be positive")
    return _check_scaled(code, cw, yw, _scaled_taus(
        witness, (graph.num_edges, code.field.q), graph.delta))


def _check_scaled(code: ExpanderCode, cw: np.ndarray, yw: np.ndarray,
                  scaled: _Scaled) -> WitnessCheck:
    """The check of a witness's scaled integers, on a checked codeword and
    received word.  A violation quotes the offending total as the Fraction
    total/den, the value the witness's own values sum to."""
    q = code.field.q
    graph = code.graph
    delta = graph.delta
    tau, den = scaled.tau, scaled.den

    # cost*den, less eps*den except at the codeword symbol (the weak
    # constraint): cost is -1 at the received symbol and +1 elsewhere
    edges = np.arange(graph.num_edges)
    limit = np.full((graph.num_edges, q), den - scaled.eps, dtype=tau.dtype)
    limit[edges, cw] = den
    limit[edges, yw] -= 2 * den
    bad = np.flatnonzero(tau[0] + tau[1] > limit)
    if bad.size:
        e, alpha = divmod(int(bad[0]), q)
        cost = Fraction(-1 if alpha == yw[e] else 1)
        total = Fraction(int(tau[0, e, alpha] + tau[1, e, alpha]), den)
        if alpha == cw[e]:
            return WitnessCheck(
                ok=False,
                violation=f"weak edge constraint at edge {e}, symbol {alpha}: "
                          f"{total} > {cost}")
        return WitnessCheck(
            ok=False,
            violation=f"strict edge constraint at edge {e}, symbol {alpha}: "
                      f"{total} > {cost} - eps")

    # both sides at once, side a before side b, then vertex, then local
    # codeword; a spare column repeats an earlier one, so it is never first
    totals = _vertex_totals(tau, _plan(code))
    dist = np.bincount(graph.ends[:, cw != yw].ravel(),
                       minlength=2 * graph.n).reshape(2, graph.n)
    rhs = (2 * dist - delta).astype(tau.dtype) * (den // 2)
    bad = np.flatnonzero(totals < rhs[:, :, None])
    if bad.size:
        s, v, k = np.unravel_index(bad[0], totals.shape)
        codeword = _sides(code)[s][0].codewords()[k]
        return WitnessCheck(
            ok=False,
            violation=f"vertex constraint at {'ab'[s]}{v}, local codeword "
                      f"{codeword.tolist()}: {Fraction(int(totals[s, v, k]), den)} < "
                      f"{Fraction(2 * int(dist[s, v]) - delta, 2)}")
    return WitnessCheck(ok=True)


def _vertex_totals(values: np.ndarray, plan: _Plan) -> np.ndarray:
    """totals[s, v, k]: the sum over the edges e at vertex v of side s of
    values[s, e, a], a the symbol side s's local codeword k puts on e; a
    (2, n, K) array in the values' dtype, exact.

    One gather lays the Delta*q values at each vertex out in a row, and one
    batched matmul with the plan's one-hot table sums each local codeword's
    Delta of them.  The matmul runs in float64 when the values are int64
    and Delta * max|value| < 2**53: every product is then an integer times
    0 or 1 and every partial sum an integer below 2**53 in absolute value,
    so any BLAS summation order is exact, and so is the cast back.  Other
    values sum in their own dtype, int64 (the storage rule keeps those sums
    below 2**62) or Python ints.
    """
    rows = values.ravel().take(plan.gather)
    delta = plan.gather.shape[2] // values.shape[2]
    if (values.dtype == np.int64
            and delta * max(int(values.max()), -int(values.min())) < _FLOAT_EXACT):
        return (rows.astype(np.float64) @ plan.onehot).astype(np.int64)
    return rows @ plan.onehot.astype(np.int64).astype(values.dtype)


# -- the search wrapper ----------------------------------------------------------------

def find_witness(code: ExpanderCode, c, y, mode: str = "peel") -> CertifyResult:
    """Try to certify that decode() must return c on input y.

    mode 'peel' runs the peeling process and, if it empties, builds the
    witness from the trace; a stagnated peel reports the error core instead.
    mode 'orient' computes the theta caps, orients the error edges, and
    builds the witness from the orientation.  Either way one witness is
    built at EPSILON_START and checked once.  The witness's values are
    half-integers less 0 or eps, and eps enters a vertex constraint at most
    Delta times, so every eps in (0, 1/(2*Delta)] gives the same verdict,
    and EPSILON_START is in that range on every graph that can be built
    (see the module docstring).  In both modes c must be a codeword and y a
    word of the code, or ValueError; they are checked once, here, and the
    peel, the builder and the check run on the checked arrays.  The check
    reads the integers the writer scaled the witness's values to, not the
    Fraction lists it returns; check_witness gives the same verdict on
    those lists.
    """
    cw, yw = _checked(code, c, y)
    if mode == "peel":
        trace = _peel(code, cw, yw)
        if not trace.terminated_empty:
            core = find_error_core(code, trace)
            return CertifyResult(witness_found=False, mode=mode, core=core,
                                 reason="peeling stagnated on an error core")
        released, source = _released_by_peeling(trace), "peeling trace"
    elif mode == "orient":
        plan = _plan(code)
        if plan.caps is None:
            return CertifyResult(witness_found=False, mode=mode, reason=plan.no_theta)
        oriented = orient(code.graph, np.flatnonzero(cw != yw).tolist(), *plan.caps)
        if isinstance(oriented, OrientationFailure):
            return CertifyResult(witness_found=False, mode=mode,
                                 reason=f"no orientation within caps "
                                        f"({oriented.violations} residual violations)")
        released, source = _released_by_orientation(code, oriented), "orientation"
    else:
        raise ValueError(f"unknown mode {mode!r}")

    witness, scaled = _write_witness(code, cw, yw, released, source)
    result = _check_scaled(code, cw, yw, scaled)
    if not result.ok:
        return CertifyResult(witness_found=False, mode=mode,
                             reason=f"witness fails the exact check: {result.violation}")
    return CertifyResult(witness_found=True, mode=mode, epsilon=EPSILON_START,
                         witness=witness)
