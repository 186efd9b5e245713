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

Witnesses are built two ways.  The peeling route iteratively discards
vertices with few remaining error edges; if the error set peels away
completely, each error edge remembers the round it died and that round
dictates its tau values.  Peeling that stagnates instead yields an error
core, an error subset whose every involved vertex keeps a constant fraction
of error edges.  The orientation route directs the error edges so that
every vertex has small in-degree, and in-edges take the role of the peeled
edges.  Everything here is exact rational arithmetic; nothing floats.
Witnesses hold Fraction values, and check_witness compares them exactly as
integers: every value is scaled by one common denominator, so each
constraint becomes an integer comparison done on whole numpy arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InternalInvariantError, WitnessUnavailableError
from .expander_code import ExpanderCode, check_word, hamming_distance
from .orientation import OrientedEdgeSet
from .tanner_graph import TannerGraph

EPSILON_START = Fraction(1, 10 ** 6)
EPSILON_FLOOR = Fraction(1, 10 ** 12)

_CORRECT_MATCH = Fraction(-1, 2)        # value at the codeword symbol, correct edge
_ERROR_MATCH = Fraction(1, 2)           # value at the codeword symbol, error edge
_PEELED = Fraction(-5, 2)               # off-symbol value at the endpoint that let go
_SURVIVOR = Fraction(3, 2)              # off-symbol value at the other endpoint


@dataclass
class PeelingTrace:
    """The full history of one peeling run.

    vertex_sets[i] holds global vertex ids (B side offset by n); even i are
    A-side sets, odd i are B-side.  edge_sets[i] is the surviving error-edge
    set entering round i+1 (edge_sets[0] is the initial error set).
    final_index is the index of the round that finished the run: the first
    round whose edge set came up empty, or the last round computed before
    the sets stopped changing.
    """

    error_edges: frozenset[int]
    vertex_sets: list[frozenset[int]]
    edge_sets: list[frozenset[int]]
    terminated_empty: bool
    final_index: int


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
    endpoint.  sigma[v] = Delta/2 - dist(y|_v, c|_v) over global vertex ids.
    """

    tau_a: list[list[Fraction]]
    tau_b: list[list[Fraction]]
    sigma: list[Fraction]
    epsilon: Fraction

    def tau_float(self) -> tuple[np.ndarray, np.ndarray]:
        return (np.array([[float(x) for x in row] for row in self.tau_a]),
                np.array([[float(x) for x in row] for row in self.tau_b]))


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


# -- peeling --------------------------------------------------------------------

def _side_of_round(i: int) -> str:
    return "a" if i % 2 == 0 else "b"


def peel(code: ExpanderCode, c, y) -> PeelingTrace:
    """Iteratively discard vertices holding fewer than delta*Delta/4 error edges.

    Round i keeps a vertex of the round's side only if it still touches at
    least delta_side*Delta/4 surviving error edges (exact comparison).  The
    run ends when the surviving set is empty, or stagnates at a fixed point.
    """
    graph = code.graph
    n = graph.n
    cw = np.asarray(c, dtype=np.int64)
    yw = check_word(y, code.field.q, code.num_edges)
    if not code.is_codeword(cw):
        raise ValueError("c must be a codeword")
    d_a = code.code_a.min_distance()[0]
    d_b = code.code_b.min_distance()[0]

    e1 = frozenset(int(e) for e in np.nonzero(cw != yw)[0])
    v0 = frozenset(int(graph.a_of[e]) for e in e1)
    v1 = frozenset(n + int(graph.b_of[e]) for e in e1)
    vsets = [v0, v1]
    esets = [e1]
    if not e1:
        return PeelingTrace(error_edges=e1, vertex_sets=vsets, edge_sets=esets,
                            terminated_empty=True, final_index=1)

    def degree_in(vglobal: int, eset: frozenset[int]) -> int:
        if vglobal < n:
            return sum(1 for e in graph.a_edges[vglobal] if int(e) in eset)
        return sum(1 for e in graph.b_edges[vglobal - n] if int(e) in eset)

    i = 2
    unchanged_streak = 0
    while True:
        side = _side_of_round(i)
        d_side = d_a if side == "a" else d_b
        prev_vs = vsets[i - 2]
        cur_edges = esets[-1]
        # survive if 4 * (edges still held) >= d_side, i.e. degree >= delta*Delta/4
        vi = frozenset(v for v in prev_vs if 4 * degree_in(v, cur_edges) >= d_side)
        if side == "a":
            ei = frozenset(e for e in cur_edges
                           if int(graph.a_of[e]) in vi and (n + int(graph.b_of[e])) in vsets[i - 1])
        else:
            ei = frozenset(e for e in cur_edges
                           if (n + int(graph.b_of[e])) in vi and int(graph.a_of[e]) in vsets[i - 1])
        changed = (vi != prev_vs) or (ei != cur_edges)
        vsets.append(vi)
        esets.append(ei)
        if not ei:
            return PeelingTrace(error_edges=e1, vertex_sets=vsets, edge_sets=esets,
                                terminated_empty=True, final_index=i)
        unchanged_streak = 0 if changed else unchanged_streak + 1
        if unchanged_streak >= 2:
            # two consecutive no-change rounds freeze both sides for good
            return PeelingTrace(error_edges=e1, vertex_sets=vsets, edge_sets=esets,
                                terminated_empty=False, final_index=i)
        i += 1


def find_error_core(graph: TannerGraph, trace: PeelingTrace,
                    zeta_a: Fraction, zeta_b: Fraction) -> ErrorCore | None:
    """Extract the fixed-point core of a stagnated trace, or None if it emptied.

    The surviving edge set together with its endpoint sets must satisfy the
    degree conditions (>= zeta*Delta edges at every involved vertex); a
    stagnated peel that fails them indicates a bug, not bad input.
    """
    if trace.terminated_empty:
        return None
    edges = trace.edge_sets[-1]
    n = graph.n
    va = frozenset(int(graph.a_of[e]) for e in edges)
    vb = frozenset(n + int(graph.b_of[e]) for e in edges)
    need_a = zeta_a * graph.delta
    need_b = zeta_b * graph.delta
    for v in va:
        deg = sum(1 for e in graph.a_edges[v] if int(e) in edges)
        if deg < need_a:
            raise InternalInvariantError(
                f"stagnated peel left vertex a{v} with {deg} < {need_a} core edges")
    for v in vb:
        deg = sum(1 for e in graph.b_edges[v - n] if int(e) in edges)
        if deg < need_b:
            raise InternalInvariantError(
                f"stagnated peel left vertex b{v - n} with {deg} < {need_b} core edges")
    return ErrorCore(edges=edges, vertices_a=va, vertices_b=vb,
                     zeta_a=zeta_a, zeta_b=zeta_b)


# -- witness construction ---------------------------------------------------------

def _base_witness(code: ExpanderCode, c, y, epsilon: Fraction) -> DualWitness:
    """Witness skeleton: correct-edge taus everywhere, sigma from distances."""
    graph = code.graph
    q = code.field.q
    cw = np.asarray(c, dtype=np.int64)
    yw = np.asarray(y, dtype=np.int64)
    off_correct = Fraction(1, 2) - epsilon
    tau_a = []
    tau_b = []
    for e in range(graph.num_edges):
        row = [off_correct] * q
        row[int(cw[e])] = _CORRECT_MATCH
        tau_a.append(list(row))
        tau_b.append(list(row))
    half_delta = Fraction(graph.delta, 2)
    sigma = []
    for v in range(graph.n):
        dist = hamming_distance(code.restriction(yw, "a", v), code.restriction(cw, "a", v))
        sigma.append(half_delta - dist)
    for v in range(graph.n):
        dist = hamming_distance(code.restriction(yw, "b", v), code.restriction(cw, "b", v))
        sigma.append(half_delta - dist)
    return DualWitness(tau_a=tau_a, tau_b=tau_b, sigma=sigma, epsilon=epsilon)


def _set_error_edge(witness: DualWitness, c_e: int, e: int, q: int,
                    peeled_side: str, epsilon: Fraction) -> None:
    """Error-edge taus: both endpoints get +1/2 at the codeword symbol; at
    other symbols the endpoint that released the edge gets -5/2-eps and the
    surviving endpoint gets +3/2."""
    peeled_row = [_PEELED - epsilon] * q
    survivor_row = [_SURVIVOR] * q
    peeled_row[c_e] = _ERROR_MATCH
    survivor_row[c_e] = _ERROR_MATCH
    if peeled_side == "a":
        witness.tau_a[e] = peeled_row
        witness.tau_b[e] = survivor_row
    else:
        witness.tau_b[e] = peeled_row
        witness.tau_a[e] = survivor_row


def build_witness_from_peeling(code: ExpanderCode, c, y, trace: PeelingTrace,
                               epsilon: Fraction = EPSILON_START) -> DualWitness:
    """Witness for a peel that terminated empty.

    An error edge that died in round i* (it is in edge_sets up to i* and not
    after) was released by its endpoint on the side of round i*-1; that
    endpoint held fewer than delta*Delta/4 surviving edges, and takes the
    -5/2-eps values.
    """
    if not trace.terminated_empty:
        raise WitnessUnavailableError("peeling stagnated; no witness from this trace")
    cw = np.asarray(c, dtype=np.int64)
    witness = _base_witness(code, cw, y, epsilon)
    q = code.field.q
    # edge_sets[idx] is E_{idx+1}; find each error edge's last surviving round
    last_round: dict[int, int] = {}
    for idx, eset in enumerate(trace.edge_sets):
        for e in eset:
            last_round[e] = idx + 1
    for e in trace.error_edges:
        i_star = last_round[e]
        # the endpoint on the side of round i_star - 1 failed to advance
        peeled_side = _side_of_round(i_star - 1)
        _set_error_edge(witness, int(cw[e]), e, q, peeled_side, epsilon)
    return witness


def build_witness_from_orientation(code: ExpanderCode, c, y,
                                   orientation: OrientedEdgeSet,
                                   epsilon: Fraction = EPSILON_START) -> DualWitness:
    """Witness from a low-in-degree orientation of the error edges.

    The head of each directed error edge takes the -5/2-eps values, so the
    vertex constraints need every in-degree to stay strictly below
    delta*Delta/4 on its side; that is checked here as a precondition.
    """
    graph = code.graph
    cw = np.asarray(c, dtype=np.int64)
    yw = np.asarray(y, dtype=np.int64)
    errors = {int(e) for e in np.nonzero(cw != yw)[0]}
    if set(orientation.edges) != errors:
        raise ValueError("orientation must cover exactly the error edges")
    d_a = code.code_a.min_distance()[0]
    d_b = code.code_b.min_distance()[0]
    indeg = orientation.indegrees()
    n = graph.n
    for v, deg in indeg.items():
        limit = d_a if v < n else d_b
        if 4 * deg >= limit:   # need deg < delta*Delta/4 strictly
            name = f"a{v}" if v < n else f"b{v - n}"
            raise ValueError(
                f"in-degree {deg} at {name} is not below delta*Delta/4 = {limit}/4")
    witness = _base_witness(code, cw, yw, epsilon)
    q = code.field.q
    for e in orientation.edges:
        head = orientation.head_side[e]
        _set_error_edge(witness, int(cw[e]), int(e), q, head, epsilon)
    return witness


# -- feasibility check ---------------------------------------------------------------

_INT64_SAFE = 2 ** 62


def _scaled_taus(witness: DualWitness, shape: tuple[int, int],
                 delta: int) -> tuple[np.ndarray, int, int]:
    """The witness's tau values times one common denominator, as integers.

    den is the lcm of 2, eps's denominator and every tau denominator, so
    tau*den, eps*den and the vertex bounds (2*dist - Delta)*den/2 are all
    integers.  Returns the (2, E, q) array of tau_a, tau_b scaled by den,
    then den and eps*den.  Every value the check forms is at most
    (Delta+2)*max(|tau*den|, den + eps*den) in absolute value: below 2**62
    the array is int64, above it holds Python ints (dtype object).  Both
    are exact.
    """
    ratios = [x.as_integer_ratio()
              for taus in (witness.tau_a, witness.tau_b) for row in taus for x in row]
    eps_num, eps_den = witness.epsilon.as_integer_ratio()
    denominators = {d for _, d in ratios}
    den = math.lcm(2, eps_den, *denominators)
    factor = {d: den // d for d in denominators}
    scaled = [num * factor[d] for num, d in ratios]
    eps_scaled = eps_num * (den // eps_den)
    largest = max(max(scaled), -min(scaled), den + eps_scaled)
    dtype = np.int64 if largest * (delta + 2) < _INT64_SAFE else object
    return np.array(scaled, dtype=dtype).reshape((2,) + shape), den, eps_scaled


def check_witness(code: ExpanderCode, c, y, witness: DualWitness) -> WitnessCheck:
    """Exact feasibility check of a witness; reports the first violation found.

    Every constraint is an integer comparison over the common denominator
    of the witness's values.  The order is every edge by (e, alpha), then
    side a before side b, vertex by vertex, the sigma check before that
    vertex's local codewords; the message quotes the witness's own values.
    """
    graph = code.graph
    q = code.field.q
    cw = np.asarray(c, dtype=np.int64)
    yw = check_word(y, q, graph.num_edges)
    if not code.is_codeword(cw):
        raise ValueError("c must be a codeword")
    eps = witness.epsilon
    if eps <= 0:
        return WitnessCheck(ok=False, violation="epsilon must be positive")
    num_edges = graph.num_edges
    delta = graph.delta
    tau, den, eps_scaled = _scaled_taus(witness, (num_edges, q), delta)

    # cost*den, less eps*den except at the codeword symbol (the weak constraint)
    symbols = np.arange(q)
    limit = np.full((num_edges, q), den, dtype=tau.dtype)
    limit[symbols == yw[:, None]] = -den
    limit[symbols != cw[:, None]] -= eps_scaled
    bad = np.flatnonzero(tau[0] + tau[1] > limit)
    if bad.size:
        e, alpha = divmod(int(bad[0]), q)
        cost = Fraction(-1 if alpha == yw[e] else 1)
        total = witness.tau_a[e][alpha] + witness.tau_b[e][alpha]
        if alpha == cw[e]:
            return WitnessCheck(
                ok=False,
                violation=f"weak edge constraint at edge {e}, symbol {alpha}: "
                          f"{total} > {cost}")
        return WitnessCheck(
            ok=False,
            violation=f"strict edge constraint at edge {e}, symbol {alpha}: "
                      f"{total} > {cost} - eps")

    half_delta = Fraction(delta, 2)
    n = graph.n
    for s, (side, local, inc, taus) in enumerate(
            (("a", code.code_a, graph.a_edges, witness.tau_a),
             ("b", code.code_b, graph.b_edges, witness.tau_b))):
        codewords = local.codewords()
        dist = np.count_nonzero(yw[inc] != cw[inc], axis=1)
        # totals[v, k]: the sum over v's edges of tau at local codeword k's symbol
        totals = np.zeros((n, len(codewords)), dtype=tau.dtype)
        for t in range(delta):
            totals += tau[s][inc[:, t][:, None], codewords[None, :, t]]
        rhs = (2 * dist - delta).astype(tau.dtype) * (den // 2)
        bad = np.flatnonzero(totals < rhs[:, None])
        first = int(bad[0]) // len(codewords) if bad.size else n
        dist = dist.tolist()
        for v in range(min(first + 1, n)):
            sigma = witness.sigma[s * n + v]
            num, d = sigma.as_integer_ratio()
            if 2 * num != (delta - 2 * dist[v]) * d:
                return WitnessCheck(
                    ok=False,
                    violation=f"sigma mismatch at {side}{v}: "
                              f"{sigma} != {half_delta - dist[v]}")
        if bad.size:
            b = codewords[int(bad[0]) % len(codewords)]
            total = sum(taus[int(e)][int(sym)] for e, sym in zip(inc[first], b))
            return WitnessCheck(
                ok=False,
                violation=f"vertex constraint at {side}{first}, local codeword "
                          f"{b.tolist()}: {total} < {-half_delta + dist[first]}")
    return WitnessCheck(ok=True)


# -- the search wrapper ----------------------------------------------------------------

def _epsilon_schedule(start: Fraction, floor: Fraction):
    eps = start
    while eps >= floor:
        yield eps
        eps /= 2


def find_witness(code: ExpanderCode, c, y, mode: str = "peel",
                 epsilon_start: Fraction = EPSILON_START,
                 epsilon_floor: Fraction = EPSILON_FLOOR) -> CertifyResult:
    """Try to certify that decode() must return c on input y.

    mode 'peel' runs the peeling process and, if it empties, builds the
    witness from the trace; a stagnated peel reports the error core instead.
    mode 'orient' computes the theta caps, orients the error edges, and
    builds the witness from the orientation.  Both retry with halved eps
    until the exact check passes or the floor is reached.  An epsilon_start
    below epsilon_floor, or a nonpositive floor, is a ValueError.
    """
    from . import orientation as orientation_mod
    from .expander_code import compute_theta
    from .errors import NoValidThetaError

    if not 0 < epsilon_floor <= epsilon_start:
        raise ValueError(f"epsilon_start {epsilon_start} must be at least "
                         f"epsilon_floor {epsilon_floor}, and both positive")
    cw = np.asarray(c, dtype=np.int64)
    yw = check_word(y, code.field.q, code.num_edges)
    if mode == "peel":
        trace = peel(code, cw, yw)
        if not trace.terminated_empty:
            core = find_error_core(code.graph, trace,
                                   code.code_a.relative_distance / 4,
                                   code.code_b.relative_distance / 4)
            return CertifyResult(witness_found=False, mode=mode, core=core,
                                 reason="peeling stagnated on an error core")
        builder = lambda eps: build_witness_from_peeling(code, cw, yw, trace, eps)
    elif mode == "orient":
        try:
            theta_a = compute_theta(code.code_a.relative_distance, code.graph.delta)
            theta_b = compute_theta(code.code_b.relative_distance, code.graph.delta)
        except NoValidThetaError as exc:
            return CertifyResult(witness_found=False, mode=mode, reason=str(exc))
        cap_a = theta_a * code.graph.delta / 4
        cap_b = theta_b * code.graph.delta / 4
        errors = [int(e) for e in np.nonzero(cw != yw)[0]]
        oriented = orientation_mod.orient(code.graph, errors, int(cap_a), int(cap_b))
        if isinstance(oriented, orientation_mod.OrientationFailure):
            return CertifyResult(witness_found=False, mode=mode,
                                 reason=f"no orientation within caps "
                                        f"({oriented.violations} residual violations)")
        builder = lambda eps: build_witness_from_orientation(code, cw, yw, oriented, eps)
    else:
        raise ValueError(f"unknown mode {mode!r}")

    last_violation = None
    for eps in _epsilon_schedule(epsilon_start, epsilon_floor):
        witness = builder(eps)
        result = check_witness(code, cw, yw, witness)
        if result.ok:
            return CertifyResult(witness_found=True, mode=mode, epsilon=eps,
                                 witness=witness)
        last_violation = result.violation
    return CertifyResult(witness_found=False, mode=mode,
                         reason=f"no feasible epsilon above the floor "
                                f"(last violation: {last_violation})")
