"""The benchmark's workloads: instances, seeded inputs, the timed call, and
the check of every output.

Each workload runs in cycles.  A cycle is a fixed list of ops whose inputs
depend only on (seed, cycle index), so a seed fixes every input and a run
measures whole cycles.  Instances come from descriptor strings and do not
depend on the seed.
"""

from __future__ import annotations

import copy
import inspect

import numpy as np

from expanderlp import certificate, harness, lp_decoder, ml_oracle
from expanderlp.expander_code import hamming_distance

OBJ_TOL = 1e-6     # relative to |E|; the LP objective is |E| - 2*dist on codewords


def check_transmitted(code, c) -> list[str]:
    return [] if code.is_codeword(c) else ["transmitted word is not a codeword"]


def check_decode(code, c, y, result) -> list[str]:
    """Checks any decode output against the transmitted codeword c.

    The LP optimum is at least the objective of c's embedding; an integral
    result must be a codeword no farther from y than c, at the objective
    its distance implies.
    """
    edges = code.num_edges
    tol = OBJ_TOL * edges
    floor = edges - 2 * hamming_distance(c, y)
    problems = []
    if result.status not in ("codeword", "fractional-failure"):
        return [f"unknown decode status {result.status!r}"]
    if not result.objective >= floor - tol:
        problems.append(f"LP objective {result.objective} below the transmitted "
                        f"word's {floor}")
    if result.status == "codeword":
        word = np.asarray(result.codeword)
        if word.shape != (edges,) or not code.is_codeword(word):
            return problems + ["decoded word is not a codeword"]
        dist = hamming_distance(word, y)
        if dist > hamming_distance(c, y):
            problems.append(f"decoded word is at distance {dist} from y, "
                            f"farther than the transmitted word")
        if abs(result.objective - (edges - 2 * dist)) > tol:
            problems.append(f"LP objective {result.objective} does not match "
                            f"the decoded word's {edges - 2 * dist}")
    return problems


def check_certify(code, c, y, result) -> list[str]:
    """Every witness found must pass an independent exact check."""
    if not result.witness_found:
        return []
    witness = result.witness
    if witness is None:
        return ["witness reported found but missing"]
    if result.epsilon != witness.epsilon:
        return ["reported epsilon differs from the witness's"]
    verdict = certificate.check_witness(code, c, y, witness)
    return [] if verdict.ok else [f"witness fails the check: {verdict.violation}"]


def tamper_decode(result):
    """Flip one decoded symbol, or shift a fractional objective."""
    bad = copy.copy(result)
    if bad.codeword is not None:
        bad.codeword = bad.codeword.copy()
        bad.codeword[0] = (bad.codeword[0] + 1) % bad.raw_f.shape[1]
    else:
        bad.objective = -float(bad.raw_f.shape[0]) * 4
    return bad


def tamper_certify(result):
    """Raise one tau value past any slack, or claim a witness that is not there."""
    bad = copy.copy(result)
    if bad.witness is None:
        bad.witness_found = True
        return bad
    bad.witness = copy.deepcopy(bad.witness)
    bad.witness.tau_a[0][0] += 3     # edge constraints have slack <= 2
    return bad


class Workload:
    name: str
    specs: tuple[tuple[str, str, str], ...]
    count_cycles: int       # cycles whose traced ops the count metrics cover
    # reference kernel parts whose speed the ops' speed follows (reference.py)
    op_speed_mix = ("python", "numpy")

    def prepare(self, codes, seed: int) -> None:
        self.codes = codes
        self.seed = seed

    def finish(self) -> None:
        pass

    def inputs(self, cycle: int) -> list:
        raise NotImplementedError

    def call(self, inp):
        raise NotImplementedError

    def words(self, inp) -> int:
        """Ops one call counts for."""
        return 1

    def check(self, inp, out) -> list[str]:
        raise NotImplementedError

    def tamper(self, inp, out):
        raise NotImplementedError

    def _pattern(self, cycle: int, weight: int):
        code = self.codes[0]
        rng = np.random.default_rng([self.seed, cycle, weight])
        c = code.random_codeword(rng)
        return c, harness.sample_error_pattern(code, c, weight, rng)


class _Recorder:
    """Stands in for a name harness imported, records each call, and forwards
    it to the library module's current attribute (traced or not)."""

    def __init__(self, module, attr, calls):
        self.module, self.attr, self.calls = module, attr, calls
        self.signature = inspect.signature(getattr(module, attr))

    def __call__(self, *args, **kwargs):
        result = getattr(self.module, self.attr)(*args, **kwargs)
        bound = self.signature.bind(*args, **kwargs)
        self.calls.append((self.attr, bound.arguments, result))
        return result


class Sweep(Workload):
    """One op is one harness.run_trial: decode, then both witness routes."""

    name = "sweep-rep2-n40"
    specs = (("random:40:6:1", "repetition:2:6", "repetition:2:6"),)
    weights = tuple(range(6, 61, 6))
    count_cycles = 3

    def prepare(self, codes, seed):
        super().prepare(codes, seed)
        graph, code_a, code_b = self.specs[0]
        self.cfg = harness.ExperimentConfig(
            graph=graph, code_a=code_a, code_b=code_b, weights=list(self.weights),
            trials=1, seed=seed, certify=True, workers=1)
        # run_trial returns only a summary record; its decode and witness
        # outputs are captured at the names it calls so they can be checked
        self.calls: list = []
        self._saved = [(attr, getattr(harness, attr)) for attr in ("decode", "find_witness")]
        harness.decode = _Recorder(lp_decoder, "decode", self.calls)
        harness.find_witness = _Recorder(certificate, "find_witness", self.calls)

    def finish(self):
        for attr, value in getattr(self, "_saved", ()):
            setattr(harness, attr, value)

    def inputs(self, cycle):
        return [(w, cycle) for w in self.weights]

    def call(self, inp):
        self.calls.clear()
        record = harness.run_trial(self.codes[0], inp[0], inp[1], self.cfg)
        return record, list(self.calls)

    def check(self, inp, out):
        code = self.codes[0]
        record, calls = out
        decodes = [r for name, _, r in calls if name == "decode"]
        certs = [(a, r) for name, a, r in calls if name == "find_witness"]
        if len(decodes) != 1 or len(certs) != 2:
            return [f"expected one decode and two witness searches, saw "
                    f"{len(decodes)} and {len(certs)}"]
        c, y = certs[0][0]["c"], certs[0][0]["y"]
        result = decodes[0]
        problems = check_transmitted(code, c) + check_decode(code, c, y, result)
        for _, cert in certs:
            problems += check_certify(code, c, y, cert)
        correct = result.status == "codeword" and np.array_equal(result.codeword, c)
        found = [cert.witness_found for _, cert in certs]
        if any(found) and not correct:
            problems.append("witness found but decode did not return the transmitted word")
        if (record.decode_status, record.decoded_correct,
                record.witness_peel, record.witness_orient) != (
                result.status, correct, found[0], found[1]):
            problems.append("trial record disagrees with the captured outputs")
        return problems

    def tamper(self, inp, out):
        record, calls = out
        tampered = []
        for name, args, result in calls:
            if name == "decode":
                result = tamper_decode(result)
            tampered.append((name, args, result))
        return record, tampered


class Decode(Workload):
    """One op is one lp_decoder.decode on a codeword with exact-weight errors."""

    name = "decode-parity2-n12"
    specs = (("random:12:6:1", "parity:2:6", "parity:2:6"),)
    weights = tuple(range(1, 7))
    count_cycles = 5

    def inputs(self, cycle):
        return [self._pattern(cycle, w) for w in self.weights]

    def call(self, inp):
        return lp_decoder.decode(self.codes[0], inp[1])

    def check(self, inp, out):
        c, y = inp
        return check_transmitted(self.codes[0], c) + check_decode(self.codes[0], c, y, out)

    def tamper(self, inp, out):
        return tamper_decode(out)


class Certify(Workload):
    """One op is certificate.find_witness in peel and then in orient mode on
    one error pattern; no LP runs."""

    name = "certify-grs7-n100"
    specs = (("random:100:6:1", "grs:7:6:2", "grs:7:6:2"),)
    weights = (20, 40, 60, 80, 100, 140)
    modes = ("peel", "orient")
    count_cycles = 2
    op_speed_mix = ("python", "fraction")      # exact Fraction checks, no LP

    def inputs(self, cycle):
        return [self._pattern(cycle, w) for w in self.weights]

    def call(self, inp):
        c, y = inp
        return [certificate.find_witness(self.codes[0], c, y, mode=m) for m in self.modes]

    def check(self, inp, out):
        c, y = inp
        problems = check_transmitted(self.codes[0], c)
        for result in out:
            problems += check_certify(self.codes[0], c, y, result)
        return problems

    def tamper(self, inp, out):
        return [tamper_certify(result) for result in out]


class Scan(Workload):
    """One call is one exhaustive_agreement_scan of an instance; it counts as
    one op per received word."""

    name = "scan-tiny"
    specs = (("complete:3", "parity:2:3", "parity:2:3"),
             ("cycle:3", "repetition:3:2", "repetition:3:2"))
    count_cycles = 1

    def inputs(self, cycle):
        return list(range(len(self.codes)))

    def call(self, inp):
        return ml_oracle.exhaustive_agreement_scan(self.codes[inp], workers=1)

    def words(self, inp):
        code = self.codes[inp]
        return code.field.q ** code.num_edges

    def check(self, inp, out):
        total = self.words(inp)
        if out.total_words != total or out.integral_count + out.fractional_count != total:
            return [f"scan tallies do not cover the {total} words"] * total
        return [f"LP and oracle disagree: {m}" for m in out.mismatches]

    def tamper(self, inp, out):
        bad = copy.copy(out)
        bad.mismatches = out.mismatches + [{"word": [], "lp_distance": 1,
                                            "oracle_distance": 0}]
        return bad


WORKLOADS = {w.name: w for w in (Sweep, Decode, Scan, Certify)}


# -- counts the traced run takes from return values ---------------------------

def _lp_shape(result):
    problem = result[0]
    rows, cols = problem.eq_coeffs.shape
    return {"lp_builds": 1, "lp_rows": rows, "lp_cols": cols,
            "lp_nnz": int(np.count_nonzero(problem.eq_coeffs)), "lp_size": rows * cols}


def _witness(result):
    counts = {"searches": 1, "found": int(result.witness_found)}
    if result.witness_found:
        halvings = 0
        eps = result.epsilon
        while eps < certificate.EPSILON_START:
            eps *= 2
            halvings += 1
        counts["halvings"] = halvings
    return counts


COUNTERS = {
    "lp_decoder.build_reduced": _lp_shape,
    "lp_core.solve": lambda s: {"solves": 1, "pivots": s.iterations},
    "lp_decoder.decode": lambda r: {"decodes": 1, "integral": int(r.status == "codeword")},
    "certificate.peel": lambda t: {"peels": 1, "peel_rounds": len(t.edge_sets) - 1,
                                   "cores": int(not t.terminated_empty)},
    "orientation.orient": lambda o: {"orients": 1, "orient_fails": int(
        not hasattr(o, "head_side"))},
    "certificate.find_witness": _witness,
    "ml_oracle.ml_decode": lambda r: {"ml_decodes": 1,
                                      "codewords_scanned": r.num_codewords_scanned},
}

# count metric -> (numerator, denominator) in the summed counts
COUNT_METRICS = {
    "lp_decoder.lp_rows": ("lp_rows", "lp_builds"),
    "lp_decoder.lp_cols": ("lp_cols", "lp_builds"),
    "lp_decoder.lp_nnz_frac": ("lp_nnz", "lp_size"),
    "lp_core.pivots": ("pivots", "solves"),
    "certificate.peel_rounds": ("peel_rounds", "peels"),
    "certificate.core_frac": ("cores", "peels"),
    "orientation.fail_frac": ("orient_fails", "orients"),
    "certificate.eps_halvings": ("halvings", "found"),
    "ml_oracle.codewords_scanned": ("codewords_scanned", "ml_decodes"),
    "decode_integral_frac": ("integral", "decodes"),
    "witness_found_frac": ("found", "searches"),
}

