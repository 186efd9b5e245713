"""The decoding LP: embeddings, assembly, and end-to-end decodes."""

import gc
import itertools
import json
import os
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from expanderlp import (
    ExpanderCode,
    LpProblem,
    NotIntegralError,
    build_reduced,
    cost_from_received,
    decode,
    embed,
    hamming_distance,
    solve,
    unembed,
)
from expanderlp import lp_core, lp_decoder
from expanderlp.harness import resolve_instance, sample_error_pattern

from oracles import build_primal, lift_f_by_edge, nearest_codeword_scan, solve_by_reference
from test_lp_core import golden_fields


def test_embed_is_one_hot():
    blocks = embed([2, 0, 1], 3)
    assert blocks.shape == (3, 3)
    assert blocks.tolist() == [[0, 0, 1], [1, 0, 0], [0, 1, 0]]


def test_embed_unembed_round_trip():
    word = [0, 3, 1, 2]
    assert unembed(embed(word, 4)).tolist() == word


def test_unembed_rejects_fractional():
    with pytest.raises(NotIntegralError):
        unembed(np.array([[0.5, 0.5], [1.0, 0.0]]))
    with pytest.raises(NotIntegralError):
        unembed(np.ones((2, 2)))
    with pytest.raises(NotIntegralError):
        unembed(np.array([1.0, 0.0]))


def test_cost_structure():
    cost = cost_from_received([1, 0], 3)
    # matching the received symbol costs -1, anything else +1
    assert cost.tolist() == [[1.0, -1.0, 1.0], [-1.0, 1.0, 1.0]]


def test_full_problem_shape(four_cycle_rep3):
    problem, layout = build_primal(four_cycle_rep3, [0, 0, 0, 1])
    # 12 f variables (4 edges x q=3) + 12 w variables (4 vertices x 3 local words)
    assert problem.objective.shape == (24,)
    # 4 convexity rows + 2*q*|E| = 24 marginalization rows
    assert problem.eq_coeffs.shape == (28, 24)
    assert layout.f_count == 12
    assert layout.num_vars == 24


def test_reduced_problem_shape(four_cycle_rep3):
    problem, first_b = build_reduced(four_cycle_rep3, [0, 0, 0, 1])
    # w variables only; 4 convexity rows + (q-1)*|E| = 8 agreement rows
    assert problem.objective.shape == (12,)
    assert problem.eq_coeffs.shape == (12, 12)
    assert first_b == 6  # 2 A vertices x 3 local codewords come first


def codeword_as_full_point(code, layout, z):
    """Embed a codeword as the integral feasible point of the full LP."""
    x = np.zeros(layout.num_vars)
    x[: layout.f_count] = embed(z, layout.q).ravel()
    for side in ("a", "b"):
        words = (code.code_a if side == "a" else code.code_b).codewords()
        for v in range(code.graph.n):
            local = code.restriction(z, side, v)
            hits = np.nonzero((words == local).all(axis=1))[0]
            sl = layout.w_slice(side, v)
            x[sl.start + int(hits[0])] = 1.0
    return x


def test_codewords_are_feasible_with_known_objective(four_cycle_rep3):
    # plugging any codeword into the LP gives objective |E| - 2*dist(y, z)
    code = four_cycle_rep3
    y = np.array([0, 0, 0, 1])
    problem, layout = build_primal(code, y)
    for z in code.enumerate_codewords():
        x = codeword_as_full_point(code, layout, z)
        residual = problem.eq_coeffs @ x - problem.eq_rhs
        assert np.abs(residual).max() < 1e-12
        expected = code.num_edges - 2 * hamming_distance(y, z)
        assert problem.objective @ x == pytest.approx(expected)


def test_reduced_equals_full_on_all_words(four_cycle_rep3):
    code = four_cycle_rep3
    for y in itertools.product(range(3), repeat=4):
        full, _ = build_primal(code, list(y))
        reduced, _ = build_reduced(code, list(y))
        a = solve(full)
        b = solve(reduced)
        assert a.status == b.status == "optimal"
        assert a.objective_value == pytest.approx(b.objective_value, abs=1e-7)


def test_decode_single_error(four_cycle_rep3):
    result = decode(four_cycle_rep3, [0, 0, 0, 1])
    assert result.status == "codeword"
    assert result.codeword.tolist() == [0, 0, 0, 0]
    assert result.objective == pytest.approx(2.0)  # |E| - 2*1
    assert result.distance_to([0, 0, 0, 1]) == 1
    assert result.lp_iterations > 0


def test_decode_clean_codeword(four_cycle_rep3):
    result = decode(four_cycle_rep3, [2, 2, 2, 2])
    assert result.status == "codeword"
    assert result.codeword.tolist() == [2, 2, 2, 2]
    assert result.objective == pytest.approx(4.0)


def test_decode_tie_still_integral(four_cycle_rep3):
    # equidistant from 0000 and 1111; the solver lands on a vertex, which
    # here is one of the two nearest codewords
    result = decode(four_cycle_rep3, [0, 0, 1, 1])
    assert result.status == "codeword"
    assert result.distance_to([0, 0, 1, 1]) == 2
    assert result.objective == pytest.approx(0.0)


def test_decode_marginals_are_distributions(four_cycle_rep3):
    result = decode(four_cycle_rep3, [0, 2, 1, 0])
    assert result.raw_f.shape == (4, 3)
    assert result.raw_f.sum(axis=1) == pytest.approx(np.ones(4))
    for block in result.raw_w:
        assert block.shape == (2, 3)
        assert block.sum(axis=1) == pytest.approx(np.ones(2))
        assert block.min() >= -1e-9


@pytest.mark.parametrize("name", ["four_cycle_rep3", "k33_parity2", "k66_grs", "r20_rep2"])
def test_lift_matches_per_edge_bincount(request, name):
    code = request.getfixturevalue(name)
    rng = np.random.default_rng(17)
    for weight in (1, code.num_edges // 3, code.num_edges // 2):
        y = code.random_codeword(rng)
        flip = rng.choice(code.num_edges, size=weight, replace=False)
        y[flip] = (y[flip] + rng.integers(1, code.field.q, size=weight)) % code.field.q
        result = decode(code, y)
        assert result.raw_f.tobytes() == lift_f_by_edge(code, result.raw_w).tobytes()


def test_decode_matches_oracle_when_integral(k33_parity2):
    rng = np.random.default_rng(8)
    for _ in range(20):
        y = rng.integers(0, 2, size=9)
        result = decode(k33_parity2, y)
        if result.status != "codeword":
            continue
        best, _count = nearest_codeword_scan(k33_parity2, y)
        assert result.distance_to(y) == best
        assert result.objective == pytest.approx(9 - 2 * best)


def test_half_distance_errors_always_corrected(k33_parity2):
    # minimum distance 4: every single-symbol error decodes back
    words = k33_parity2.enumerate_codewords()
    for z in words[:4]:
        for e in range(9):
            y = z.copy()
            y[e] ^= 1
            result = decode(k33_parity2, y)
            assert result.status == "codeword"
            assert np.array_equal(result.codeword, z)


def test_decode_validates_input(four_cycle_rep3):
    with pytest.raises(ValueError):
        decode(four_cycle_rep3, [0, 0, 0])
    with pytest.raises(ValueError):
        decode(four_cycle_rep3, [0, 0, 0, 5])
    with pytest.raises(ValueError, match="integers"):
        decode(four_cycle_rep3, [0, 1.9, 0, -0.5])
    with pytest.raises(ValueError, match="integers"):
        decode(four_cycle_rep3, np.array([0, 0.9 + 0j, 0, 0]))


# -- the per-code cache: constraints and phase 1 built once --------------------

def _fresh(code):
    """An equal code that shares no cache entry with `code`."""
    return ExpanderCode(code.graph, code.code_a, code.code_b)


def _as_bytes(result):
    codeword = None if result.codeword is None else result.codeword.tobytes()
    return (result.status, codeword, result.raw_f.tobytes(),
            [block.tobytes() for block in result.raw_w],
            result.objective.hex(), result.lp_iterations)


def _words(code, count, seed):
    rng = np.random.default_rng(seed)
    weights = np.linspace(0, code.num_edges // 3, count).astype(int)
    return [sample_error_pattern(code, code.random_codeword(rng), int(w), rng)
            for w in weights]


INSTANCES = {
    # the four LP instances of the benchmark, and a mixed-side K4,4
    "sweep": ("random:40:6:1", "repetition:2:6", "repetition:2:6"),
    "decode": ("random:12:6:1", "parity:2:6", "parity:2:6"),
    "scan-k33": ("complete:3", "parity:2:3", "parity:2:3"),
    "scan-c3": ("cycle:3", "repetition:3:2", "repetition:3:2"),
    "k44-mixed": ("complete:4", "parity:3:4", "repetition:3:4"),
}


@pytest.mark.parametrize("name", ["four_cycle_rep3", "k33_parity2", "k66_rep2",
                                  "k66_grs", "r20_rep2", *INSTANCES])
def test_warm_decode_equals_cold(request, name):
    code = (resolve_instance(*INSTANCES[name]) if name in INSTANCES
            else request.getfixturevalue(name))
    words = _words(code, 3, seed=41)
    decode(code, words[-1])                  # the cache is warm from here on
    for y in words:
        assert _as_bytes(decode(code, y)) == _as_bytes(decode(_fresh(code), y))


def test_other_opt_tol_gets_its_own_start(k33_parity2):
    code = _fresh(k33_parity2)
    y = [1, 0, 0, 0, 1, 0, 0, 0, 1]
    decode(code, y)
    warm = decode(code, y, opt_tol=1e-7)
    assert sorted(lp_decoder._POLYTOPES[code].starts) == [1e-9, 1e-7]
    assert _as_bytes(warm) == _as_bytes(decode(_fresh(code), y, opt_tol=1e-7))


def test_cache_entry_goes_with_its_code(four_cycle_rep3):
    code = _fresh(four_cycle_rep3)
    decode(code, [0, 0, 0, 1])
    assert code in lp_decoder._POLYTOPES
    entries = len(lp_decoder._POLYTOPES)
    ref = weakref.ref(code)
    del code
    gc.collect()
    assert ref() is None
    assert len(lp_decoder._POLYTOPES) == entries - 1


def test_cached_constraints_are_read_only(four_cycle_rep3):
    first, _ = build_reduced(four_cycle_rep3, [0, 0, 0, 1])
    second, _ = build_reduced(four_cycle_rep3, [2, 1, 0, 1])
    assert first.eq_coeffs is second.eq_coeffs
    with pytest.raises(ValueError):
        first.eq_coeffs[0, 0] = 5.0
    with pytest.raises(ValueError):
        first.eq_rhs[0] = 5.0
    assert not np.array_equal(first.objective, second.objective)


def test_the_cached_start_shares_the_cached_constraints(monkeypatch, four_cycle_rep3):
    # decode's problem and its start hold one pair of arrays, so solve's
    # check that they match never compares their entries
    y = [0, 0, 0, 1]
    problem, _ = build_reduced(four_cycle_rep3, y)
    start = lp_decoder._phase1_start(four_cycle_rep3, lp_core.DEFAULT_OPT_TOL)
    assert start.eq_coeffs is problem.eq_coeffs and start.eq_rhs is problem.eq_rhs
    monkeypatch.setattr(np, "array_equal", None)
    assert decode(four_cycle_rep3, y).status == "codeword"


@pytest.mark.parametrize("value", [np.nan, np.inf, -1e-6], ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("name", ["int_tol", "feas_tol", "opt_tol"])
def test_decode_checks_its_tolerances(four_cycle_rep3, name, value):
    y = [0, 0, 0, 1]
    for call in (lambda: decode(four_cycle_rep3, y, **{name: value}),
                 lambda: lp_decoder.decode_many(four_cycle_rep3, [y], **{name: value}),
                 lambda: lp_decoder.decode_many(four_cycle_rep3, [], **{name: value})):
        with pytest.raises(ValueError, match=f"^{name} must be finite and >= 0"):
            call()


def test_warm_decodes_do_not_recheck_the_constraints(monkeypatch, r20_rep2):
    # the cached constraints are checked once per code; a user's own
    # LpProblem still checks its constraints
    code = _fresh(r20_rep2)
    words = _words(code, 3, seed=5)
    cold = [_as_bytes(decode(_fresh(code), y)) for y in words]
    decode(code, words[0])
    real, calls = lp_core._checked_constraints, []

    def counting(eq_coeffs, eq_rhs):
        calls.append(eq_coeffs)
        return real(eq_coeffs, eq_rhs)

    monkeypatch.setattr(lp_core, "_checked_constraints", counting)
    assert [_as_bytes(decode(code, y)) for y in words] == cold
    assert calls == []
    problem, _ = build_reduced(code, words[0])
    LpProblem(objective=problem.objective, eq_coeffs=problem.eq_coeffs,
              eq_rhs=problem.eq_rhs)
    assert len(calls) == 1


def test_warm_decode_pivots_only_in_phase_2(monkeypatch, r20_rep2):
    # a fresh code, so phase 1 runs under the counting pivot too
    code = _fresh(r20_rep2)
    pivots, solutions = [0], []
    real_pivot, real_solve = lp_core._Revised._pivot, lp_core.solve

    def counting_pivot(self, *args):
        pivots[0] += len(self.W)     # one pivot in each problem of the stack
        real_pivot(self, *args)

    def recording_solve(*args, **kwargs):
        solutions.append(real_solve(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(lp_core._Revised, "_pivot", counting_pivot)
    monkeypatch.setattr(lp_core, "solve", recording_solve)
    for k, y in enumerate(_words(code, 3, seed=5)):
        pivots[0] = 0
        result = decode(code, y)
        sol = solutions[-1]
        assert result.lp_iterations == sol.iterations
        assert 0 < sol.phase1_iterations <= sol.iterations
        assert pivots[0] == (sol.iterations if k == 0
                             else sol.iterations - sol.phase1_iterations)


# -- many words in stacked LPs -----------------------------------------------------

def _fields(result):
    """Every field of a decode result: arrays by dtype and bytes, the
    objective by hex."""
    codeword = (None if result.codeword is None
                else (result.codeword.dtype, result.codeword.tobytes()))
    return (result.status, codeword, result.raw_f.shape, result.raw_f.tobytes(),
            [(block.shape, block.tobytes()) for block in result.raw_w],
            result.objective.hex(), result.lp_iterations)


@pytest.mark.parametrize("name", ["four_cycle_rep3", "k33_parity2", "k66_rep2",
                                  "k66_grs", "r20_rep2", *INSTANCES])
def test_decode_many_equals_decode_word_by_word(request, name):
    code = (resolve_instance(*INSTANCES[name]) if name in INSTANCES
            else request.getfixturevalue(name))
    words = _words(code, 5, seed=43)
    assert ([_fields(r) for r in lp_decoder.decode_many(code, words)]
            == [_fields(decode(code, y)) for y in words])


def test_decode_many_across_stack_boundaries(monkeypatch, k33_parity2):
    # every word of the space, in stacks of 3, 7 and one word short of all
    words = list(itertools.product(range(2), repeat=9))
    expected = [_fields(decode(k33_parity2, y)) for y in words]
    assert sum(f[0] == "fractional-failure" for f in expected) == 0
    size = lp_decoder._phase1_start(k33_parity2, lp_core.DEFAULT_OPT_TOL).problem_bytes
    for per_stack in (3, 7, len(words) - 1):
        monkeypatch.setattr(lp_decoder, "STACK_BYTES", per_stack * size)
        assert [_fields(r) for r in lp_decoder.decode_many(k33_parity2, words)] == expected


def test_decode_many_keeps_fractional_optima():
    # K4,4 with binary parity locals: some random words have fractional
    # optima, and the stack keeps them as decode does
    code = resolve_instance("complete:4", "parity:2:4", "parity:2:4")
    rng = np.random.default_rng(3)
    words = [rng.integers(0, 2, size=code.num_edges) for _ in range(60)]
    results = lp_decoder.decode_many(code, words)
    assert {r.status for r in results} == {"codeword", "fractional-failure"}
    assert [_fields(r) for r in results] == [_fields(decode(code, y)) for y in words]


def test_decode_many_solves_large_lps_in_stacks_of_one(monkeypatch, r20_rep2):
    # a budget that holds one r20 problem and not two: each word is a stack
    # of one in solve_many, never a call to decode, with decode's results
    real, stacks = lp_core.solve_many, []
    size = lp_decoder._phase1_start(r20_rep2, lp_core.DEFAULT_OPT_TOL).problem_bytes
    monkeypatch.setattr(lp_decoder, "STACK_BYTES", 2 * size - 1)

    def recording(objectives, *args, **kwargs):
        stacks.append(len(objectives))
        return real(objectives, *args, **kwargs)

    words = _words(r20_rep2, 3, seed=2)
    expected = [_fields(decode(r20_rep2, y)) for y in words]
    monkeypatch.setattr(lp_core, "solve_many", recording)
    monkeypatch.setattr(lp_decoder, "decode", None)
    assert [_fields(r) for r in lp_decoder.decode_many(r20_rep2, words)] == expected
    assert stacks == [1, 1, 1]


# GF(4) words whose LPs ended in NumericError on the dense tableau
# simplex: it pivoted on round-off of an exact zero (1.7e-9 on the first,
# above its fixed pivot tolerance) into a singular basis, and the residual
# check raised.  The LP values are HiGHS's; 44 = 60 - 2*8 is a codeword at
# distance 8.
@pytest.mark.parametrize("word, value", [
    ("213302310020221333302321033120103110222113230111321000000133", 44.0),
    ("000000000000000102000000000000000000230202100000001030000100", 40.0),
    ("311201021201000310201030311031120002120332103023012030030230", 36.0),
], ids=["lp-value-44", "lp-value-40", "lp-value-36"])
def test_decode_of_a_gf4_word_with_a_near_singular_path(word, value):
    code = resolve_instance("random:20:3:1", "grs:4:3:2", "grs:4:3:2")
    result = decode(code, [int(s) for s in word])
    assert result.objective == pytest.approx(value)
    assert result.min_pivot > 1e-6


def test_decode_carries_the_lp_pivot_stats(k33_parity2):
    # the decode result's pivot count and smallest pivot are its LP
    # solution's, in decode and decode_many alike
    words = _words(k33_parity2, 4, seed=9)
    start = lp_decoder._phase1_start(k33_parity2, lp_core.DEFAULT_OPT_TOL)
    for y, many in zip(words, lp_decoder.decode_many(k33_parity2, words)):
        sol = solve(build_reduced(k33_parity2, y)[0], start=start)
        result = decode(k33_parity2, y)
        assert (result.lp_iterations, result.min_pivot) == (sol.iterations, sol.min_pivot)
        assert (many.lp_iterations, many.min_pivot) == (sol.iterations, sol.min_pivot)
        assert 0 < sol.min_pivot < np.inf


@pytest.mark.parametrize("ys", [[[0, 0, 0]], [[0, 0, 0, 5]], [[0, 0, 0, -1]], [0, 0, 0, 0],
                                [[0, 0, 0, 1], [0, 1.9, 0, -0.5]]],
                         ids=["short", "symbol-out-of-field", "negative", "one-word-not-a-stack",
                              "fractional"])
def test_decode_many_validates_input(four_cycle_rep3, ys):
    with pytest.raises(ValueError):
        lp_decoder.decode_many(four_cycle_rep3, ys)


def test_decode_many_of_no_words(four_cycle_rep3):
    assert lp_decoder.decode_many(four_cycle_rep3, []) == []


GOLDEN = json.loads((Path(__file__).parent / "golden" / "lp_solves.json").read_text())


# the golden words whose decode verdict differs from the recorded one at
# the same LP objective: on the 96 x 768 parity LP, decode's float path
# ends at another optimal vertex, integral where the recorded one is
# fractional or the other way round
VERDICT_CHANGED = {("decode", 2), ("decode", 3), ("decode", 4)}


@pytest.mark.parametrize("name", sorted(GOLDEN["decode"]))
def test_decode_matches_the_golden(request, monkeypatch, name):
    # decode's LP solutions as the dense tableau simplex found them, on the
    # words decode_many is checked with: the reference still takes those
    # pivots bit for bit, and its optimum, rounded as decode rounds, has
    # the recorded verdict.  decode, on its own float path, reaches the
    # same LP objective, with the recorded verdict except on the words of
    # VERDICT_CHANGED, and decode_many's results are decode's
    code = (resolve_instance(*INSTANCES[name]) if name in INSTANCES
            else request.getfixturevalue(name))
    cases = GOLDEN["decode"][name]
    solutions, real = [], lp_core.solve

    def recording(*args, **kwargs):
        solutions.append(real(*args, **kwargs))
        return solutions[-1]

    monkeypatch.setattr(lp_core, "solve", recording)
    words = [case["word"] for case in cases]
    results = [decode(code, y) for y in words]
    for i, (case, y, sol, result) in enumerate(zip(cases, words, solutions, results)):
        problem, first_b = build_reduced(code, y)
        expected = {k: v for k, v in case.items() if k not in ("word", "decode_status")}
        reference = solve_by_reference(problem)
        assert golden_fields(reference) == expected
        assert lp_decoder._decoded(code, [reference], first_b, lp_decoder.DEFAULT_INT_TOL
                                   )[0].status == case["decode_status"]
        bound = lp_core.DEFAULT_FEAS_TOL * (1.0 + np.abs(problem.eq_rhs).max())
        assert sol.status == "optimal"
        assert abs(sol.objective_value - float.fromhex(case["objective"])) <= bound
        assert ((result.status == case["decode_status"])
                == ((name, i) not in VERDICT_CHANGED))
    assert ([_fields(r) for r in lp_decoder.decode_many(code, words)]
            == [_fields(r) for r in results])


_NO_POOL = """
import sys
import numpy as np
from expanderlp import certificate, decode, lp_decoder
from expanderlp.harness import resolve_instance, sample_error_pattern

code = resolve_instance("random:40:6:1", "repetition:2:6", "repetition:2:6")
rng = np.random.default_rng(1)
c = code.random_codeword(rng)
y = sample_error_pattern(code, c, 6, rng)
assert decode(code, y).status == "codeword"
assert certificate.find_witness(code, c, y, mode="peel").witness_found
assert lp_decoder.map_with_code(decode, code, [(y,)], workers=1)[0].status == "codeword"
print("multiprocessing" in sys.modules, "concurrent.futures" in sys.modules)
"""


def test_decode_and_certify_leave_the_process_pool_unimported():
    # only map_with_code with workers > 1 needs multiprocessing and
    # concurrent.futures, ~1.2 MB of peak RSS; a fresh process shows that
    # importing the package, a decode and a witness search load neither
    src = str(Path(lp_decoder.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    run = subprocess.run([sys.executable, "-c", _NO_POOL], env=env,
                         capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout.split() == ["False", "False"]
