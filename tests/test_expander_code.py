"""Global codes on bipartite graphs, plus the analytic bound formulas."""

import json
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlp import (
    GF,
    DomainError,
    ExpanderCode,
    NoValidThetaError,
    TannerGraph,
    binary_entropy,
    binary_entropy_inverse,
    check_word,
    complete_bipartite,
    compute_theta,
    correctable_fraction_core,
    correctable_fraction_orientation,
    cycle_graph,
    distance_bound_eq1,
    format_word,
    generalized_reed_solomon,
    gflinalg,
    hamming_distance,
    parse_word,
    repetition,
    single_parity_check,
    sqrt_fraction,
    table_fraction,
)
from expanderlp.harness import resolve_instance
from expanderlp.linear_code import LocalCode

from oracles import is_codeword_by_vertex, null_space_by_tables


# -- word helpers ------------------------------------------------------------------


def test_check_word_validates_shape_and_symbols(k33_parity2):
    word = check_word([0, 2, 1], 3, 3)
    assert word.dtype == np.int64 and word.tolist() == [0, 2, 1]
    assert check_word([], 3).shape == (0,)
    assert check_word(np.array([0.0, 2.0, 1.0]), 3).tolist() == [0, 2, 1]
    for bad, length in (([0, 3], None), ([-1, 0], 2), ([0, 1], 3), ([[0, 1]], None),
                        ([-0.5, 2.9, 1], None), ([0.5] * 3, 3), ([np.nan, 0], None),
                        ([np.inf, 0], None), (np.array([0.5 + 0j, 1.7 + 2j]), None),
                        (np.array([1 + 1j, 0j]), None), (np.array([np.nan + 0j, 0j]), None)):
        with pytest.raises(ValueError):
            check_word(bad, 3, length)
    # a complex word of whole real symbols is that word
    assert check_word(np.array([1 + 0j, 0j, 2 + 0j]), 3).tolist() == [1, 0, 2]
    # a fractional word is not truncated into a codeword
    with pytest.raises(ValueError, match="integers"):
        k33_parity2.is_codeword([0.5] * 9)
    # nor is text parsed into one
    for text, length in (("3", ()), (b"2", ()), (["1", "0"], None), (np.array([b"1"]), None)):
        with pytest.raises(ValueError, match="not text"):
            check_word(text, 5, length)
    k22 = resolve_instance("complete:2", "parity:2:2", "parity:2:2")
    assert k22.is_codeword([0] * 4)
    with pytest.raises(ValueError, match="not text"):
        k22.is_codeword(["0"] * 4)


def test_parse_format_round_trip():
    word = [0, 2, 1, 2]
    assert parse_word(format_word(word), 3).tolist() == word
    assert format_word(word) == "0 2 1 2\n"


def test_parse_word_validates():
    with pytest.raises(ValueError):
        parse_word("0 1 2", 2)
    with pytest.raises(ValueError):
        parse_word("0 1", 3, expected_length=3)


def test_hamming_distance():
    assert hamming_distance([0, 1, 2], [0, 1, 2]) == 0
    assert hamming_distance([0, 1, 2], [1, 1, 0]) == 2
    with pytest.raises(ValueError):
        hamming_distance([0, 1], [0, 1, 2])


# -- global code structure ---------------------------------------------------------


def test_product_code_dimensions(k33_parity2, k66_grs, four_cycle_rep3):
    # complete-bipartite instances are product codes: dimension k_a * k_b
    assert k33_parity2.dimension == 4
    assert k66_grs.dimension == 4
    # on the 4-cycle with repetition locals only the constant words survive
    assert four_cycle_rep3.dimension == 1


def test_product_code_min_distances(k33_parity2, k66_grs, four_cycle_rep3):
    assert k33_parity2.brute_force_min_distance() == 4      # 2 * 2
    assert k66_grs.brute_force_min_distance() == 25         # 5 * 5
    assert four_cycle_rep3.brute_force_min_distance() == 4  # all edges


def test_rate_lower_bound(k33_parity2, k66_rep2):
    # r_A + r_B - 1
    assert k33_parity2.rate_lower_bound() == Fraction(1, 3)
    # repetition rate 1/6 twice: bound is negative, actual dimension is 1
    assert k66_rep2.rate_lower_bound() == Fraction(-2, 3)
    assert k66_rep2.dimension == 1


def test_dimension_never_below_rate_bound(k33_parity2, k66_grs):
    for code in (k33_parity2, k66_grs):
        bound = code.rate_lower_bound() * code.num_edges
        assert code.dimension >= bound


def test_enumerate_codewords_complete(four_cycle_rep3):
    words = four_cycle_rep3.enumerate_codewords()
    assert words.shape == (3, 4)
    assert {tuple(w) for w in words} == {(0, 0, 0, 0), (1, 1, 1, 1), (2, 2, 2, 2)}


def test_enumeration_count_matches_dimension(k33_parity2):
    words = k33_parity2.enumerate_codewords()
    assert words.shape[0] == 2**4
    assert len({tuple(w) for w in words}) == 2**4


def test_codewords_satisfy_parity_checks(k33_parity2):
    h = k33_parity2.parity_check_matrix()
    f = k33_parity2.field
    for w in k33_parity2.enumerate_codewords():
        # accumulate H @ w over GF(2)
        acc = np.zeros(h.shape[0], dtype=np.int64)
        for j, s in enumerate(w):
            if s:
                acc = f.add_table[acc, h[:, j]]
        assert not acc.any()


def test_is_codeword_matches_local_membership(k66_grs):
    rng = np.random.default_rng(2)
    w = k66_grs.random_codeword(rng)
    assert k66_grs.is_codeword(w)
    for v in range(6):
        assert k66_grs.code_a.contains(k66_grs.restriction(w, "a", v))
        assert k66_grs.code_b.contains(k66_grs.restriction(w, "b", v))
    w2 = w.copy()
    w2[0] = (w2[0] + 3) % 7
    assert not k66_grs.is_codeword(w2)


@pytest.fixture(scope="module")
def full_space_a():
    """A-side local code is all of GF(3)^2 (no parity checks), B side repetition."""
    return ExpanderCode(cycle_graph(3), LocalCode(GF(3), np.eye(2, dtype=np.int64)),
                        repetition(GF(3), 2))


@pytest.fixture(scope="module")
def r8_grs4():
    """GRS[4,2] locals over the extension field GF(4) on a random graph."""
    return resolve_instance("random:8:4:3", "grs:4:4:2", "grs:4:4:2")


@pytest.mark.parametrize("fixture", ["four_cycle_rep3", "k33_parity2", "k66_grs",
                                     "r20_rep2", "full_space_a", "r8_grs4"])
def test_is_codeword_matches_per_vertex_reference(fixture, request):
    code = request.getfixturevalue(fixture)
    rng = np.random.default_rng(31)
    q = code.field.q
    graph = code.graph
    local_a = code.code_a.codewords()
    words = []
    for _ in range(10):
        c = code.random_codeword(rng)
        flipped = c.copy()
        e = int(rng.integers(code.num_edges))
        flipped[e] = (flipped[e] + int(rng.integers(1, q))) % q
        # every A vertex gets a local codeword, so only B-side checks can fail
        a_only = np.zeros(code.num_edges, dtype=np.int64)
        for v in range(graph.n):
            a_only[graph.a_edges[v]] = local_a[int(rng.integers(len(local_a)))]
        words += [c, flipped, a_only, rng.integers(0, q, size=code.num_edges)]
    verdicts = [code.is_codeword(w) for w in words]
    assert verdicts == [is_codeword_by_vertex(code, w) for w in words]
    assert all(verdicts[::4]) and not all(verdicts[1::4])
    assert not all(verdicts[2::4])
    # the stacked check gives every word's verdict at once
    assert code.codeword_mask(np.array(words)).tolist() == verdicts
    assert code.codeword_mask(np.zeros((0, code.num_edges), dtype=np.int64)).shape == (0,)


def test_codeword_basis_spans(k33_parity2):
    basis = k33_parity2.codeword_basis()
    assert basis.shape == (4, 9)
    for row in basis:
        assert k33_parity2.is_codeword(row)


def test_cached_matrices_are_read_only():
    code = resolve_instance("complete:3", "parity:2:3", "parity:2:3")
    for cached in (code.codeword_basis(), code.parity_check_matrix()):
        with pytest.raises(ValueError):
            cached[0, 0] ^= 1
    assert all(code.is_codeword(row) for row in code.codeword_basis())


def test_restriction_validates_side_vertex_and_word(k33_parity2):
    word = [0] * 9
    assert k33_parity2.restriction(word, "b", 2).tolist() == [0, 0, 0]
    for side, v in (("x", 0), ("A", 0), ("a", 3), ("b", -1)):
        with pytest.raises(ValueError):
            k33_parity2.restriction(word, side, v)
    for bad in ([0.7] * 9, [0] * 8, [2] * 9, [-1] * 9):
        with pytest.raises(ValueError):
            k33_parity2.restriction(bad, "a", 0)


def _local_spec(draw, q, delta):
    kinds = ["repetition", "parity"] + (["grs"] if q >= delta else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "grs":
        # k = delta is the whole space: a side with no checks
        return f"grs:{q}:{delta}:{draw(st.integers(min_value=1, max_value=delta))}"
    return f"{kind}:{q}:{delta}"


@st.composite
def instances(draw):
    """A random instance, its edges in constructor order or shuffled (as a
    graph file may list them, so each vertex's edges are not contiguous)."""
    q = draw(st.sampled_from([2, 3, 4, 5, 7, 8, 9]))
    delta = draw(st.integers(min_value=2, max_value=5))
    n = draw(st.integers(min_value=max(delta, 3), max_value=10))
    seed = draw(st.integers(min_value=0, max_value=1000))
    code = resolve_instance(f"random:{n}:{delta}:{seed}", _local_spec(draw, q, delta),
                            _local_spec(draw, q, delta))
    return shuffled(code, seed) if draw(st.booleans()) else code


def shuffled(code, seed):
    """The same instance with its edges listed in a random order."""
    edges = code.graph.edges()
    order = np.random.default_rng(seed).permutation(len(edges))
    graph = TannerGraph(code.graph.n, code.graph.delta, [edges[i] for i in order])
    return ExpanderCode(graph, code.code_a, code.code_b)


def assert_basis_is_the_null_space(code):
    basis = code.codeword_basis()
    assert code._parity is None     # built from the local codes alone
    H = code.parity_check_matrix()
    assert basis.dtype == np.int64
    assert np.array_equal(basis, gflinalg.null_space(H, code.field))
    assert np.array_equal(basis, null_space_by_tables(H, code.field))


@settings(max_examples=120, deadline=None)
@given(instances())
def test_codeword_basis_is_the_null_space_of_the_check_matrix(code):
    assert_basis_is_the_null_space(code)


@pytest.mark.parametrize("spec", [
    ("random:20:3:1", "grs:4:3:2", "grs:4:3:2"),
    ("random:24:9:1", "grs:9:9:5", "grs:9:9:5"),
    ("cycle:3", "grs:3:2:2", "repetition:3:2"),
    ("complete:4", "parity:5:4", "grs:5:4:4"),
], ids=lambda spec: "+".join(spec))
@pytest.mark.parametrize("edge_order", ["built", "shuffled"])
def test_codeword_basis_is_the_null_space_on_fixed_instances(spec, edge_order):
    code = resolve_instance(*spec)
    assert_basis_is_the_null_space(code if edge_order == "built" else shuffled(code, 7))


def test_random_codeword_deterministic(k66_grs):
    a = k66_grs.random_codeword(np.random.default_rng(5))
    b = k66_grs.random_codeword(np.random.default_rng(5))
    assert np.array_equal(a, b)


GOLDEN_CODEWORDS = json.loads(
    (Path(__file__).parent / "golden" / "codewords.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_CODEWORDS,
                         ids=[case["instance"].replace(" ", "+") for case in GOLDEN_CODEWORDS])
def test_codewords_match_golden(case, request):
    # every conftest fixture and the benchmark instances (given by their
    # specs): the basis and four codewords drawn from default_rng(31), as
    # recorded from the element-by-element basis fill and codeword sum
    name = case["instance"]
    code = resolve_instance(*name.split()) if " " in name else request.getfixturevalue(name)
    basis = code.codeword_basis()
    rng = np.random.default_rng(31)
    words = [code.random_codeword(rng) for _ in case["words"]]
    assert basis.dtype == np.int64 and {w.dtype for w in words} == {np.dtype(np.int64)}
    assert basis.tolist() == case["basis"]
    assert [w.tolist() for w in words] == case["words"]


def test_mixed_fields_rejected():
    g = complete_bipartite(3)
    with pytest.raises(ValueError):
        ExpanderCode(g, single_parity_check(GF(2), 3), single_parity_check(GF(3), 3))


def test_local_length_must_match_degree():
    g = complete_bipartite(3)
    with pytest.raises(ValueError):
        ExpanderCode(g, repetition(GF(2), 4), repetition(GF(2), 3))


# -- exact square roots ------------------------------------------------------------


def test_sqrt_fraction():
    assert sqrt_fraction(Fraction(4, 9)) == Fraction(2, 3)
    assert sqrt_fraction(Fraction(0)) == 0
    assert sqrt_fraction(Fraction(25, 16)) == Fraction(5, 4)
    with pytest.raises(ValueError):
        sqrt_fraction(Fraction(2))
    with pytest.raises(ValueError):
        sqrt_fraction(Fraction(-1, 4))


# -- distance bound ----------------------------------------------------------------


def test_distance_bound_hand_values():
    db = distance_bound_eq1(2 / 3, 2 / 3, 0.0)
    assert db.value == pytest.approx(4 / 9)
    assert db.positive
    # gamma at sqrt(prod) kills the bound
    db0 = distance_bound_eq1(1.0, 1.0, 0.5)
    assert db0.value == pytest.approx(1.0)
    tight = distance_bound_eq1(0.25, 0.25, 0.25)
    assert tight.value == pytest.approx(0.0, abs=1e-12)
    assert not tight.positive


def test_distance_bound_exact_rational():
    got = distance_bound_eq1(Fraction(2, 3), Fraction(2, 3), Fraction(1, 3))
    assert isinstance(got.value, Fraction)
    assert got.value == Fraction(1, 3)
    assert got.positive
    assert distance_bound_eq1(Fraction(1), Fraction(1), Fraction(0)).value == 1


def test_distance_bound_matches_exact():
    approx = distance_bound_eq1(2 / 3, 2 / 3, 1 / 3).value
    exact = distance_bound_eq1(Fraction(2, 3), Fraction(2, 3), Fraction(1, 3)).value
    assert approx == pytest.approx(float(exact))


def test_distance_bound_domain():
    with pytest.raises(DomainError):
        distance_bound_eq1(0.5, 0.5, 1.0)
    with pytest.raises(DomainError):
        distance_bound_eq1(0.0, 0.5, 0.1)


def test_distance_bound_is_valid_on_instances(k33_parity2, k66_grs, four_cycle_rep3):
    # the analytic bound never exceeds the true relative distance
    for code in (k33_parity2, k66_grs, four_cycle_rep3):
        gamma = code.graph.spectral_gamma().gamma
        da = float(code.code_a.relative_distance)
        db = float(code.code_b.relative_distance)
        bound = distance_bound_eq1(da, db, gamma)
        actual = code.brute_force_min_distance() / code.num_edges
        assert bound.value <= actual + 1e-9


# -- core and orientation fractions -------------------------------------------------


def test_core_fraction_hand_values():
    assert correctable_fraction_core(1.0, 1.0, 0.0) == pytest.approx(1 / 16)
    # at the hypothesis edge the fraction vanishes
    assert correctable_fraction_core(1.0, 1.0, 0.25) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        correctable_fraction_core(1.0, 1.0, 0.3)


def test_core_fraction_exact():
    got = correctable_fraction_core(Fraction(1), Fraction(1), Fraction(1, 8))
    # (1/16 - 1/8 * 1/4) / (7/8) = (1/32) * (8/7) = 1/28
    assert isinstance(got, Fraction)
    assert got == Fraction(1, 28)
    with pytest.raises(DomainError):
        correctable_fraction_core(Fraction(1), Fraction(1), Fraction(1, 2))


def test_orientation_fraction_hand_values():
    assert correctable_fraction_orientation(2 / 3, 2 / 3, 0.0) == pytest.approx(1 / 9)
    assert correctable_fraction_orientation(2 / 3, 2 / 3, 1 / 3) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(DomainError):
        correctable_fraction_orientation(2 / 3, 2 / 3, 0.4)


def test_orientation_fraction_exact():
    got = correctable_fraction_orientation(
        Fraction(2, 3), Fraction(2, 3), Fraction(1, 6))
    # (4/9 - 2/6 * 2/3) / (4 * 5/6) = (2/9) / (10/3) = 1/15
    assert isinstance(got, Fraction)
    assert got == Fraction(1, 15)


BOUND_FORMULAS = {
    "distance": lambda *args: distance_bound_eq1(*args).value,
    "core": correctable_fraction_core,
    "orientation": correctable_fraction_orientation,
}


@pytest.mark.parametrize("formula", sorted(BOUND_FORMULAS))
@pytest.mark.parametrize("args", [
    (Fraction(2, 3), Fraction(2, 3), Fraction(0)),
    (Fraction(2, 3), Fraction(2, 3), Fraction(1, 6)),
    (Fraction(1), Fraction(1), Fraction(1, 8)),
    (Fraction(1), Fraction(4, 9), Fraction(1, 7)),
    (Fraction(1, 2), Fraction(1, 2), Fraction(1, 10)),
])
def test_bound_formulas_agree_on_float_and_fraction(formula, args):
    fn = BOUND_FORMULAS[formula]
    exact = fn(*args)
    approx = fn(*(float(a) for a in args))
    assert isinstance(exact, Fraction)
    assert isinstance(approx, float)
    assert approx == pytest.approx(float(exact), rel=1e-12, abs=1e-15)


@pytest.mark.parametrize("formula", sorted(BOUND_FORMULAS))
def test_bound_formulas_check_fraction_ranges(formula):
    fn = BOUND_FORMULAS[formula]
    for bad in ((Fraction(0), Fraction(1), Fraction(0)),
                (Fraction(1), Fraction(5, 4), Fraction(0)),
                (Fraction(1), Fraction(1), Fraction(-1, 8))):
        with pytest.raises(DomainError):
            fn(*bad)


def test_theta_quantization():
    assert compute_theta(Fraction(1), 6) == Fraction(2, 3)
    assert compute_theta(Fraction(5, 6), 6) == Fraction(2, 3)
    assert compute_theta(Fraction(1), 8) == Fraction(1, 2)
    assert compute_theta(Fraction(1), 12) == Fraction(2, 3)
    # theta*degree/4 is always a positive integer below delta*degree/4
    # (delta*degree/4 must exceed 1 for a theta to exist at all)
    for delta in (Fraction(1), Fraction(5, 6), Fraction(2, 3)):
        for degree in (8, 12, 20) if delta == Fraction(2, 3) else (6, 8, 12, 20):
            theta = compute_theta(delta, degree)
            m = theta * degree / 4
            assert m.denominator == 1 and m >= 1
            assert theta < delta


def test_theta_needs_enough_distance():
    with pytest.raises(NoValidThetaError):
        compute_theta(Fraction(2, 3), 3)
    with pytest.raises(NoValidThetaError):
        compute_theta(Fraction(1), 4)
    with pytest.raises(TypeError):
        compute_theta(0.5, 6)


# -- entropy and the published-table formulas ---------------------------------------


def test_binary_entropy_known_points():
    assert binary_entropy(0.5) == 1.0
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.11) == pytest.approx(0.4999, abs=5e-4)


@given(st.floats(min_value=0.0, max_value=1.0))
@settings(max_examples=80)
def test_entropy_inverse_round_trip(y):
    x = binary_entropy_inverse(y)
    assert 0.0 <= x <= 0.5
    assert binary_entropy(x) == pytest.approx(y, abs=1e-9)


def test_table_fraction_grs_closed_form():
    # MDS locals at overall rate R correct ((1-R)/2)^2 / 4 of the edges
    for rate in (0.1, 0.3, 0.5, 0.7, 0.9):
        expected = ((1 - rate) / 2) ** 2 / 4
        assert table_fraction(rate, "grs") == pytest.approx(expected, rel=1e-12)


def test_table_fraction_binary_consistent_with_entropy():
    for rate in (0.2, 0.5, 0.8):
        delta = binary_entropy_inverse(1 - (1 + rate) / 2)
        assert table_fraction(rate, "binary") == pytest.approx(delta**2 / 4, rel=1e-9)


def test_table_fraction_monotone_decreasing_in_rate():
    for regime in ("binary", "grs"):
        values = [table_fraction(r / 10, regime) for r in range(1, 10)]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_table_fraction_rejects_degenerate_rates():
    with pytest.raises(ValueError):
        table_fraction(0.0, "grs")
    with pytest.raises(ValueError):
        table_fraction(1.0, "binary")
    with pytest.raises(ValueError):
        table_fraction(0.5, "hamming")
