"""Row reduction and matrix products over small fields."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from expanderlp import GF, mat_mul, mat_vec, null_space, rank, rref
from expanderlp.gflinalg import min_weight, span
from expanderlp.harness import resolve_instance
from oracles import (mat_mul_by_tables, mat_vec_by_tables, null_space_by_tables,
                     rref_by_tables)

# prime fields (integer arithmetic) and extension fields (tables) of
# characteristic 2 and odd; GF(256) and GF(27) with an explicit reduction
# polynomial
FIELDS = [GF(2), GF(3), GF(7), GF(251), GF(4), GF(8), GF(16), GF(9),
          GF(256, (1, 1, 0, 1, 1, 0, 0, 0, 1)), GF(27, (1, 2, 0, 1))]


def test_rref_identity_passthrough():
    f = GF(5)
    eye = np.eye(3, dtype=np.int64)
    reduced, pivots = rref(eye, f)
    assert np.array_equal(reduced, eye)
    assert pivots == [0, 1, 2]


def test_rref_known_matrix_mod5():
    f = GF(5)
    # rows are proportional mod 5 (2*[1,2,3] = [2,4,6] == [2,4,1]), so rank 1
    m = np.array([[2, 4, 1], [1, 2, 3]])
    reduced, pivots = rref(m, f)
    assert pivots == [0]
    assert reduced.shape == (1, 3)
    assert np.array_equal(reduced[0], [1, 2, 3])


def test_rank_mod2():
    f = GF(2)
    m = np.array([[1, 1, 0], [0, 1, 1], [1, 0, 1]])  # rows sum to zero
    assert rank(m, f) == 2


def test_null_space_annihilated():
    f = GF(7)
    m = np.array([[1, 2, 3, 4], [0, 1, 6, 2]])
    ns = null_space(m, f)
    assert ns.shape[0] == 2
    for row in ns:
        assert not mat_vec(m, row, f).any()


def test_null_space_of_invertible_is_empty():
    f = GF(3)
    m = np.array([[1, 1], [0, 1]])
    assert null_space(m, f).shape == (0, 2)


def test_mat_vec_prime_field_matches_integers():
    f = GF(11)
    rng = np.random.default_rng(3)
    m = rng.integers(0, 11, size=(4, 6))
    v = rng.integers(0, 11, size=6)
    assert np.array_equal(mat_vec(m, v, f), (m @ v) % 11)


def test_mat_mul_prime_field_matches_integers():
    f = GF(5)
    rng = np.random.default_rng(4)
    a = rng.integers(0, 5, size=(3, 4))
    b = rng.integers(0, 5, size=(4, 2))
    assert np.array_equal(mat_mul(a, b, f), (a @ b) % 5)


def test_mat_mul_extension_field_associativity():
    f = GF(4)
    rng = np.random.default_rng(5)
    a = rng.integers(0, 4, size=(3, 3))
    b = rng.integers(0, 4, size=(3, 3))
    c = rng.integers(0, 4, size=(3, 3))
    left = mat_mul(mat_mul(a, b, f), c, f)
    right = mat_mul(a, mat_mul(b, c, f), f)
    assert np.array_equal(left, right)


def test_shape_mismatch_raises():
    f = GF(2)
    with pytest.raises(ValueError):
        mat_vec(np.zeros((2, 3), dtype=int), np.zeros(4, dtype=int), f)
    with pytest.raises(ValueError):
        mat_mul(np.zeros((2, 3), dtype=int), np.zeros((2, 3), dtype=int), f)


def test_out_of_range_entries_rejected():
    f = GF(3)
    with pytest.raises(ValueError):
        rank(np.array([[0, 5]]), f)


@settings(max_examples=60)
@given(
    st.sampled_from([2, 3, 4, 5]),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=2**30),
)
def test_rank_plus_nullity(q, rows, cols, seed):
    f = GF(q)
    m = np.random.default_rng(seed).integers(0, q, size=(rows, cols))
    r = rank(m, f)
    ns = null_space(m, f)
    assert r + ns.shape[0] == cols
    for row in ns:
        assert not mat_vec(m, row, f).any()
    # row i is 1 at the i-th free column and 0 at the others, which with the
    # products above fixes every entry
    _, pivots = rref(m, f)
    free = [c for c in range(cols) if c not in pivots]
    assert ns.dtype == np.int64
    assert np.array_equal(ns[:, free], np.eye(len(free), dtype=np.int64))


@settings(max_examples=60)
@given(st.sampled_from([2, 3, 7]), st.integers(min_value=0, max_value=2**30))
def test_rref_is_idempotent(q, seed):
    f = GF(q)
    m = np.random.default_rng(seed).integers(0, q, size=(4, 5))
    reduced, pivots = rref(m, f)
    again, pivots2 = rref(reduced, f)
    assert np.array_equal(reduced, again)
    assert pivots == pivots2
    assert rank(m, f) == len(pivots)


@pytest.mark.parametrize("q", [3, 4])
def test_span_order_puts_first_row_fastest(q):
    # ml_decode returns the first nearest codeword, so the order is part of
    # the contract: coefficients (l0, l1) sit at index l0 + q*l1
    f = GF(q)
    rows = np.array([[1, 0, 2], [0, 1, 1]])
    words = span(rows, f)
    assert words.shape == (q * q, 3)
    for index, word in enumerate(words):
        l0, l1 = index % q, index // q
        expected = f.add_table[f.mul_table[l0, rows[0]], f.mul_table[l1, rows[1]]]
        assert word.tolist() == expected.tolist()


def test_min_weight_skips_the_zero_word():
    assert min_weight(np.array([[0, 0, 0], [1, 2, 0], [0, 0, 3]])) == 1
    with pytest.raises(ValueError):
        min_weight(np.zeros((2, 3), dtype=np.int64))


def assert_same_array(got, want):
    assert got.dtype == want.dtype == np.int64
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_reduction_matches_tables(m, f):
    reduced, pivots = rref(m, f)
    want_reduced, want_pivots = rref_by_tables(m, f)
    assert_same_array(reduced, want_reduced)
    assert pivots == want_pivots
    assert_same_array(null_space(m, f), null_space_by_tables(m, f))


@st.composite
def field_matrices(draw):
    """A field and a matrix over it: possibly empty, all-zero, tall or wide,
    and sometimes with a duplicated row."""
    f = draw(st.sampled_from(FIELDS))
    rows = draw(st.integers(min_value=0, max_value=9))
    cols = draw(st.integers(min_value=0, max_value=9))
    density = draw(st.sampled_from([0.0, 0.3, 1.0]))
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**30)))
    m = rng.integers(1, f.q, size=(rows, cols)) * (rng.random((rows, cols)) < density)
    if rows > 1 and draw(st.booleans()):
        m[rng.integers(rows)] = m[rng.integers(rows)]
    return f, m, rng


@settings(max_examples=300)
@given(field_matrices())
@example((GF(7), np.zeros((0, 4), dtype=np.int64), None))
@example((GF(4), np.zeros((3, 0), dtype=np.int64), None))
@example((GF(9), np.zeros((4, 6), dtype=np.int64), None))
@example((GF(3), np.array([[1, 2, 0, 1], [0, 1, 1, 2], [1, 2, 0, 1]]), None))
def test_reduction_matches_the_table_reference(case):
    f, m, _ = case
    assert_reduction_matches_tables(m, f)


@settings(max_examples=300)
@given(field_matrices(), st.integers(min_value=0, max_value=4))
def test_products_match_the_table_reference(case, width):
    f, m, rng = case
    b = rng.integers(0, f.q, size=(m.shape[1], width))
    v = rng.integers(0, f.q, size=m.shape[1])
    assert_same_array(mat_mul(m, b, f), mat_mul_by_tables(m, b, f))
    assert_same_array(mat_vec(m, v, f), mat_vec_by_tables(m, v, f))


@settings(max_examples=200)
@given(field_matrices(), st.integers(min_value=0, max_value=4),
       st.integers(min_value=1, max_value=3))
def test_stacked_products_match_each_product(case, width, depth):
    # mat_mul broadcasts stacks as np.matmul does: a stack against a stack
    # of the same depth, and against one matrix
    f, m, rng = case
    a = rng.integers(0, f.q, size=(depth,) + m.shape) * (m != 0)
    b = rng.integers(0, f.q, size=(depth, m.shape[1], width))
    stacked, against_one = mat_mul(a, b, f), mat_mul(a, b[0], f)
    for i in range(depth):
        assert_same_array(stacked[i], mat_mul_by_tables(a[i], b[i], f))
        assert_same_array(against_one[i], mat_mul_by_tables(a[i], b[0], f))


@pytest.mark.parametrize("spec", [
    ("random:40:6:1", "repetition:2:6", "repetition:2:6"),
    ("random:12:6:1", "parity:2:6", "parity:2:6"),
    ("random:8:4:3", "grs:4:4:2", "grs:4:4:2"),
])
def test_instance_parity_checks_match_the_table_reference(spec):
    code = resolve_instance(*spec)
    assert_reduction_matches_tables(code.parity_check_matrix(), code.field)
