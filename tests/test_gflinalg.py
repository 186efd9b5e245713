"""Row reduction and matrix products over small fields."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from expanderlp import GF, mat_mul, mat_vec, null_space, rank, rref
from expanderlp.gflinalg import min_weight, span


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
