"""Local code constructions: dimensions, distances, serialization."""

from fractions import Fraction

import numpy as np
import pytest

from expanderlp import (
    GF,
    EnumerationCapError,
    LocalCode,
    generalized_reed_solomon,
    repetition,
    single_parity_check,
)


def brute_min_distance(code):
    words = code.codewords()
    weights = np.count_nonzero(words, axis=1)
    return int(weights[weights > 0].min())


@pytest.mark.parametrize("q,length", [(2, 2), (2, 6), (3, 2), (3, 4), (7, 6)])
def test_repetition_parameters(q, length):
    code = repetition(GF(q), length)
    assert code.dimension == 1
    assert code.length == length
    assert code.num_codewords == q
    d, rel = code.min_distance()
    assert d == length
    assert rel == Fraction(1)
    assert code.rate == Fraction(1, length)


@pytest.mark.parametrize("q,length", [(2, 3), (2, 6), (3, 3), (5, 4)])
def test_single_parity_check_parameters(q, length):
    code = single_parity_check(GF(q), length)
    assert code.dimension == length - 1
    d, rel = code.min_distance()
    assert d == 2
    assert rel == Fraction(2, length)
    # every codeword sums to zero
    f = GF(q)
    for w in code.codewords():
        total = 0
        for s in w:
            total = f.add_table[total, s]
        assert total == 0


@pytest.mark.parametrize("q,n,k", [(7, 6, 2), (7, 6, 3), (5, 5, 2), (8, 7, 3), (11, 6, 4)])
def test_grs_is_mds(q, n, k):
    code = generalized_reed_solomon(GF(q), n, k)
    assert code.dimension == k
    d, rel = code.min_distance()
    assert d == n - k + 1
    assert rel == Fraction(n - k + 1, n)
    if code.num_codewords <= 7**3:
        assert brute_min_distance(code) == d


def test_grs_custom_points_and_multipliers():
    f = GF(7)
    code = generalized_reed_solomon(
        GF(7), 4, 2, evaluation_points=[1, 2, 3, 4], column_multipliers=[1, 1, 2, 3]
    )
    assert code.min_distance()[0] == 3
    # rows of the generator are (v_j * x_j^i)
    assert np.array_equal(code.generator[0], [1, 1, 2, 3])
    expected = [f.mul_table[m, x] for m, x in zip([1, 1, 2, 3], [1, 2, 3, 4])]
    assert list(code.generator[1]) == expected


def test_grs_needs_big_enough_field():
    with pytest.raises(ValueError):
        generalized_reed_solomon(GF(5), 6, 2)


def test_grs_rejects_repeated_points():
    with pytest.raises(ValueError):
        generalized_reed_solomon(GF(7), 3, 2, evaluation_points=[1, 1, 2])


def test_grs_rejects_zero_multiplier():
    with pytest.raises(ValueError):
        generalized_reed_solomon(GF(7), 3, 2, column_multipliers=[1, 0, 1])


def test_encode_and_contains_agree():
    code = generalized_reed_solomon(GF(7), 6, 2)
    rng = np.random.default_rng(11)
    for _ in range(25):
        msg = rng.integers(0, 7, size=2)
        w = code.encode(msg)
        assert code.contains(w)
        corrupted = w.copy()
        corrupted[0] = (corrupted[0] + 1) % 7
        assert not code.contains(corrupted)


@pytest.mark.parametrize("q", [3, 4])
def test_full_space_contains_every_word(q):
    # the identity generator spans GF(q)^3, so its parity check has no rows
    code = LocalCode(GF(q), np.eye(3, dtype=int))
    assert code.parity_check.shape == (0, 3)
    words = np.stack(np.meshgrid(*[np.arange(q)] * 3, indexing="ij"), axis=-1).reshape(-1, 3)
    assert all(code.contains(w) for w in words)


@pytest.mark.parametrize("q", [7, 4, 9])
@pytest.mark.parametrize("bad", [[-1, 0], [0, 9], [2, 1, 0]],
                         ids=["negative", "at-least-q", "wrong-length"])
def test_encode_rejects_a_bad_message_on_every_field(q, bad):
    # a prime field's integer product would reduce 9 to 2 mod 7; it must not
    code = generalized_reed_solomon(GF(q), 4, 2)
    with pytest.raises(ValueError):
        code.encode(bad)


def test_codewords_closed_under_addition():
    code = single_parity_check(GF(4), 3)
    f = GF(4)
    words = {tuple(w) for w in code.codewords()}
    for a in code.codewords():
        for b in code.codewords():
            assert tuple(f.add_table[a, b]) in words


def test_dependent_generator_rows_rejected():
    with pytest.raises(ValueError):
        LocalCode(GF(2), np.array([[1, 0, 1], [1, 0, 1]]))


def test_enumeration_cap_enforced():
    code = LocalCode(GF(2), np.eye(5, dtype=np.int64), enumeration_cap=16)
    with pytest.raises(EnumerationCapError):
        code.codewords()


def test_text_round_trip():
    code = generalized_reed_solomon(GF(7), 6, 2)
    text = code.to_text()
    back = LocalCode.from_text(text)
    assert back.field == code.field
    assert np.array_equal(back.generator, code.generator)
    assert back.min_distance() == code.min_distance()


def test_from_text_format_matches_header_rows():
    text = "3 1 2\n1 1\n"
    code = LocalCode.from_text(text)
    assert code.field.q == 3
    assert code.dimension == 1
    assert code.length == 2
    assert sorted(tuple(w) for w in code.codewords()) == [(0, 0), (1, 1), (2, 2)]


def test_from_text_rejects_bad_header():
    with pytest.raises(ValueError):
        LocalCode.from_text("3 1\n1 1\n")
    with pytest.raises(ValueError):
        LocalCode.from_text("3 2 2\n1 1\n")


def test_min_distance_cached_value_stable():
    code = repetition(GF(3), 4)
    assert code.min_distance() == code.min_distance() == (4, Fraction(1))
    assert code.relative_distance == Fraction(1)
