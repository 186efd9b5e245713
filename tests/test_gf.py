"""Field table construction checked against the axioms, exhaustively."""

import itertools
import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from expanderlp import GF

ORDERS = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16]


@pytest.mark.parametrize("q", ORDERS)
def test_add_is_abelian_group(q):
    f = GF(q)
    t = f.add_table
    for a in range(q):
        assert t[a, 0] == a
        assert t[0, a] == a
        assert t[a, f.neg_table[a]] == 0
        for b in range(q):
            assert t[a, b] == t[b, a]
            for c in range(q):
                assert t[t[a, b], c] == t[a, t[b, c]]


@pytest.mark.parametrize("q", ORDERS)
def test_mul_is_abelian_group_on_nonzero(q):
    f = GF(q)
    t = f.mul_table
    for a in range(q):
        assert t[a, 1] == a
        assert t[a, 0] == 0
        if a != 0:
            assert t[a, f.inv_table[a]] == 1
        for b in range(q):
            assert t[a, b] == t[b, a]
            for c in range(q):
                assert t[t[a, b], c] == t[a, t[b, c]]


@pytest.mark.parametrize("q", ORDERS)
def test_distributivity(q):
    f = GF(q)
    add, mul = f.add_table, f.mul_table
    for a in range(q):
        for b in range(q):
            for c in range(q):
                assert mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]


@pytest.mark.parametrize("q", ORDERS)
def test_sub_matches_add_of_negation(q):
    f = GF(q)
    for a in range(q):
        for b in range(q):
            assert f.sub_table[a, b] == f.add_table[a, f.neg_table[b]]


@pytest.mark.parametrize("q", ORDERS)
def test_tables_are_latin_squares(q):
    f = GF(q)
    everything = set(range(q))
    for a in range(q):
        assert set(f.add_table[a].tolist()) == everything
    for a in range(1, q):
        assert set(f.mul_table[a, 1:].tolist()) == everything - {0}


def test_prime_field_is_integers_mod_p():
    f = GF(13)
    for a in range(13):
        for b in range(13):
            assert f.add_table[a, b] == (a + b) % 13
            assert f.mul_table[a, b] == (a * b) % 13


def test_gf4_frobenius():
    # in characteristic 2, squaring is additive
    f = GF(4)
    sq = [f.mul_table[a, a] for a in range(4)]
    for a in range(4):
        for b in range(4):
            assert sq[f.add_table[a, b]] == f.add_table[sq[a], sq[b]]


@pytest.mark.parametrize("q", [6, 10, 12, 15, 1, 0])
def test_non_prime_power_orders_rejected(q):
    with pytest.raises(ValueError):
        GF(q)


def test_reduction_poly_must_be_irreducible():
    # x^2 + 1 = (x+1)^2 over GF(2)
    with pytest.raises(ValueError):
        GF(4, reduction_poly=[1, 0, 1])


def test_explicit_reduction_poly_builds_a_field():
    # x^3 + x + 1 is irreducible over GF(2)
    f = GF(8, reduction_poly=[1, 1, 0, 1])
    assert f.mul_table.shape == (8, 8)
    for a in range(1, 8):
        assert f.mul_table[a, f.inv_table[a]] == 1


def test_prime_field_rejects_reduction_poly():
    with pytest.raises(ValueError):
        GF(5, reduction_poly=[1, 1])


def test_equal_orders_compare_equal():
    assert GF(9) == GF(9)
    assert GF(9) != GF(8)


@given(st.sampled_from(ORDERS), st.data())
def test_division_inverts_multiplication(q, data):
    f = GF(q)
    a = data.draw(st.integers(min_value=0, max_value=q - 1))
    b = data.draw(st.integers(min_value=1, max_value=q - 1))
    prod = f.mul_table[a, b]
    assert f.mul_table[prod, f.inv_table[b]] == a


@given(st.sampled_from([3, 4, 5, 8, 9]), st.data())
def test_table_lookup_broadcasts(q, data):
    f = GF(q)
    n = data.draw(st.integers(min_value=1, max_value=12))
    xs = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)))
    ys = np.array(data.draw(st.lists(st.integers(0, q - 1), min_size=n, max_size=n)))
    out = f.add_table[xs, ys]
    assert out.shape == (n,)
    for i in range(n):
        assert out[i] == f.add_table[xs[i], ys[i]]


# -- tables pinned to recorded values, and the irreducibility test ---------------------

GOLDEN_TABLES = json.loads((Path(__file__).parent / "golden" / "gf_tables.json").read_text())


@pytest.mark.parametrize("case", GOLDEN_TABLES,
                         ids=[f"GF{c['q']}-{''.join(map(str, c['poly'] or ['builtin']))}"
                              for c in GOLDEN_TABLES])
def test_tables_match_golden(case):
    f = GF(case["q"], case["poly"])
    assert list(f.reduction_poly) == case["reduction_poly"]
    for name in ("add_table", "mul_table"):
        table = getattr(f, name)
        assert table.dtype == np.int64
        assert table.tobytes() == np.array(case[name], dtype=np.int64).tobytes()


@pytest.mark.parametrize("p, degree", [(2, 2), (2, 3), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_accepts_exactly_the_polynomials_without_a_root(p, degree):
    # below degree 4 a polynomial is reducible exactly when it has a linear factor
    accepted = 0
    for low in itertools.product(range(p), repeat=degree):
        poly = list(low) + [1]
        if any(sum(c * x ** k for k, c in enumerate(poly)) % p == 0 for x in range(p)):
            with pytest.raises(ValueError, match="is reducible over GF"):
                GF(p ** degree, poly)
        else:
            f = GF(p ** degree, poly)
            assert f.mul_table[np.arange(1, f.q), f.inv_table[1:]].tolist() == [1] * (f.q - 1)
            accepted += 1
    # the number of monic irreducible polynomials of degree 2 and 3 over GF(p)
    assert accepted == {2: (p * p - p) // 2, 3: (p ** 3 - p) // 3}[degree]
