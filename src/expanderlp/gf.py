"""Finite-field arithmetic for small prime-power orders, driven by lookup tables.

Elements of GF(q), q = p^m, are encoded as integers in [0, q).  For prime
fields the integer is the residue mod p.  For extension fields the base-p
digits of the integer are the coefficients of a polynomial over GF(p), least
significant digit first, and multiplication reduces modulo a monic
irreducible polynomial of degree m.  Fields of order 4, 8, 9 and 16 carry
built-in reduction polynomials; any other extension order up to 256 needs an
explicit polynomial.

All binary operations are table lookups, so words can be manipulated as
numpy integer arrays via ``field.add_table`` / ``field.mul_table`` fancy
indexing; the tables are the whole arithmetic API.
"""

from __future__ import annotations

from typing import Iterator, Sequence

import numpy as np

MAX_ORDER = 256

# Monic irreducible polynomials, ascending coefficients (constant term first).
_BUILTIN_POLYS: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),        # x^2 + x + 1 over GF(2)
    8: (1, 1, 0, 1),     # x^3 + x + 1 over GF(2)
    9: (1, 0, 1),        # x^2 + 1 over GF(3)
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1 over GF(2)
}


def _factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p^m and p prime, or raise ValueError."""
    if q < 2:
        raise ValueError(f"field order must be at least 2, got {q}")
    for p in range(2, q + 1):
        if p * p > q and p != q:
            break
        if q % p:
            continue
        m = 0
        rest = q
        while rest % p == 0:
            rest //= p
            m += 1
        if rest != 1:
            raise ValueError(f"{q} is not a prime power")
        return p, m
    # q itself is prime
    return q, 1


def _poly_trim(coeffs: Sequence[int]) -> tuple[int, ...]:
    c = list(coeffs)
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a: Sequence[int], b: Sequence[int], p: int) -> tuple[int, ...]:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a: Sequence[int], den: Sequence[int], p: int) -> tuple[int, ...]:
    """Remainder of a modulo den over GF(p); den must be monic."""
    rem = list(a)
    d = len(den) - 1
    while len(rem) - 1 >= d and any(rem):
        lead = rem[-1]
        if lead:
            shift = len(rem) - 1 - d
            for t, coef in enumerate(den):
                rem[shift + t] = (rem[shift + t] - lead * coef) % p
        while rem and rem[-1] == 0:
            rem.pop()
    return _poly_trim(rem)


def _monic_polys(degree: int, p: int) -> Iterator[tuple[int, ...]]:
    """All monic polynomials of the given degree over GF(p)."""
    total = p ** degree
    for idx in range(total):
        coeffs = []
        rest = idx
        for _ in range(degree):
            coeffs.append(rest % p)
            rest //= p
        yield tuple(coeffs) + (1,)


def _is_irreducible(poly: Sequence[int], p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..m//2."""
    m = len(poly) - 1
    for d in range(1, m // 2 + 1):
        for g in _monic_polys(d, p):
            if not _poly_mod(poly, g, p):
                return False
    return True


class GF:
    """The finite field of order q, with all arithmetic precomputed.

    Parameters
    ----------
    q:
        Field order; a prime power not exceeding 256.
    reduction_poly:
        For extension fields, the monic irreducible polynomial used for
        reduction, as ascending coefficients over GF(p) of length m + 1.
        Defaults are built in for q in {4, 8, 9, 16}; prime fields must not
        pass one.

    Attributes
    ----------
    add_table, sub_table, mul_table:
        (q, q) int64 arrays mapping index pairs to result indices.
    neg_table, inv_table:
        (q,) int64 arrays; ``inv_table[0]`` is 0 and must never be used.
    """

    def __init__(self, q: int, reduction_poly: Sequence[int] | None = None):
        p, m = _factor_prime_power(q)
        if q > MAX_ORDER:
            raise ValueError(f"field order {q} exceeds the supported cap {MAX_ORDER}")
        if m == 1:
            if reduction_poly is not None:
                raise ValueError("prime fields take no reduction polynomial")
            poly: tuple[int, ...] = ()
        else:
            if reduction_poly is None:
                if q not in _BUILTIN_POLYS:
                    raise ValueError(
                        f"no built-in reduction polynomial for GF({q}); pass one")
                poly = _BUILTIN_POLYS[q]
            else:
                poly = tuple(int(c) % p for c in reduction_poly)
            if len(poly) != m + 1 or poly[-1] != 1:
                raise ValueError(
                    f"reduction polynomial must be monic of degree {m} over GF({p})")
            if not _is_irreducible(poly, p):
                raise ValueError(f"reduction polynomial {poly} is reducible over GF({p})")
        self.q = q
        self.p = p
        self.m = m
        self.reduction_poly = poly
        self._build_tables()

    # -- table construction -------------------------------------------------

    def _digits(self, index: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.m):
            out.append(index % self.p)
            index //= self.p
        return tuple(out)

    def _from_digits(self, digits: Sequence[int]) -> int:
        idx = 0
        for d in reversed(tuple(digits)[: self.m] + (0,) * max(0, self.m - len(digits))):
            idx = idx * self.p + d
        return idx

    def _build_tables(self) -> None:
        q, p, m = self.q, self.p, self.m
        add = np.zeros((q, q), dtype=np.int64)
        mul = np.zeros((q, q), dtype=np.int64)
        if m == 1:
            idx = np.arange(q)
            add[:, :] = (idx[:, None] + idx[None, :]) % p
            mul[:, :] = (idx[:, None] * idx[None, :]) % p
        else:
            digit_cache = [self._digits(i) for i in range(q)]
            for a in range(q):
                da = digit_cache[a]
                for b in range(a, q):
                    db = digit_cache[b]
                    s = tuple((x + y) % p for x, y in zip(da, db))
                    add[a, b] = add[b, a] = self._from_digits(s)
                    prod = _poly_mod(_poly_mul(da, db, p), self.reduction_poly, p)
                    mul[a, b] = mul[b, a] = self._from_digits(prod)
        neg = np.zeros(q, dtype=np.int64)
        for a in range(q):
            # the unique b with a + b = 0
            neg[a] = int(np.nonzero(add[a] == 0)[0][0])
        sub = add[:, neg]
        inv = np.zeros(q, dtype=np.int64)
        for a in range(1, q):
            hits = np.nonzero(mul[a] == 1)[0]
            if len(hits) != 1:
                raise ValueError(f"GF({q}) table construction failed at element {a}")
            inv[a] = int(hits[0])
        self.add_table = add
        self.sub_table = sub
        self.mul_table = mul
        self.neg_table = neg
        self.inv_table = inv

    # -- identity ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GF):
            return NotImplemented
        return (self.p, self.m, self.reduction_poly) == (other.p, other.m, other.reduction_poly)

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.reduction_poly))

    def __repr__(self) -> str:
        if self.m == 1:
            return f"GF({self.q})"
        return f"GF({self.q}, poly={self.reduction_poly})"
