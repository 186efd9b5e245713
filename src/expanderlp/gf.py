"""Finite-field arithmetic for small prime-power orders, driven by lookup tables.

Elements of GF(q), q = p^m, are encoded as integers in [0, q).  For prime
fields the integer is the residue mod p.  For extension fields the base-p
digits of the integer are the coefficients of a polynomial over GF(p), least
significant digit first, and multiplication reduces modulo a monic
irreducible polynomial of degree m.  Fields of order 4, 8, 9 and 16 carry
built-in reduction polynomials; any other extension order up to 256 needs an
explicit polynomial.

Every binary operation has a lookup table, so words can be manipulated as
numpy integer arrays via ``field.add_table`` / ``field.mul_table`` fancy
indexing.  On a prime field the tables agree with integer arithmetic mod p
on the indices, which ``gflinalg`` uses instead.  The tables are built at
once from the elements' digit vectors: addition adds digits mod p, and a*b
sums b_j times x^j*a, each x^j*a one shift-and-reduce step from the last.
No polynomial is ever factored: a reducible reduction polynomial shows up
as a nonzero element without exactly one inverse, and is rejected then.

check_word is the package's one validator of integer index input: symbols,
generator and check matrices, graph edges, vertex and edge ids, and
orientation caps all pass through it.  It lives here, in the lowest module,
so every other module can import it.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

MAX_ORDER = 256

# Monic irreducible polynomials, ascending coefficients (constant term first).
_BUILTIN_POLYS: dict[int, tuple[int, ...]] = {
    4: (1, 1, 1),        # x^2 + x + 1 over GF(2)
    8: (1, 1, 0, 1),     # x^3 + x + 1 over GF(2)
    9: (1, 0, 1),        # x^2 + 1 over GF(3)
    16: (1, 1, 0, 0, 1),  # x^4 + x + 1 over GF(2)
}


def check_word(word, q: int, length: int | tuple | None = None) -> np.ndarray:
    """The word as an int64 array; ValueError unless it holds integers in
    [0, q) in the shape asked for.  An int length asks for a 1-d word of that
    length and None for a 1-d word of any length; a tuple is the shape, with
    None for an axis of any size.  Bools, integer-valued floats and object
    arrays of integers pass; nothing is truncated, and no text is parsed."""
    raw = np.asarray(word)
    if raw.dtype.kind in "US":    # the int64 cast would parse the text
        raise ValueError("symbols must be integers, not text")
    if raw.dtype.kind in "fc" and not np.isfinite(raw).all():
        raise ValueError("symbols must be integers")
    # the real part, so a complex word casts without a warning; the compare
    # below rejects a nonzero imaginary part
    w = np.asarray(raw.real, dtype=np.int64)
    if raw.dtype.kind in "fcO" and not np.array_equal(w, raw):
        raise ValueError("symbols must be integers")
    shape = length if isinstance(length, tuple) else (length,)
    if w.ndim != len(shape) or any(s not in (None, k) for s, k in zip(shape, w.shape)):
        raise ValueError(f"expected shape {shape}, got shape {w.shape}")
    if w.size and (w.min() < 0 or w.max() >= q):
        bad = w.min() if w.min() < 0 else w.max()
        raise ValueError(f"symbols must be integers in [0, {q}), got {bad}")
    return w


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
        self.q = q
        self.p = p
        self.m = m
        self.reduction_poly = poly
        self._build_tables()

    # -- table construction -------------------------------------------------

    def _build_tables(self) -> None:
        """Every table from the elements' base-p digit vectors."""
        q, p, m = self.q, self.p, self.m
        weights = p ** np.arange(m)
        digits = np.arange(q)[:, None] // weights % p
        add = (digits[:, None] + digits) % p @ weights
        # a * b = sum over j of b_j * (x^j * a); x_j holds the digits of x^j * a
        x_j = digits
        product = x_j[:, None] * digits[:, 0, None]
        for j in range(1, m):
            # x * (x^(j-1) * a): shift the digits up one place, then cancel
            # the lead digit with that multiple of the monic reduction polynomial
            lead = x_j[:, -1:]
            shifted = np.concatenate((0 * lead, x_j[:, :-1]), axis=1)
            x_j = (shifted - lead * self.reduction_poly[:m]) % p
            product += x_j[:, None] * digits[:, j, None]
        mul = product % p @ weights
        # a unit has exactly one inverse and a zero divisor none, and only a
        # reducible polynomial leaves zero divisors; row 0 holds no 1, so
        # inv_table[0] comes out 0
        is_one = mul == 1
        if np.count_nonzero(is_one) != q - 1:
            raise ValueError(
                f"reduction polynomial {self.reduction_poly} is reducible over GF({p})")
        neg = np.argmax(add == 0, axis=1)
        self.add_table = add
        self.sub_table = add[:, neg]
        self.mul_table = mul
        self.neg_table = neg
        self.inv_table = np.argmax(is_one, axis=1)

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
