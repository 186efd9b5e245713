"""Local linear codes: the length-Delta building blocks placed on every vertex.

A code is specified by a full-rank generator matrix over GF(q), which it
copies.  Its generator, parity check and codeword table are read-only, so
one code can serve both sides of an expander code.  Words are numpy int64
arrays of element indices, and generators, messages, words and GRS points
are validated by gf.check_word; codeword enumeration, exact minimum
distance, and membership tests are all exhaustive and exact, guarded by an
enumeration cap.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import gflinalg
from .errors import EnumerationCapError
from .gf import GF, check_word

DEFAULT_ENUMERATION_CAP = 2 ** 20


class LocalCode:
    """A [length, dimension] linear code over GF(q) given by its generator rows."""

    def __init__(self, field: GF, generator, enumeration_cap: int = DEFAULT_ENUMERATION_CAP):
        # a copy: the caller's array stays its own, and the code's is frozen
        G = check_word(generator, field.q, (None, None)).copy()
        k, length = G.shape
        if k < 1 or length < 1:
            raise ValueError("generator must have at least one row and one column")
        if k > length:
            raise ValueError(f"dimension {k} exceeds length {length}")
        H = gflinalg.null_space(G, field)
        if length - len(H) != k:
            raise ValueError("generator rows are linearly dependent")
        G.flags.writeable = H.flags.writeable = False
        self.field = field
        self.generator = G
        self.length = length
        self.dimension = k
        self.enumeration_cap = enumeration_cap
        self.parity_check = H
        self._codewords: np.ndarray | None = None
        self._min_distance: int | None = None

    # -- basic quantities ----------------------------------------------------

    @property
    def num_codewords(self) -> int:
        return self.field.q ** self.dimension

    @property
    def rate(self) -> Fraction:
        return Fraction(self.dimension, self.length)

    def encode(self, message) -> np.ndarray:
        msg = check_word(message, self.field.q, self.dimension)
        return gflinalg.mat_vec(self.generator.T, msg, self.field)

    def codewords(self) -> np.ndarray:
        """All q^k codewords as a read-only (q^k, length) array.  Cached after
        first call."""
        if self._codewords is None:
            if self.num_codewords > self.enumeration_cap:
                raise EnumerationCapError(
                    f"{self.num_codewords} codewords exceed cap {self.enumeration_cap}")
            words = gflinalg.span(self.generator, self.field)
            words.flags.writeable = False
            self._codewords = words
        return self._codewords

    def min_distance(self) -> tuple[int, Fraction]:
        """Exact minimum distance d and relative distance d/length.

        By linearity this is the minimum Hamming weight over the nonzero
        codewords, found by full enumeration.
        """
        if self._min_distance is None:
            self._min_distance = gflinalg.min_weight(self.codewords())
        return self._min_distance, Fraction(self._min_distance, self.length)

    @property
    def relative_distance(self) -> Fraction:
        return self.min_distance()[1]

    def contains(self, word) -> bool:
        w = check_word(word, self.field.q, self.length)
        return not gflinalg.mat_vec(self.parity_check, w, self.field).any()

    # -- text format ----------------------------------------------------------

    def to_text(self) -> str:
        """Header ``q k length`` then one space-separated generator row per line."""
        lines = [f"{self.field.q} {self.dimension} {self.length}"]
        for row in self.generator:
            lines.append(" ".join(str(int(x)) for x in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_text(cls, text: str, enumeration_cap: int = DEFAULT_ENUMERATION_CAP) -> "LocalCode":
        rows = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
        if not rows:
            raise ValueError("empty code file")
        header = rows[0].split()
        if len(header) != 3:
            raise ValueError(f"header must be 'q k length', got {rows[0]!r}")
        q, k, length = (int(x) for x in header)
        field = GF(q)
        if len(rows) - 1 != k:
            raise ValueError(f"expected {k} generator rows, found {len(rows) - 1}")
        G = [[int(x) for x in ln.split()] for ln in rows[1:]]
        widths = {len(r) for r in G}
        if widths != {length}:
            raise ValueError(f"every generator row must have {length} entries")
        return cls(field, G, enumeration_cap=enumeration_cap)

    def __repr__(self) -> str:
        return f"LocalCode([{self.length},{self.dimension}] over GF({self.field.q}))"


# -- standard constructions ---------------------------------------------------

def repetition(field: GF, length: int) -> LocalCode:
    """The [length, 1] repetition code; distance = length."""
    if length < 1:
        raise ValueError("length must be positive")
    return LocalCode(field, np.ones((1, length), dtype=np.int64))


def single_parity_check(field: GF, length: int) -> LocalCode:
    """The [length, length-1] code of words whose symbols sum to zero."""
    if length < 2:
        raise ValueError("length must be at least 2")
    G = np.zeros((length - 1, length), dtype=np.int64)
    minus_one = int(field.neg_table[1])
    for i in range(length - 1):
        G[i, i] = 1
        G[i, length - 1] = minus_one
    return LocalCode(field, G)


def generalized_reed_solomon(
    field: GF,
    length: int,
    dimension: int,
    evaluation_points=None,
    column_multipliers=None,
) -> LocalCode:
    """A GRS code: evaluations of degree-<k polynomials at distinct points.

    Defaults use the first ``length`` field elements as evaluation points and
    all-ones column multipliers.  Requires q >= length; the result is MDS
    with minimum distance length - dimension + 1.
    """
    if not 1 <= dimension <= length:
        raise ValueError(f"need 1 <= dimension <= length, got k={dimension}, n={length}")
    if field.q < length:
        raise ValueError(f"GRS needs q >= length; GF({field.q}) is too small for length {length}")
    if evaluation_points is None:
        points = np.arange(length, dtype=np.int64)
    else:
        points = check_word(evaluation_points, field.q, length)
        if len(set(points.tolist())) != length:
            raise ValueError("evaluation points must be distinct")
    if column_multipliers is None:
        mults = np.ones(length, dtype=np.int64)
    else:
        mults = check_word(column_multipliers, field.q, length)
        if not mults.all():
            raise ValueError("column multipliers must be nonzero")
    G = np.zeros((dimension, length), dtype=np.int64)
    row = mults.copy()   # degree-0 row: multipliers times x^0
    G[0] = row
    for i in range(1, dimension):
        row = field.mul_table[row, points]
        G[i] = row
    return LocalCode(field, G)
