"""Brute-force nearest-codeword decoding, and exhaustive LP-vs-oracle scans.

ml_decode enumerates every global codeword and returns a closest one; it is
the ground truth the LP decoder is measured against.  When the LP relaxation
has an integral optimum its codeword must sit at exactly the oracle's
distance (the LP objective is an affine function of Hamming distance on
integral points), so the scan walks the whole received-word space and
tabulates how often the relaxation is integral, fractional, or tied, and
records any word where an integral answer is not distance-optimal — there
should never be one.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EnumerationCapError
from .expander_code import ExpanderCode, check_word
from .lp_decoder import DEFAULT_INT_TOL, decode, map_with_code
from .lp_core import DEFAULT_FEAS_TOL, DEFAULT_OPT_TOL

DEFAULT_SCAN_CAP = 2 ** 16


@dataclass
class OracleResult:
    """A nearest codeword, with a flag when it is not the only one."""

    nearest: np.ndarray
    distance: int
    tie: bool
    num_codewords_scanned: int


def ml_decode(code: ExpanderCode, y, cap: int | None = None) -> OracleResult:
    """Exact nearest-codeword decoding by scanning the full codeword list.

    Returns the first minimizer in enumeration order; `tie` reports whether
    any other codeword achieves the same distance.
    """
    yw = check_word(y, code.field.q, code.num_edges)
    words = (code.enumerate_codewords() if cap is None
             else code.enumerate_codewords(cap))
    distances = np.count_nonzero(words != yw[None, :], axis=1)
    best = int(distances.argmin())
    d = int(distances[best])
    tie = int((distances == d).sum()) >= 2
    return OracleResult(nearest=words[best].copy(), distance=d, tie=tie,
                        num_codewords_scanned=int(words.shape[0]))


@dataclass
class ScanReport:
    """Tallies from an exhaustive received-word scan.

    A mismatch entry records a word where the LP came back integral at a
    distance different from the oracle's; an empty list is the expected —
    and, if the decoder is sound, the only possible — outcome.
    """

    total_words: int
    integral_count: int
    fractional_count: int
    tie_count: int
    mismatches: list[dict] = field(default_factory=list)

    @property
    def all_integral_agree(self) -> bool:
        return not self.mismatches

    def merge(self, other: "ScanReport") -> "ScanReport":
        return ScanReport(
            total_words=self.total_words + other.total_words,
            integral_count=self.integral_count + other.integral_count,
            fractional_count=self.fractional_count + other.fractional_count,
            tie_count=self.tie_count + other.tie_count,
            mismatches=self.mismatches + other.mismatches,
        )


def _word_from_index(index: int, q: int, length: int) -> np.ndarray:
    word = np.empty(length, dtype=np.int64)
    for j in range(length - 1, -1, -1):
        word[j] = index % q
        index //= q
    return word


def _scan_range(code: ExpanderCode, start: int, stop: int,
                int_tol: float, feas_tol: float, opt_tol: float) -> ScanReport:
    q = code.field.q
    length = code.graph.num_edges
    report = ScanReport(total_words=0, integral_count=0,
                        fractional_count=0, tie_count=0)
    for index in range(start, stop):
        y = _word_from_index(index, q, length)
        oracle = ml_decode(code, y)
        result = decode(code, y, int_tol=int_tol, feas_tol=feas_tol,
                        opt_tol=opt_tol)
        report.total_words += 1
        if oracle.tie:
            report.tie_count += 1
        if result.status == "codeword":
            report.integral_count += 1
            lp_dist = result.distance_to(y)
            if lp_dist != oracle.distance:
                report.mismatches.append({
                    "word": y.tolist(),
                    "lp_distance": int(lp_dist),
                    "oracle_distance": int(oracle.distance),
                })
        else:
            report.fractional_count += 1
    return report


def exhaustive_agreement_scan(code: ExpanderCode,
                              max_words: int = DEFAULT_SCAN_CAP,
                              workers: int = 1,
                              int_tol: float = DEFAULT_INT_TOL,
                              feas_tol: float = DEFAULT_FEAS_TOL,
                              opt_tol: float = DEFAULT_OPT_TOL) -> ScanReport:
    """Run decode() and ml_decode() on every possible received word.

    The word space has q^|E| elements and must fit under max_words.  With
    workers > 1 the index range is split across processes (map_with_code,
    so each worker runs phase 1 once); decoding is pure, so the merged
    tallies are identical to a serial run.
    """
    q = code.field.q
    length = code.graph.num_edges
    total = q ** length
    if total > max_words:
        raise EnumerationCapError(
            f"{total} received words exceed the scan cap {max_words}")
    parts = max(workers, 1)
    bounds = np.linspace(0, total, parts + 1, dtype=int)
    chunks = [(int(bounds[i]), int(bounds[i + 1]), int_tol, feas_tol, opt_tol)
              for i in range(parts) if bounds[i] < bounds[i + 1]]
    report = ScanReport(total_words=0, integral_count=0,
                        fractional_count=0, tie_count=0)
    for part in map_with_code(_scan_range, code, chunks, workers):
        report = report.merge(part)
    return report
