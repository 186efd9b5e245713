"""Brute-force nearest-codeword decoding, and exhaustive LP-vs-oracle scans.

ml_decode returns a closest global codeword; it is the ground truth the LP
decoder is measured against.  When the LP relaxation has an integral
optimum its codeword must sit at exactly the oracle's distance (the LP
objective is an affine function of Hamming distance on integral points),
so the scan walks the whole received-word space and tabulates how often
the relaxation is integral, fractional, or tied, and records any word
where an integral answer is not distance-optimal — there should never be
one.

The scan decodes its words with lp_decoder.decode_many, so the LPs of
small codes are solved in stacks that share one phase-1 start.  One routine,
_nearest, answers "nearest codeword, distance, tie" for ml_decode and the
scan alike, over the one codeword table each code enumerates and keeps.
The tallies and the mismatch list, in word order, are those of decoding and
oracle-decoding each word in turn (tests/oracles.py keeps that loop as the
reference).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import EnumerationCapError
from .expander_code import DEFAULT_GLOBAL_ENUMERATION_CAP, ExpanderCode, check_word
from .lp_decoder import DEFAULT_INT_TOL, STACK_BYTES, decode_many, map_with_code
from .lp_core import DEFAULT_FEAS_TOL, DEFAULT_OPT_TOL

DEFAULT_SCAN_CAP = 2 ** 16
# received words a scan decodes per decode_many call
SCAN_BLOCK = 1024


@dataclass
class OracleResult:
    """A nearest codeword, with a flag when it is not the only one."""

    nearest: np.ndarray
    distance: int
    tie: bool
    num_codewords_scanned: int


def ml_decode(code: ExpanderCode, y, cap: int = DEFAULT_GLOBAL_ENUMERATION_CAP) -> OracleResult:
    """Exact nearest-codeword decoding by scanning the full codeword list.

    Returns the first minimizer in enumeration order; `tie` reports whether
    any other codeword achieves the same distance.
    """
    yw = check_word(y, code.field.q, code.num_edges)
    table = code.enumerate_codewords(cap)
    best, distance, tie = _nearest(table, yw[None])
    return OracleResult(nearest=table[best[0]].copy(), distance=int(distance[0]),
                        tie=bool(tie[0]), num_codewords_scanned=len(table))


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


def _nearest(table: np.ndarray, words: np.ndarray) -> tuple[np.ndarray, ...]:
    """For each row of words: the index of its first nearest row of table,
    the distance to it, and whether another row of table is as near.

    Words are compared in groups whose (words, codewords, edges) comparison
    fits in lp_decoder.STACK_BYTES.
    """
    group = max(1, STACK_BYTES // table.size)
    parts = []
    for first in range(0, len(words), group):
        d = np.count_nonzero(words[first:first + group, None, :] != table[None], axis=2)
        least = d.min(axis=1, keepdims=True)
        parts.append((d.argmin(axis=1), least[:, 0], np.count_nonzero(d == least, axis=1) >= 2))
    return tuple(map(np.concatenate, zip(*parts)))


def _scan_range(code: ExpanderCode, start: int, stop: int,
                int_tol: float, feas_tol: float, opt_tol: float) -> ScanReport:
    """The scan of received words start..stop-1: word i spells i in base q,
    most significant symbol first.  Words go SCAN_BLOCK at a time, so the
    decode results held at once stay bounded."""
    q = code.field.q
    table = code.enumerate_codewords()
    place = q ** np.arange(code.num_edges - 1, -1, -1, dtype=np.int64)
    report = ScanReport(total_words=0, integral_count=0,
                        fractional_count=0, tie_count=0)
    for first in range(start, stop, SCAN_BLOCK):
        words = np.arange(first, min(first + SCAN_BLOCK, stop))[:, None] // place % q
        _, oracle, ties = _nearest(table, words)
        results = decode_many(code, words, int_tol=int_tol, feas_tol=feas_tol,
                              opt_tol=opt_tol)
        integral = np.array([r.status == "codeword" for r in results], dtype=bool)
        report.total_words += len(words)
        report.integral_count += int(integral.sum())
        report.fractional_count += int((~integral).sum())
        report.tie_count += int(ties.sum())
        at = np.flatnonzero(integral)
        if len(at):
            decoded = np.stack([results[i].codeword for i in at.tolist()])
            lp_dist = np.count_nonzero(decoded != words[at], axis=1)
            wrong = lp_dist != oracle[at]
            for i, d in zip(at[wrong].tolist(), lp_dist[wrong].tolist()):
                report.mismatches.append({"word": words[i].tolist(), "lp_distance": d,
                                          "oracle_distance": int(oracle[i])})
    return report


def exhaustive_agreement_scan(code: ExpanderCode,
                              max_words: int = DEFAULT_SCAN_CAP,
                              workers: int = 1,
                              int_tol: float = DEFAULT_INT_TOL,
                              feas_tol: float = DEFAULT_FEAS_TOL,
                              opt_tol: float = DEFAULT_OPT_TOL) -> ScanReport:
    """Compare the LP decoder with the nearest-codeword oracle on every
    possible received word, with the results of decode() and ml_decode().

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
