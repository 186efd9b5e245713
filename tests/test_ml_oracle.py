"""Exhaustive nearest-codeword reference and the LP agreement scan."""

import numpy as np
import pytest

from expanderlp import (EnumerationCapError, ExpanderCode, ScanReport,
                        exhaustive_agreement_scan, gflinalg, ml_decode, ml_oracle)
from expanderlp.harness import resolve_instance

from oracles import nearest_codeword_scan, scan_range_by_word


def test_codewords_decode_to_themselves(four_cycle_rep3):
    for z in four_cycle_rep3.enumerate_codewords():
        result = ml_decode(four_cycle_rep3, z)
        assert result.distance == 0
        assert np.array_equal(result.nearest, z)
        assert not result.tie
        assert result.num_codewords_scanned == 3


def test_single_error(four_cycle_rep3):
    result = ml_decode(four_cycle_rep3, [0, 0, 0, 1])
    assert result.distance == 1
    assert result.nearest.tolist() == [0, 0, 0, 0]
    assert not result.tie


def test_tie_detected(four_cycle_rep3):
    # equidistant from the all-zero and all-one codewords
    result = ml_decode(four_cycle_rep3, [0, 0, 1, 1])
    assert result.distance == 2
    assert result.tie


def test_matches_independent_scan(k33_parity2, rng):
    for _ in range(30):
        y = rng.integers(0, 2, size=9)
        result = ml_decode(k33_parity2, y)
        best, count = nearest_codeword_scan(k33_parity2, y)
        assert result.distance == best
        assert result.tie == (count > 1)


def test_cap_is_enforced(k33_parity2):
    with pytest.raises(EnumerationCapError):
        ml_decode(k33_parity2, np.zeros(9, dtype=np.int64), cap=4)


def test_one_codeword_table_per_code(monkeypatch, four_cycle_rep3):
    # ml_decode and the scan share the table the code spans once (the local
    # codes span their own words, which are shorter)
    code = ExpanderCode(four_cycle_rep3.graph, four_cycle_rep3.code_a, four_cycle_rep3.code_b)
    spans = []

    def counted(rows, gf, _real=gflinalg.span):
        spans.append(np.shape(rows)[1])
        return _real(rows, gf)

    monkeypatch.setattr(gflinalg, "span", counted)
    first = ml_decode(code, [0, 0, 0, 1])
    assert ml_decode(code, [0, 0, 1, 1]).tie and not first.tie
    assert exhaustive_agreement_scan(code).total_words == 81
    assert spans.count(code.num_edges) == 1
    assert not code.enumerate_codewords().flags.writeable
    with pytest.raises(EnumerationCapError):
        ml_decode(code, [0, 0, 0, 1], cap=2)


def test_scan_tiny_instance_all_integral(four_cycle_rep3):
    report = exhaustive_agreement_scan(four_cycle_rep3)
    assert report.total_words == 81
    assert report.integral_count == 81
    assert report.fractional_count == 0
    assert report.tie_count == 18
    assert report.mismatches == []
    assert report.all_integral_agree


def test_scan_worker_split_is_invisible(four_cycle_rep3):
    serial = exhaustive_agreement_scan(four_cycle_rep3)
    parallel = exhaustive_agreement_scan(four_cycle_rep3, workers=3)
    assert serial == parallel


def test_scan_word_budget(four_cycle_rep3):
    with pytest.raises(EnumerationCapError):
        exhaustive_agreement_scan(four_cycle_rep3, max_words=80)


def test_scan_report_merge():
    a = ScanReport(total_words=10, integral_count=9, fractional_count=1,
                   tie_count=2, mismatches=[])
    b = ScanReport(total_words=5, integral_count=5, fractional_count=0,
                   tie_count=0, mismatches=[{"word": 3}])
    merged = a.merge(b)
    assert merged.total_words == 15
    assert merged.integral_count == 14
    assert merged.fractional_count == 1
    assert merged.tie_count == 2
    assert merged.mismatches == [{"word": 3}]
    assert not merged.all_integral_agree


def test_scalar_relabeling_preserves_distances(four_cycle_rep3, rng):
    # multiplying by a nonzero field element permutes the codeword set, so
    # the nearest-codeword distance cannot change
    f = four_cycle_rep3.field
    for _ in range(10):
        y = rng.integers(0, 3, size=4)
        scaled = f.mul_table[2, y]
        assert ml_decode(four_cycle_rep3, y).distance == \
            ml_decode(four_cycle_rep3, scaled).distance


@pytest.mark.parametrize("y", [[0, 0, 0, 3], [0, 0, -1, 0], [0], [0] * 5],
                         ids=["symbol-out-of-field", "negative", "short", "long"])
def test_ml_decode_rejects_invalid_received_word(four_cycle_rep3, y):
    with pytest.raises(ValueError):
        ml_decode(four_cycle_rep3, y)


class ShortListCode(ExpanderCode):
    """A code whose codeword list misses its first codeword, so the oracle
    is wrong wherever that codeword is the nearest and decoded scans report
    mismatches.  Module level, so pool workers can unpickle it."""

    def enumerate_codewords(self, *args):
        return super().enumerate_codewords(*args)[1:]


def _scan_codes():
    rep3 = resolve_instance("cycle:2", "repetition:3:2", "repetition:3:2")
    k33 = resolve_instance("complete:3", "parity:2:3", "parity:2:3")
    c3 = resolve_instance("cycle:3", "repetition:3:2", "repetition:3:2")
    return {"four-cycle-rep3": rep3, "k33-parity2": k33, "cycle3-rep3": c3,
            "k33-parity2-short-list": ShortListCode(k33.graph, k33.code_a, k33.code_b)}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(_scan_codes()))
def test_scan_equals_the_word_by_word_reference(name, workers):
    code = _scan_codes()[name]
    total = code.field.q ** code.num_edges
    expected = scan_range_by_word(code, 0, total)
    assert exhaustive_agreement_scan(code, workers=workers) == expected
    if name.endswith("short-list"):
        # the mismatches, in word order, are what the comparison covered
        assert len(expected.mismatches) > 1


def test_scan_across_block_boundaries(monkeypatch):
    # blocks of 7 words and comparison groups of 5: the mismatches still
    # come in word order, and every tally adds up
    code = _scan_codes()["k33-parity2-short-list"]
    expected = scan_range_by_word(code, 0, 512)
    monkeypatch.setattr(ml_oracle, "SCAN_BLOCK", 7)
    monkeypatch.setattr(ml_oracle, "STACK_BYTES", 5 * code.enumerate_codewords().size)
    assert exhaustive_agreement_scan(code) == expected
