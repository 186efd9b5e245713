"""The library symbols the benchmark harness in perfbench/ relies on.

perfbench traces named library functions and methods, counts LP shapes
from build_reduced's return value, edits witnesses in place to prove its
checks fire, and swaps the names harness.run_trial calls; a rename or
deletion in the library breaks the benchmark, so this checks every such
name here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import numpy as np

from expanderlp import (ExpanderCode, certificate, harness, lp_core, lp_decoder, ml_oracle,
                        orientation)

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """Import perfbench/<name>.py by path, without putting perfbench on sys.path."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load("tracing")
workloads = _load("workloads")


@pytest.mark.parametrize("module, attr, span", tracing.FUNCTIONS,
                         ids=[f"{m}.{a}" for m, a, _ in tracing.FUNCTIONS])
def test_traced_functions_exist(module, attr, span):
    mod = importlib.import_module(f"expanderlp.{module}")
    assert callable(getattr(mod, attr))


@pytest.mark.parametrize("module, cls, attr, span", tracing.METHODS,
                         ids=[f"{c}.{a}" for _, c, a, _ in tracing.METHODS])
def test_traced_methods_are_own_attributes(module, cls, attr, span):
    owner = getattr(importlib.import_module(f"expanderlp.{module}"), cls)
    assert callable(vars(owner)[attr])


def _library_namespaces():
    """Every expanderlp module's and traced class's attributes, by identity."""
    owners = [mod for name, mod in sys.modules.items()
              if name == "expanderlp" or name.startswith("expanderlp.")]
    owners += [getattr(sys.modules[f"expanderlp.{m}"], c) for m, c, _, _ in tracing.METHODS]
    return {id(owner): dict(vars(owner)) for owner in owners}


def test_tracer_installs_and_uninstalls():
    before = _library_namespaces()
    original = lp_decoder.decode
    with tracing.Tracer(workloads.COUNTERS).installed():
        assert lp_decoder.decode is not original
    assert lp_decoder.decode is original
    after = _library_namespaces()
    assert after.keys() == before.keys()
    for key, names in before.items():
        assert all(after[key][name] is value for name, value in names.items())


def test_lp_shape_counter_reads_build_reduced(four_cycle_rep3):
    counts = workloads._lp_shape(lp_decoder.build_reduced(four_cycle_rep3, [0, 0, 0, 1]))
    assert counts == {"lp_builds": 1, "lp_rows": 12, "lp_cols": 12,
                      "lp_nnz": counts["lp_nnz"], "lp_size": 144}
    assert 0 < counts["lp_nnz"] < 144


def test_tamper_certify_breaks_a_found_witness(k66_rep2):
    c = np.zeros(36, dtype=np.int64)
    y = c.copy()
    y[[1, 14, 30]] = 1
    result = certificate.find_witness(k66_rep2, c, y)
    assert result.witness_found
    tampered = workloads.tamper_certify(result)
    assert not certificate.check_witness(k66_rep2, c, y, tampered.witness).ok
    assert workloads.check_certify(k66_rep2, c, y, tampered)
    assert certificate.check_witness(k66_rep2, c, y, result.witness).ok
    assert workloads.check_certify(k66_rep2, c, y, result) == []


def test_sweep_captures_run_trial_calls(k66_rep2):
    # the sweep workload swaps harness.decode and harness.find_witness for
    # recorders, so run_trial must reach both through those module names
    assert callable(harness.decode) and callable(harness.find_witness)
    sweep = workloads.Sweep()
    sweep.prepare([k66_rep2], seed=1)
    try:
        out = sweep.call((3, 0))
        assert [name for name, _, _ in out[1]] == ["decode", "find_witness", "find_witness"]
        assert sweep.check((3, 0), out) == []
    finally:
        sweep.finish()
    assert harness.decode is lp_decoder.decode
    assert harness.find_witness is certificate.find_witness


def test_bounds_report_takes_positional_arguments(k66_grs):
    report = harness.bounds_report(k66_grs.graph, k66_grs.code_a, k66_grs.code_b)
    assert report.delta_a == k66_grs.code_a.relative_distance


def test_decode_builds_and_solves_once_per_call(monkeypatch, k33_parity2):
    # perfbench reads LP shapes from build_reduced and pivots from solve, one
    # call each per decode, at these module attributes; the cached phase 1
    # must not add or hide a call, on the first decode of a code or later
    code = ExpanderCode(k33_parity2.graph, k33_parity2.code_a, k33_parity2.code_b)
    calls = []
    for module, attr in ((lp_decoder, "build_reduced"), (lp_core, "solve")):
        real = getattr(module, attr)

        def counted(*args, _real=real, _attr=attr, **kwargs):
            calls.append(_attr)
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, attr, counted)
    for y in ([0] * 9, [1, 0, 0, 0, 0, 0, 0, 0, 1], [1, 1, 0, 0, 0, 0, 0, 0, 0]):
        calls.clear()
        lp_decoder.decode(code, y)
        assert calls == ["build_reduced", "solve"]


def test_witness_counters_read_epsilon_and_head_side(k66_rep2):
    # eps_halvings counts doublings from a found result's epsilon back up to
    # certificate.EPSILON_START, and orient_fails asks for head_side
    c = np.zeros(36, dtype=np.int64)
    y = c.copy()
    y[[1, 14, 30]] = 1
    for mode in ("peel", "orient"):
        result = certificate.find_witness(k66_rep2, c, y, mode=mode)
        assert result.witness_found and result.epsilon == certificate.EPSILON_START
        assert workloads.COUNTERS["certificate.find_witness"](result) == {
            "searches": 1, "found": 1, "halvings": 0}
    graph = k66_rep2.graph
    oriented = orientation.orient(graph, [1, 14, 30], 1, 1)
    assert isinstance(oriented, orientation.OrientedEdgeSet)
    failed = orientation.orient(graph, range(12), 0, 1)
    assert isinstance(failed, orientation.OrientationFailure)
    assert not hasattr(failed, "head_side")
    count = workloads.COUNTERS["orientation.orient"]
    assert [count(oriented), count(failed)] == [{"orients": 1, "orient_fails": 0},
                                                {"orients": 1, "orient_fails": 1}]


def test_peel_counter_reads_real_traces(k66_rep2, four_cycle_rep3):
    # peel_rounds counts the rounds after the initial error set, len(edge_sets)
    # - 1, and cores the traces that stagnated
    c = np.zeros(36, dtype=np.int64)
    y = c.copy()
    y[[1, 14, 30]] = 1
    emptied = certificate.peel(k66_rep2, c, y)
    stagnated = certificate.peel(four_cycle_rep3, [0, 0, 0, 0], [1, 0, 0, 0])
    assert emptied.terminated_empty and not stagnated.terminated_empty
    count = workloads.COUNTERS["certificate.peel"]
    assert [count(emptied), count(stagnated)] == [{"peels": 1, "peel_rounds": 1, "cores": 0},
                                                  {"peels": 1, "peel_rounds": 2, "cores": 1}]
    for trace in (emptied, stagnated):
        assert count(trace)["peel_rounds"] == len(trace.edge_sets) - 1


def test_ml_decode_counter_reads_a_real_result(k33_parity2):
    # codewords_scanned per ml_decode is the size of the code's codeword table
    result = ml_oracle.ml_decode(k33_parity2, [1, 0, 0, 0, 0, 0, 0, 0, 0])
    assert workloads.COUNTERS["ml_oracle.ml_decode"](result) == {
        "ml_decodes": 1, "codewords_scanned": 16}
    assert len(k33_parity2.enumerate_codewords()) == 16
