"""The library symbols the benchmark harness in perfbench/ relies on.

perfbench traces named library functions and methods and counts LP shapes
from build_reduced's return value; a rename or deletion in the library
breaks the benchmark, so this checks every such name here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from expanderlp import lp_decoder

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
