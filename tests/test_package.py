"""Rules every module of the package keeps."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import expanderlp
from expanderlp import (GF, DomainError, ExpanderCode, LocalCode, OrientedEdgeSet,
                        TannerGraph, complete_bipartite, cost_from_received,
                        decode_many, generalized_reed_solomon, orient, repetition,
                        rref)

MODULES = sorted(Path(expanderlp.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_python_blocks_run():
    # the README's library examples, in order, in one namespace, as a reader
    # pastes them into one session
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(), re.S | re.M)
    assert len(blocks) >= 2
    namespace: dict = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)


# the only imports a function may make: standard-library modules that one
# rarely taken branch needs, kept out of every process that imports the
# package (a fresh-process test in test_lp_decoder.py checks they stay out)
LAZY_IMPORTS = {("lp_decoder.py", "multiprocessing"), ("lp_decoder.py", "concurrent.futures")}


def _imported(node):
    return [node.module] if isinstance(node, ast.ImportFrom) else [a.name for a in node.names]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_no_function_level_imports(path):
    # an import inside a function hides a dependency, often a cycle between modules
    tree = ast.parse(path.read_text())
    nested = [f"{path.name}:{node.lineno} {name}"
              for fn in ast.walk(tree)
              if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
              for node in ast.walk(fn) if isinstance(node, (ast.Import, ast.ImportFrom))
              for name in _imported(node) if (path.name, name) not in LAZY_IMPORTS]
    assert not nested


# -- integer index input -------------------------------------------------------------
#
# Every entry point below takes integer indices and checks them with check_word.
# Per entry: the call, a valid argument with a free slot that 2 fills, and the
# least index too large for that slot.

K33 = complete_bipartite(3)
K33_REP3 = ExpanderCode(K33, repetition(GF(3), 3), repetition(GF(3), 3))

ROUTED = {
    "LocalCode": (lambda a: LocalCode(GF(3), a), lambda x: [[1, x]], 3),
    "rref": (lambda a: rref(a, GF(3)), lambda x: [[1, x]], 3),
    "grs-points": (lambda a: generalized_reed_solomon(GF(5), 3, 2, a),
                   lambda x: [0, 1, x], 5),
    "grs-multipliers": (lambda a: generalized_reed_solomon(GF(5), 3, 2, None, a),
                        lambda x: [1, 1, x], 5),
    "TannerGraph": (lambda a: TannerGraph(3, 3, a), lambda x: K33.edges()[:-1] + [(2, x)], 3),
    "orient-edges": (lambda a: orient(K33, a, 1, 1), lambda x: [0, x], 9),
    "OrientedEdgeSet": (lambda a: OrientedEdgeSet(K33, a, {2: "b"}, 1, 1),
                        lambda x: (x,), 9),
    "count_induced_edges": (lambda a: K33.count_induced_edges(a, [0]), lambda x: [0, x], 3),
    "restriction": (lambda a: K33_REP3.restriction(np.zeros(9), "a", a), lambda x: x, 3),
    "cost_from_received": (lambda a: cost_from_received(a, 3), lambda x: [0, x], 3),
    "decode_many": (lambda a: decode_many(K33_REP3, a), lambda x: [[0] * 8 + [x]], 3),
    "orient-cap": (lambda a: orient(K33, [0], a, 1), lambda x: x, -1),
}


@pytest.mark.parametrize("entry", sorted(ROUTED))
def test_integer_input_is_checked_not_truncated(entry):
    call, put, out_of_range = ROUTED[entry]
    error = DomainError if entry == "orient-cap" else ValueError
    call(put(2.0))   # an integer-valued float is that integer
    for bad in (put(1.5), put(np.nan), put(2 + 1j), put(out_of_range), [put(2)]):
        with pytest.raises(error):
            call(bad)


@pytest.mark.parametrize("call", [
    lambda: LocalCode(GF(2), [[1.7, 1.2]]),
    lambda: rref([[0.5, 1.9]], GF(2)),
    lambda: TannerGraph(2, 2, [(0, 0), (0, 1.5), (1, 0), (1, 1)]),
    lambda: orient(complete_bipartite(3), [0.5, 1.7], 1, 1),
    lambda: generalized_reed_solomon(GF(5), 3, 2, [0, 1, 7]),
    lambda: generalized_reed_solomon(GF(5), 3, 2, None, [1, 1, 5]),
], ids=["generator", "rref", "graph-edge", "orient-edges", "grs-point", "grs-multiplier"])
def test_inputs_once_truncated_or_indexed_raise_value_error(call):
    # the first four once built from truncated floats, the GRS two raised IndexError
    with pytest.raises(ValueError):
        call()
