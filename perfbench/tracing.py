"""In-memory spans around the library's public entry points.

The library has no tracing of its own, so the traced run replaces each
entry point below with a wrapper that records a span, for as long as the
tracer is installed, and puts the original back afterwards.  A wrapper is
installed wherever the library refers to the original function, so a call
that goes through `from .x import f` is traced too.  Spans are recorded only
inside a root span (one benchmark op, or one instance build); calls the
benchmark makes to check outputs run untraced.

A span is (name, start, end, parent index, root id); a root's parent is -1.
"""

from __future__ import annotations

import functools
import gzip
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

# (module, function) entry points, and (module, class, method) ones
FUNCTIONS = (
    ("harness", "bounds_report", "harness.bounds_report"),
    ("tanner_graph", "complete_bipartite", "tanner_graph.build"),
    ("tanner_graph", "cycle_graph", "tanner_graph.build"),
    ("tanner_graph", "random_regular_bipartite", "tanner_graph.build"),
    ("gflinalg", "rref", "gflinalg.rref"),
    ("lp_decoder", "decode", "lp_decoder.decode"),
    ("lp_decoder", "build_reduced", "lp_decoder.build_reduced"),
    ("lp_core", "solve", "lp_core.solve"),
    ("certificate", "find_witness", "certificate.find_witness"),
    ("certificate", "peel", "certificate.peel"),
    ("certificate", "build_witness_from_peeling", "certificate.build_witness"),
    ("certificate", "build_witness_from_orientation", "certificate.build_witness"),
    ("certificate", "check_witness", "certificate.check_witness"),
    ("orientation", "orient", "orientation.orient"),
    ("ml_oracle", "ml_decode", "ml_oracle.ml_decode"),
)
METHODS = (
    ("tanner_graph", "TannerGraph", "spectral_gamma", "tanner_graph.spectral_gamma"),
    ("linear_code", "LocalCode", "codewords", "linear_code.codewords"),
    ("expander_code", "ExpanderCode", "codeword_basis", "expander_code.codeword_basis"),
    ("expander_code", "ExpanderCode", "is_codeword", "expander_code.is_codeword"),
    ("expander_code", "ExpanderCode", "random_codeword", "expander_code.random_codeword"),
)


class Tracer:
    """Records spans while installed; `counters` maps a span name to a
    function of the call's return value giving per-root counts."""

    def __init__(self, counters):
        self.counters = counters
        self.spans: list[tuple] = []
        self.root_kind: dict[int, str] = {}
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self._stack: list[int] = []
        self._root = -1
        self._saved: list[tuple] = []

    # -- installing the wrappers ------------------------------------------

    def _wrap(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if not stack:
                return fn(*args, **kwargs)
            index = len(tracer.spans)
            tracer.spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                tracer.spans[index] = (name, start, end, stack[-1], tracer._root)
            count = tracer.counters.get(name)
            if count is not None:
                tracer.counts[tracer._root].update(count(result))
            return result
        return traced

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer is already installed")
        modules = [m for k, m in sys.modules.items()
                   if k == "expanderlp" or k.startswith("expanderlp.")]
        for mod_name, attr, span in FUNCTIONS:
            original = getattr(sys.modules[f"expanderlp.{mod_name}"], attr)
            wrapper = self._wrap(span, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, span in METHODS:
            cls = getattr(sys.modules[f"expanderlp.{mod_name}"], cls_name)
            original = vars(cls)[attr]
            self._saved.append((cls, attr, original))
            setattr(cls, attr, self._wrap(span, original))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    @contextmanager
    def root(self, name: str, root_id: int, kind: str):
        """A root span; library calls inside it are recorded as its children."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        index = len(self.spans)
        self.spans.append(None)
        self.root_kind[root_id] = kind
        self._root = root_id
        self._stack.append(index)
        start = perf_counter()
        try:
            yield
        finally:
            end = perf_counter()
            self._stack.pop()
            self.spans[index] = (name, start, end, -1, root_id)

    # -- reading the spans back ---------------------------------------------

    def totals(self, kind: str) -> dict[int, dict[str, list[float]]]:
        """Per root of `kind`: span name -> [total seconds, self seconds]."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, root in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, list[float]]] = {}
        for i, (name, start, end, parent, root) in enumerate(self.spans):
            if self.root_kind[root] != kind:
                continue
            slot = out.setdefault(root, {}).setdefault(name, [0.0, 0.0])
            slot[0] += end - start
            slot[1] += end - start - child[i]
        return out

    def write(self, path, origin: float) -> None:
        """Gzipped JSON lines [name, start s, end s, parent, root], times from origin."""
        with gzip.open(path, "wt") as fh:
            for name, start, end, parent, root in self.spans:
                fh.write(json.dumps([name, start - origin, end - origin, parent, root]) + "\n")
