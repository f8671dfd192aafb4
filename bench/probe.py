"""Span tracer for the benchmark's traced run.

The tracer wraps the public entry points of each layer of the program from
outside.  A wrapper is installed wherever a caller looks the name up: in
every ``free_stein`` module that holds the function (``stein`` imports
``gradient`` by name, ``cli`` imports ``load_model``), on the class for
methods, and on ``numpy.linalg`` for the dense solves.

A call opens a span only when it enters its layer from another layer, so
recursion and calls inside one layer add no spans; their time stays in the
outer span of that layer.  Each span records its name, layer, parent, the
report it belongs to and its start and end.  Spans stay in memory until
:meth:`Tracer.write` saves them.  A layer's self time is the summed duration
of its spans minus the time covered by their child spans, so the self times
of all layers, the benchmark's own layer included, add up to the round time.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter

import numpy as np

BENCH = "bench"
INNER_PRODUCTS = ("inner_tensor_row", "inner_tensor", "inner_l2")

# layer -> (module or class path, attribute names)
SPANS = {
    "ncalg": [("free_stein.ncalg", ["gradient", "commutator_stein_kernel",
                                    "diff_quotient"])],
    "trace": [("free_stein.trace:TraceModel",
               ["trace_word", *INNER_PRODUCTS, "centered"])],
    "stein.entry": [("free_stein.stein", ["irregularity_estimate",
                                          "irregularity_bounded",
                                          "discrepancy", "radius_sweep"])],
    "stein.gram": [("free_stein.stein:GramSystem", ["__init__", "view"])],
    "stein.design": [("free_stein.stein:GramSystem",
                      ["r_of_kernel", "r_of_identity"])],
    "stein.relations": [("free_stein.stein", ["sigma_exact_fd"])],
    "fdalg": [("free_stein.fdalg:MatrixCoordinates",
               ["__init__", "sharp_translates"])],
    "linalg": [("numpy.linalg", ["eigh", "svd", "lstsq", "matrix_rank"])],
    "quadrature": [("free_stein.quadrature", ["adaptive", "integrate"])],
    # the integrands quadrature calls back into belong to closedform too
    "closedform": [("free_stein.closedform", ["eps_kernel", "log_energy",
                                              "one_var_sigma", "_density_conv",
                                              "_log_potential"])],
    "cli": [("free_stein.cli", ["main", "load_model", "_write_json",
                                "_write_csv"])],
    "serialize": [("free_stein.serialize", ["poly_tuple_to_json"]),
                  ("free_stein.parser", ["parse_poly_tuple"])],
}
# NCPoly arithmetic counts as ncalg only when stein calls it directly; from
# trace (centering) or the parser it is part of that layer's own work.
NCPOLY_FROM_STEIN = ("free_stein.ncalg:NCPoly",
                     ["__add__", "__sub__", "__mul__", "__rmul__", "zero",
                      "scalar", "from_word"])


def _resolve(path: str):
    module, _, cls = path.partition(":")
    obj = sys.modules[module]
    return getattr(obj, cls) if cls else obj


class Tracer:
    """Spans and counters of one traced run; see :meth:`install`."""

    def __init__(self):
        self.spans = []           # [name, layer, parent, report, start, end]
        self.stack = [(-1, BENCH)]
        self.counts = Counter()
        self.report = None
        self.missing = []         # names that could not be wrapped
        self._undo = []
        self._words = set()       # (model, word) pairs of the current report
        self._views = {}          # Gram views seen in the current report

    # -- spans ------------------------------------------------------------------

    def call(self, name, layer, fn, args, kwargs):
        rec = [name, layer, self.stack[-1][0], self.report,
               time.perf_counter_ns(), 0]
        self.stack.append((len(self.spans), layer))
        self.spans.append(rec)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[5] = time.perf_counter_ns()
            self.stack.pop()

    def end_report(self):
        """Fold the per-report distinct counts in; models die with the report."""
        self.counts["trace.words_traced"] += len(self._words)
        self._words.clear()
        self._views.clear()

    # -- wrappers -----------------------------------------------------------------

    def _wrap(self, fn, name, layer, from_prefix=None, after=None):
        stack, call = self.stack, self.call

        def traced(*args, **kwargs):
            top = stack[-1][1]
            if top == layer or (from_prefix and not top.startswith(from_prefix)):
                result = fn(*args, **kwargs)
            else:
                result = call(name, layer, fn, args, kwargs)
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, fn, key, amount):
        counts = self.counts

        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts[key] += amount(args, result)
            return result

        counted.__wrapped__ = fn
        return counted

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _replace(self, path, attr, make):
        """Wrap ``attr`` of a class, or of a module together with every
        ``free_stein`` module that imported the same function by name."""
        owner = _resolve(path)
        raw = owner.__dict__.get(attr)
        if raw is None:
            self.missing.append(f"{path}.{attr}")
            return
        if isinstance(owner, type):
            if isinstance(raw, staticmethod):
                self._set(owner, attr, staticmethod(make(raw.__func__)))
            else:
                self._set(owner, attr, make(raw))
            return
        wrapped = make(raw)
        holders = [owner] + [m for n, m in sys.modules.items()
                             if n.split(".")[0] == "free_stein" and m is not owner]
        for mod in holders:
            if mod.__dict__.get(attr) is raw:
                self._set(mod, attr, wrapped)

    def install(self):
        import free_stein.cli  # noqa: F401  (make sure every layer is loaded)
        for layer, targets in SPANS.items():
            for path, names in targets:
                for attr in names:
                    self._replace(path, attr, lambda fn, a=attr, l=layer:
                                  self._wrap(fn, a, l, after=self._after(a, l)))
        path, names = NCPOLY_FROM_STEIN
        for attr in names:
            self._replace(path, attr, lambda fn, a=attr:
                          self._wrap(fn, a, "ncalg", from_prefix="stein"))
        self._replace("free_stein.stein", "_xi_design",
                      lambda fn: self._count(fn, "stein.design_columns",
                                             lambda a, r: len(r[3])))
        self._replace("numpy.polynomial.legendre", "leggauss",
                      lambda fn: self._count(fn, "quadrature.leggauss_calls",
                                             lambda a, r: 1))
        for cls in ("SemicircleDensity", "UniformDensity", "TableDensity"):
            self._replace(f"free_stein.trace:{cls}", "pdf",
                          lambda fn: self._count(
                              fn, "quadrature.integrand_points",
                              lambda a, r: int(np.size(a[1]))))

    def uninstall(self):
        while self._undo:
            owner, attr, raw = self._undo.pop()
            setattr(owner, attr, raw)

    def _after(self, attr, layer):
        """Counters read from the arguments or result of a wrapped call."""
        counts = self.counts
        if attr == "trace_word":
            words = self._words
            return lambda r, a: words.add((id(a[0]), tuple(a[1])))
        if layer == "stein.gram" and attr == "__init__":
            def gram(r, a):
                counts["stein.gram_m"] += len(a[0].words)
            return gram
        if layer == "stein.gram" and attr == "view":
            views = self._views

            def view(r, a):
                if id(r) not in views:
                    views[id(r)] = r
                    counts["stein.kept_rank"] += len(r.vals)
            return view
        if attr == "sharp_translates":
            def rows(r, a):
                counts["fdalg.translate_rows"] += r.shape[0]
            return rows
        if layer == "linalg":
            def nbytes(r, a):
                counts["linalg.input_bytes"] += sum(
                    x.nbytes for x in a if isinstance(x, np.ndarray))
            return nbytes
        return None

    # -- results ----------------------------------------------------------------------

    def self_times(self) -> dict:
        """Self time per layer in seconds over all recorded spans."""
        child = [0] * len(self.spans)
        for name, layer, parent, report, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = Counter()
        for (name, layer, parent, report, start, end), c in zip(self.spans, child):
            out[layer] += end - start - c
        return {k: v / 1e9 for k, v in out.items()}

    def span_counts(self) -> Counter:
        """Spans per layer, plus ``trace.inner``: inner-product calls that
        entered the trace layer from outside it."""
        out = Counter(layer for _, layer, *_ in self.spans)
        out["trace.inner"] = sum(1 for name, layer, *_ in self.spans
                                 if layer == "trace" and name in INNER_PRODUCTS)
        return out

    def write(self, path):
        """One JSON array per span: id, parent, name, layer, report, start
        and end in nanoseconds."""
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, layer, parent, report, start, end) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, layer, report, start, end]))
                fh.write("\n")
