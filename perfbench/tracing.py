"""Span tracing of schwarzpick's layers from outside the package.

A `Tracer` replaces public functions at the name their callers resolve
(a module attribute such as `schwarzpick.cauchy.partial_bundle`, or a class
attribute such as `HoloMap.eval`) with a wrapper that records one span per
call: id, parent id, layer name, start, end and a work quantity (points
evaluated, bytes written).  Spans stay in memory; `layer_totals` derives each
layer's self time (its duration minus the time its child spans cover) and
`write` stores them when the benchmark ends.

`multiindex` is deliberately not wrapped: it is called about 10^4 times per
pass at microseconds per call, so a span would cost more than it measures.
Its time shows up in its callers' self time.
"""
from __future__ import annotations

import functools
import json
import os
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list = []
        self._stack: list[int] = []
        self._undo: list = []
        self.missing: list[str] = []

    def wrap(self, owner, attr: str, name, after=None) -> None:
        """Trace `owner.attr`.  `name` is the layer name, or a function of the
        call's arguments returning it; `after(args, kwargs)` returns the
        span's work quantity and runs once the call has returned."""
        original = (owner.__dict__ if isinstance(owner, type) else vars(owner)).get(attr)
        if original is None:
            # a later refactor removed or moved this entry point; its layer reads 0
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        spans, stack = self.spans, self._stack

        @functools.wraps(original)
        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            label = name(args, kwargs) if callable(name) else name
            stack.append(span_id)
            start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[span_id] = (span_id, parent, label, start, end, 0)
            if after is not None:
                spans[span_id] = (span_id, parent, label, start, end, after(args, kwargs))
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def install(self, sp) -> None:
        """Wrap every traced entry point of the schwarzpick package `sp`."""
        cli, harness, cauchy, holomap = sp.cli, sp.harness, sp.cauchy, sp.holomap

        def eval_name(args, kwargs):
            return "holomap.poly_eval" if args[0].kind == "poly" else "geometry.map_eval"

        def eval_points(args, kwargs):
            return np.size(args[1]) // args[0].n

        def bundle_name(args, kwargs):
            exact = kwargs.get("exact", args[4] if len(args) > 4 else "auto")
            if exact == "auto":
                exact = isinstance(args[0], holomap.PolyMap)
            return "cauchy.partial_bundle.exact" if exact else "cauchy.partial_bundle.quad"

        def emit_bytes(args, kwargs):
            path = kwargs.get("path", args[2] if len(args) > 2 else None)
            return os.path.getsize(path)

        self.wrap(cli, "main", "cli.main")
        for fn in ("run_suite", "equality_suite", "sharpness_sweep"):
            self.wrap(cli, fn, f"harness.{fn}")
        self.wrap(cli, "emit", "harness.emit", after=emit_bytes)
        self.wrap(harness, "random_polymap", "holomap.random_polymap")
        self.wrap(holomap.HoloMap, "eval", eval_name, after=eval_points)
        self.wrap(holomap.LineMap, "eval", "geometry.map_eval", after=eval_points)
        self.wrap(holomap.PolyMap, "partial", "holomap.PolyMap.partial")
        self.wrap(cauchy, "partial_bundle", bundle_name)
        for fn in ("taylor_coefficients", "coefficient_table", "partial_derivative",
                   "frechet_from_bundle", "line_derivative", "frechet_derivative"):
            self.wrap(cauchy, fn, f"cauchy.{fn}")
        self.wrap(sp.bounds, "check_inequality", "bounds.check_inequality")
        self.wrap(sp.geometry, "bergman_metric", "geometry.bergman_metric")

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def layer_totals(self, first: int = 0) -> dict:
        """{layer: [calls, self seconds, quantity]} over spans[first:]."""
        spans = self.spans[first:]
        child_time = [0.0] * len(spans)
        for span_id, parent, _, start, end, _ in spans:
            if parent >= first:
                child_time[parent - first] += end - start
        totals: dict[str, list] = {}
        for (_, _, label, start, end, qty), covered in zip(spans, child_time):
            entry = totals.setdefault(label, [0, 0.0, 0])
            entry[0] += 1
            entry[1] += end - start - covered
            entry[2] += qty
        return totals

    def write(self, path, first: int = 0) -> None:
        """Store spans[first:] as one JSON row per span."""
        with open(path, "w") as out:
            out.write('["id", "parent", "layer", "start_s", "end_s", "quantity"]\n')
            for span in self.spans[first:]:
                out.write(json.dumps(span) + "\n")
