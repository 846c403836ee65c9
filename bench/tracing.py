"""Spans around the calls into each layer of modfutaki, for the traced run.

The tracer replaces each layer function in the module where its caller looks
it up, records a span (name, start, end, parent, job) while a job is running,
and passes calls made outside a job (set-up, checks) straight through. Spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import time

# Every place a caller looks up a layer function: (module, attribute, span).
BINDINGS = (
    ("modfutaki.cli", "main", "cli.main"),
    ("modfutaki.cli", "validate", "geometry.validate"),
    ("modfutaki.futaki", "validate", "geometry.validate"),
    ("modfutaki.localization", "validate", "geometry.validate"),
    ("modfutaki.quantize", "validate", "geometry.validate"),
    ("modfutaki.cli", "f_function", "futaki.f_function"),
    ("modfutaki.quantize", "f_function", "futaki.f_function"),
    ("modfutaki.cli", "fut_derivative", "futaki.fut_derivative"),
    ("modfutaki.cli", "f_function_via_recursion",
     "futaki.f_function_via_recursion"),
    ("modfutaki.futaki", "f_numeric", "futaki.f_numeric"),
    ("modfutaki.soliton", "f_numeric", "futaki.f_numeric"),
    ("modfutaki.futaki", "i0l_numeric_all", "localization.i0l_numeric_all"),
    ("modfutaki.futaki", "mixed_integral", "localization.mixed_integral"),
    ("modfutaki.localization", "mixed_integral", "localization.mixed_integral"),
    ("modfutaki.futaki", "expand_equivariant_product",
     "localization.expand_equivariant_product"),
    ("modfutaki.localization", "expand_equivariant_product",
     "localization.expand_equivariant_product"),
    ("modfutaki.cli", "verify_recursion", "localization.verify_recursion"),
    ("modfutaki.exactalg", "ExpPoly.evaluate", "exactalg.evaluate"),
    ("modfutaki.cli", "find_soliton", "soliton.find_soliton"),
    ("modfutaki.cli", "admissible_torus", "soliton.admissible_torus"),
    ("modfutaki.soliton", "admissible_torus", "soliton.admissible_torus"),
    ("modfutaki.cli", "fk", "quantize.fk"),
    ("modfutaki.quantize", "fk", "quantize.fk"),
    ("modfutaki.quantize", "complete_homogeneous_all",
     "quantize.complete_homogeneous_all"),
    ("modfutaki.cli", "convergence_report", "quantize.convergence_report"),
)

# Per-layer metric -> (span, statistic). "total" is the time inside the
# outermost spans of that name, "self" subtracts child spans, "calls" counts.
SPAN_METRICS = {
    "localization.i0l_numeric_all_s": ("localization.i0l_numeric_all", "total"),
    "localization.i0l_numeric_all_calls": ("localization.i0l_numeric_all",
                                           "calls"),
    "futaki.f_numeric_s": ("futaki.f_numeric", "total"),
    "futaki.f_numeric_self_s": ("futaki.f_numeric", "self"),
    "futaki.f_numeric_calls": ("futaki.f_numeric", "calls"),
    "soliton.find_soliton_s": ("soliton.find_soliton", "total"),
    "soliton.admissible_torus_s": ("soliton.admissible_torus", "total"),
    "localization.mixed_integral_s": ("localization.mixed_integral", "total"),
    "localization.mixed_integral_calls": ("localization.mixed_integral", "calls"),
    "localization.expand_equivariant_product_s": (
        "localization.expand_equivariant_product", "total"),
    "localization.verify_recursion_s": ("localization.verify_recursion", "total"),
    "futaki.f_function_s": ("futaki.f_function", "total"),
    "futaki.fut_derivative_s": ("futaki.fut_derivative", "total"),
    "futaki.f_function_via_recursion_s": ("futaki.f_function_via_recursion",
                                          "total"),
    "exactalg.evaluate_s": ("exactalg.evaluate", "total"),
    "exactalg.evaluate_calls": ("exactalg.evaluate", "calls"),
    "geometry.validate_calls": ("geometry.validate", "calls"),
    "cli.main_s": ("cli.main", "total"),
    "cli.self_s": ("cli.main", "self"),
    "quantize.fk_s": ("quantize.fk", "total"),
    "quantize.fk_calls": ("quantize.fk", "calls"),
    "quantize.complete_homogeneous_all_s": ("quantize.complete_homogeneous_all",
                                            "total"),
    "quantize.convergence_report_s": ("quantize.convergence_report", "total"),
}


# Units of everything the traced run reports: the span metrics, the Newton
# steps read from the soliton output, and the traced round against the plain one.
PER_LAYER_UNITS = {
    **{metric: "count" if metric.endswith("_calls") else "s"
       for metric in SPAN_METRICS},
    "soliton.newton_iterations": "count",
    "trace.batch_s": "s",
    "trace.overhead_s": "s",
}


def _owner(module, attribute):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans of the wrapped layer functions while `job` is set."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, job]
        self.job = None
        self._stack = []
        self._saved = []

    def _wrap(self, name, fn):
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            span = [name, time.perf_counter(), None,
                    self._stack[-1] if self._stack else None, self.job]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
        return traced

    def install(self):
        for module, attribute, name in BINDINGS:
            owner, attr = _owner(module, attribute)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    def metrics(self):
        """Every SPAN_METRICS value, 0 for layers the batch never entered."""
        spans = self.spans
        children = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent is not None:
                children[parent] += end - start
        stats = {}
        for i, (name, start, end, parent, _) in enumerate(spans):
            entry = stats.setdefault(name, {"total": 0.0, "self": 0.0, "calls": 0})
            entry["calls"] += 1
            entry["self"] += end - start - children[i]
            if not self._inside_same(i):
                entry["total"] += end - start
        empty = {"total": 0.0, "self": 0.0, "calls": 0}
        return {metric: stats.get(span, empty)[stat]
                for metric, (span, stat) in SPAN_METRICS.items()}

    def _inside_same(self, index):
        name = self.spans[index][0]
        parent = self.spans[index][3]
        while parent is not None:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def records(self):
        return [{"name": name, "start": start, "end": end, "parent": parent,
                 "job": job}
                for name, start, end, parent, job in self.spans]
