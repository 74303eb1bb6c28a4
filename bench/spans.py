"""Spans and counters at klsparse's module boundaries, for the traced run.

Each target is a public name looked up by its caller at call time, such as
``recognize.rooted_violation``; installing the tracer replaces it with a
wrapper that times the call as a span and feeds the counters.  A layer's
self time is its span time minus the time of the spans it encloses; the
root span is the benchmark's own call of ``check_sparsity``, attributed to
``recognize``.  A target that no longer exists is reported as absent and
its metrics stay at zero.
"""
from __future__ import annotations

import sys
import time


# Counters read the arguments as the callers pass them today: positionally.
def _circulation(args, result, counts):
    counts["flow.circulation_arcs"] += len(args[0].arcs)


def _reorient(args, result, counts):
    counts["orient.reorient_calls"] += 1
    size = len(args[2])
    if size == 1:
        counts["recognize.centroid_probes"] += 1
    elif size == 2:
        counts["recognize.insert_probes"] += 1


def _rooted(args, result, counts):
    counts["rooted.queries"] += 1
    counts["rooted.arcs"] += len(args[0].arcs)
    counts["rooted.hits"] += 1 if result else 0


def _rejection(args, result, counts):
    counts["forests.rejections"] += 1


def _graph(args, result, counts):
    counts["graph.builds"] += 1
    counts["graph.edges_built"] += len(result.edges)


# (module, name, span or None, counter or None)
TARGETS = [
    ("recognize", "bounded_orientation", "orient.bounded", None),
    ("orient", "feasible_circulation", "flow.circulation", _circulation),
    ("recognize", "reorient_to_source", "orient.reorient", _reorient),
    ("recognize", "orient_from_forests", "orient.from_forests", None),
    ("recognize", "forest_decomposition", "forests.decompose", None),
    ("forests", "violating_set_from_failed_decomposition", "forests.certificate", _rejection),
    ("recognize", "rooted_violation", "rooted.query", _rooted),
    ("recognize", "make_certificate", "graph.certificate", None),
    ("forests", "make_certificate", "graph.certificate", None),
    ("recognize", "Graph", None, _graph),
]

ROOT = "recognize"
SPANS = ["graph.certificate", "flow.circulation", "orient.bounded", "orient.reorient",
         "orient.from_forests", "forests.decompose", "forests.certificate", "rooted.query",
         ROOT]
COUNTS = ["graph.builds", "graph.edges_built", "flow.circulation_arcs",
          "orient.reorient_calls", "forests.rejections", "rooted.queries", "rooted.arcs",
          "rooted.hits", "recognize.centroid_probes", "recognize.insert_probes"]


class Tracer:
    def __init__(self):
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._children = [0.0]  # child time of each open span
        self._saved: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self.miscounted: set[str] = set()  # counters whose call no longer fits

    def _span(self, name, fn, args, kwargs):
        start = time.perf_counter()
        self._children.append(0.0)
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            self.self_s[name] += elapsed - self._children.pop()
            self._children[-1] += elapsed

    def _wrap(self, fn, span, counter):
        def wrapper(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
            else:
                result = self._span(span, fn, args, kwargs)
            if counter is not None:
                try:
                    counter(args, result, self.counts)
                except (AttributeError, IndexError, TypeError):
                    self.miscounted.add(counter.__name__)
            return result
        return wrapper

    def install(self) -> None:
        self.absent = []
        for module_name, attr, span, counter in TARGETS:
            module = sys.modules.get(f"klsparse.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span, counter))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)

    def root(self, check):
        """``check`` wrapped as the root span."""
        def traced(*args):
            return self._span(ROOT, check, args, {})
        return traced

    def take(self) -> tuple[dict[str, float], dict[str, int]]:
        """Return and reset the self times and counts gathered so far."""
        out = self.self_s, self.counts
        self.self_s = dict.fromkeys(SPANS, 0.0)
        self.counts = dict.fromkeys(COUNTS, 0)
        return out
