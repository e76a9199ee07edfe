"""Spans around the calls into each layer of `sepenum`, from outside it.

`Tracer.install()` replaces each traced function by a wrapper that
records a span: name, start, end, parent span and query id.  Modules
bind names with `from .graph import ...`, so a wrapper replaces the
original in every loaded `sepenum` module that holds it, not only in the
defining one.  A name that no longer exists is skipped and listed in
`Tracer.missing`.  Generator-returning functions are timed at creation
and then once per `next()`, so the lazy work of a stream is attributed to
the stream rather than to whoever consumes it.

Spans stay in memory until `write_spans`; `layer_totals` turns them into
calls, total time and self time per layer, where self time is a span's
duration minus the durations of its direct children.
"""

import importlib
import sys
import time
from dataclasses import dataclass

# layer -> (module, attribute path, is the result a generator?)
LAYERS: dict[str, list[tuple[str, str, bool]]] = {
    "graph.parse": [("sepenum.graph", "parse_graph", False)],
    "graph.rewrite": [("sepenum.graph", name, False)
                      for name in ("saturate", "add_star", "absorb")],
    "graph.predicate": [("sepenum.graph", name, False)
                        for name in ("is_separator", "is_minimal_separator")],
    "mincut.flow_calls": [("sepenum.mincut", "_min_cut", False)],
    "mincut.build": [("sepenum.mincut", "FlowNetwork.__init__", False)],
    "mincut.augment": [("sepenum.mincut", "FlowNetwork.max_flow", False)],
    "mincut.cut": [("sepenum.mincut", f"FlowNetwork.{name}", False)
                   for name in ("closest_cut", "furthest_cut")],
    "mincut.paths": [("sepenum.mincut", "FlowNetwork.disjoint_paths", False)],
    "important.enumerate": [("sepenum.important", "enumerate_important", False)],
    "important.filter": [("sepenum.important", "is_important", False)],
    "fpt.stream": [("sepenum.fpt", "iter_small_minimal", True)],
    "ranked.stream": [("sepenum.ranked", name, True)
                      for name in ("iter_ranked_separators", "iter_minimum_separators")],
}
# extra counts taken from a traced call's result: qualname -> (count, measure)
RESULT_COUNTS = {
    "FlowNetwork.max_flow": ("augmentations", lambda value: value),
    "FlowNetwork.disjoint_paths": ("path_vertices", lambda paths: sum(map(len, paths))),
    "enumerate_important": ("important_returned", len),
}
# the span the benchmark itself opens around each sepenum.cli.main call
CLI_LAYER = "cli.main"
ALL_LAYERS = [*LAYERS, CLI_LAYER]


@dataclass
class Span:
    name: str
    start: int  # perf_counter_ns
    end: int
    parent: int  # index into the span list, -1 for a root
    query: int


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.query = -1
        self.missing: list[str] = []
        self.counts = {name: 0 for name, _ in RESULT_COUNTS.values()}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span called name and return its result."""
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, 0, 0, parent, self.query)
        self.spans.append(span)
        self._stack.append(index)
        span.start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            span.end = time.perf_counter_ns()
            self._stack.pop()

    def _stream(self, name: str, generator):
        while True:
            try:
                item = self.call(name, next, generator)
            except StopIteration:
                return
            yield item

    def _wrap(self, layer: str, qualname: str, original, is_stream: bool):
        tracer = self
        if is_stream:
            def wrapper(*args, **kwargs):
                return tracer._stream(layer, tracer.call(layer, original, *args, **kwargs))
        else:
            count = RESULT_COUNTS.get(qualname)

            def wrapper(*args, **kwargs):
                result = tracer.call(layer, original, *args, **kwargs)
                if count is not None:
                    tracer.counts[count[0]] += count[1](result)
                return result
        wrapper.__wrapped__ = original
        return wrapper

    def install(self) -> None:
        """Wrap every traced name that exists; record the missing ones."""
        self.missing = []
        importlib.import_module("sepenum.cli")
        modules = [m for name, m in sys.modules.items()
                   if name == "sepenum" or name.startswith("sepenum.")]
        for layer, targets in LAYERS.items():
            for module_name, qualname, is_stream in targets:
                *path, attr = qualname.split(".")
                owner = sys.modules.get(module_name)
                for part in path:  # a class a later change may have removed
                    owner = vars(owner).get(part) if owner is not None else None
                original = vars(owner).get(attr) if owner is not None else None
                if original is None:
                    self.missing.append(f"{module_name}.{qualname}")
                    continue
                wrapper = self._wrap(layer, qualname, original, is_stream)
                holders = [owner] if path else [
                    m for m in modules if getattr(m, attr, None) is original]
                for holder in holders:
                    self._undo.append((holder, attr, original))
                    setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._undo):
            setattr(holder, attr, original)
        self._undo.clear()


def layer_totals(spans: list[Span]) -> dict[str, dict[str, float]]:
    """calls, ms and self_ms per span name."""
    child_ns = [0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            child_ns[span.parent] += span.end - span.start
    totals: dict[str, dict[str, float]] = {}
    for span, children in zip(spans, child_ns):
        row = totals.setdefault(span.name, {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        duration = span.end - span.start
        row["calls"] += 1
        row["ms"] += duration / 1e6
        row["self_ms"] += (duration - children) / 1e6
    return totals


def write_spans(spans: list[Span], path) -> None:
    with open(path, "w") as out:
        out.write("index\tname\tstart_ns\tend_ns\tparent\tquery\n")
        for i, s in enumerate(spans):
            out.write(f"{i}\t{s.name}\t{s.start}\t{s.end}\t{s.parent}\t{s.query}\n")
