"""Outside-in tracing of the framecalc layers.

The tracer rebinds, in every ``framecalc.*`` module namespace, each public
function of the package's layer modules to a wrapper that records a span
(name, start, end, parent id, call id).  Code inside the package looks
these names up in module globals at call time, so calls within a module
and across modules both go through the wrappers.  Public methods of the
package's classes are wrapped on the class; ``Scalar`` and ``Tensor``
methods, which run millions of times, are counted and timed but keep no
span record.  No file of the package changes.

Self time of a layer is the time spent in its wrapped functions minus the
time of wrapped callees.  Every layer runs on the calling thread, so no
layer ever waits on another one: waiting time is not applicable, not zero
by omission.
"""

from __future__ import annotations

import importlib
import inspect
import json
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "scalars",
    "tensors",
    "linalg",
    "frames",
    "connections",
    "analysis",
    "moduli",
    "catalog",
    "specfile",
    "cli",
)

# Dunder methods that count as one scalar ring operation each.
SCALAR_OPS = (
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__",
    "__mul__", "__rmul__", "__truediv__", "__pow__",
)
HOT_DUNDERS = {
    "Scalar": SCALAR_OPS + ("__eq__",),
    "Tensor": ("__init__", "__getitem__", "__add__", "__sub__", "__neg__", "__eq__"),
}

# (callee, ancestor) pairs counted when the callee runs under the ancestor.
NESTED_COUNTS = (
    ("linalg.rank", "analysis.infinitesimal_holonomy"),
    ("connections.torsion", "analysis.verify_automorphism"),
    ("connections.curvature", "analysis.verify_automorphism"),
)


def _rref_cells(args, result):
    rows = args[0]
    return len(rows) * len(rows[0]) if rows else 0


def _holonomy_generators(args, result):
    return len(result)


# Per-call quantities taken from arguments or results.
MEASURES = {
    "linalg.rref": _rref_cells,
    "analysis.infinitesimal_holonomy": _holonomy_generators,
}


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start, end, parent id, call id)
        self.calls = Counter()  # wrapped name -> calls
        self.self_s = defaultdict(float)  # wrapped name -> self seconds
        self.inclusive_s = defaultdict(float)  # span name -> outermost seconds
        self.measured = Counter()  # name -> summed MEASURES value
        self.nested = Counter()  # (callee, ancestor) -> calls
        self._depth = Counter()
        self._stack: list[list] = []  # [child seconds] per wrapped call in progress
        self._open_spans: list[int] = []  # ids of the spans in progress
        self._next_id = 0
        self.call_id = None
        self._saved: list[tuple] = []

    # -- wrappers -------------------------------------------------------------

    def _span_wrapper(self, fn, name):
        spans, calls, self_s, incl = self.spans, self.calls, self.self_s, self.inclusive_s
        depth, stack, open_spans = self._depth, self._stack, self._open_spans
        measure = MEASURES.get(name)
        watched = [(c, a) for c, a in NESTED_COUNTS if c == name]
        tracer = self

        def traced(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = open_spans[-1] if open_spans else None
            for pair in watched:
                if depth[pair[1]]:
                    tracer.nested[pair] += 1
            frame = [0.0]
            stack.append(frame)
            open_spans.append(span_id)
            depth[name] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                open_spans.pop()
                depth[name] -= 1
                dur = end - start
                self_s[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                if not depth[name]:
                    incl[name] += dur
                calls[name] += 1
                spans.append((span_id, name, start, end, parent, tracer.call_id))
            if measure is not None:
                tracer.measured[name] += measure(args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _hot_wrapper(self, fn, name):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        def counted(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - start
                stack.pop()
                self_s[name] += dur - frame[0]
                if stack:
                    stack[-1][0] += dur
                calls[name] += 1

        counted.__wrapped__ = fn
        return counted

    def root(self, name: str, fn, *args):
        """Run ``fn(*args)`` as the root span of one benchmark call."""
        return self._span_wrapper(fn, name)(*args)

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        modules = {m: importlib.import_module(f"framecalc.{m}") for m in LAYERS}
        namespaces = [importlib.import_module("framecalc")] + list(modules.values())
        replace: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    replace[id(obj)] = self._span_wrapper(obj, f"{layer}.{attr}")
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(layer, obj)
        for ns in namespaces:
            for attr, obj in list(vars(ns).items()):
                wrapper = replace.get(id(obj))
                if wrapper is not None and wrapper.__wrapped__ is obj:
                    self._saved.append((ns, attr, obj))
                    setattr(ns, attr, wrapper)

    def _wrap_class(self, layer: str, cls) -> None:
        hot = cls.__name__ in HOT_DUNDERS
        for attr, raw in list(vars(cls).items()):
            public = not attr.startswith("_")
            if not (public or attr in HOT_DUNDERS.get(cls.__name__, ())):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            make = self._hot_wrapper if hot else self._span_wrapper
            if isinstance(raw, classmethod):
                new = classmethod(make(raw.__func__, name))
            elif isinstance(raw, staticmethod):
                new = staticmethod(make(raw.__func__, name))
            elif inspect.isfunction(raw):
                new = make(raw, name)
            else:
                continue  # properties and data stay as they are
            self._saved.append((cls, attr, raw))
            setattr(cls, attr, new)

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._saved):
            setattr(owner, attr, obj)
        self._saved.clear()

    # -- results -----------------------------------------------------------------

    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for name, secs in self.self_s.items():
            layer = name.split(".", 1)[0]
            if layer in out:
                out[layer] += secs
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
