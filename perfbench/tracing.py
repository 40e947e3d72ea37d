"""Span tracing of spanopt's layers, installed from outside the library.

Every public function of the layer modules is wrapped wherever a caller looks
it up: in its own module and in every spanopt module that imported it by name
(`span` and `baselines` both bind `sym_eig_small`, for example).  A span keeps
its name, the binding it was called through, start, end, parent and a count
(rows gathered for objectives calls, Hessian-vector columns for hvp calls).
Spans stay in memory; the benchmark aggregates them per solve and, at the
end, writes out those of the first traced set-up and solve of each method.
Functions that a later version removes are simply absent: their metrics read
zero.
"""

from __future__ import annotations

import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

LAYERS = ("datasets", "objectives", "hvp", "rangefinder", "linalg", "span", "baselines")
# Modules whose name bindings are rewritten; `bench`/`cli` are the program's
# own harness and are not measured.
BINDING_MODULES = ("spanopt",) + tuple(f"spanopt.{name}" for name in LAYERS)


@dataclass
class Span:
    name: str  # "<layer>.<function>", or a root the benchmark opened
    binding: str  # module the call was looked up in
    parent: int  # index into the tracer's list, -1 for a root
    count: int = 0
    start: float = 0.0
    end: float = 0.0


def _rows(batch) -> int:
    return 0 if batch is None else len(batch)


def _columns(v) -> int:
    shape = getattr(v, "shape", ())
    return shape[1] if len(shape) == 2 else 1


# Per-layer counts read from one argument: rows gathered by batch indexing for
# objectives functions that take a batch, Hessian-vector columns for hvp
# functions that take a direction block.
_COUNTERS = {"objectives": ("batch", _rows), "hvp": ("v", _columns)}


def _counter(layer: str, fn):
    """(position, name, count function) of the counted argument, or None."""
    if layer not in _COUNTERS:
        return None
    arg, count = _COUNTERS[layer]
    params = list(inspect.signature(fn).parameters)
    return (params.index(arg), arg, count) if arg in params else None


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    _stack: list = field(default_factory=list)
    _restore: list = field(default_factory=list)

    def clear(self) -> None:
        self.spans = []

    @contextmanager
    def root(self, name: str):
        """A span the benchmark opens around a solve or a set-up."""
        record = Span(name, "perfbench", self._stack[-1] if self._stack else -1)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        record.start = time.perf_counter()
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, layer: str, fn, binding: str):
        name = f"{layer}.{fn.__name__}"
        counter = _counter(layer, fn)

        def traced(*args, **kwargs):
            stack = self._stack
            record = Span(name, binding, stack[-1] if stack else -1)
            if counter is not None:
                position, arg, count = counter
                record.count = count(args[position] if len(args) > position else kwargs.get(arg))
            self.spans.append(record)
            stack.append(len(self.spans) - 1)
            record.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record.end = time.perf_counter()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every public layer function at every binding that names it."""
        targets = {}
        for layer in LAYERS:
            module = importlib.import_module(f"spanopt.{layer}")
            for name, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not name.startswith("_"):
                    targets[id(fn)] = (layer, fn)
        for module_name in BINDING_MODULES:
            module = importlib.import_module(module_name)
            binding = module_name.rpartition(".")[2]
            for name, value in list(vars(module).items()):
                layer, fn = targets.get(id(value), (None, None))
                if fn is value:
                    setattr(module, name, self._wrap(layer, fn, binding))
                    self._restore.append((module, name, fn))

    def uninstall(self) -> None:
        for module, name, fn in reversed(self._restore):
            setattr(module, name, fn)
        self._restore = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()


def layer_of(span: Span) -> str:
    return span.name.split(".", 1)[0]


def aggregate(spans: list, busy) -> dict:
    """Per-function and per-layer totals over one solve's spans.

    A span's duration leaves out ``busy(start, end)``, the benchmark's own
    calibration work that ran inside it.

    Keys: ``calls``, ``full_calls`` (objectives calls without a batch, i.e.
    over all rows), ``inclusive_s`` and ``count`` per function name;
    ``binding_calls`` and ``binding_s`` per (function name, binding);
    ``self_s`` and ``outer_count`` per layer.  Self time is a span's duration
    minus the time its direct children cover; ``outer_count`` sums counts over
    spans whose parent is in another layer, so a block product that loops
    over single products is counted once.
    """
    durations = [record.end - record.start - busy(record.start, record.end) for record in spans]
    child_time = [0.0] * len(spans)
    for record, duration in zip(spans, durations):
        if record.parent >= 0:
            child_time[record.parent] += duration
    out = {key: {} for key in (
        "calls", "full_calls", "inclusive_s", "count", "binding_calls", "binding_s", "self_s", "outer_count"
    )}

    def add(kind, key, amount):
        out[kind][key] = out[kind].get(key, 0) + amount

    for i, (record, duration) in enumerate(zip(spans, durations)):
        layer = layer_of(record)
        binding = (record.name, record.binding)
        add("calls", record.name, 1)
        add("count", record.name, record.count)
        add("binding_calls", binding, 1)
        add("self_s", layer, duration - child_time[i])
        if layer == "objectives" and record.count == 0:
            add("full_calls", record.name, 1)
        parent: Optional[Span] = spans[record.parent] if record.parent >= 0 else None
        if parent is None or parent.name != record.name:
            add("inclusive_s", record.name, duration)
            add("binding_s", binding, duration)
        if parent is None or layer_of(parent) != layer:
            add("outer_count", layer, record.count)
    return out
