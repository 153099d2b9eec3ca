"""Outside-in tracer for the hemptwin modules.

The tracer patches the package at run time and restores it afterwards; the
program itself carries no tracing code.  While installed it replaces every
public function and method of the layer modules (plus ``__call__``, the
model-evaluation entry point) with a wrapper, in every hemptwin namespace that
holds a reference to it, so calls made through ``from .x import f`` bindings
are seen too.

Two modes:

* ``count`` -- each wrapper bumps a per-name call counter; no clock is read
  and callbacks are left alone.  This is the cheap instrumentation behind the
  untraced run's exact-count sheet.
* ``span`` -- each wrapper records a span (name, start, end, parent, subtree end) into
  compact in-memory arrays.  Callbacks handed to ``EventCalendar.schedule``,
  ``ResourcePool.request`` and ``LedgerSystem.submit`` are wrapped as well and
  attributed to the layer of the module that defined them
  (``callback.__module__``), so the kernel's self time excludes the handler
  work it dispatches.

A span's self time is its duration minus the durations of its direct
children; a layer's self time is the sum over its spans.
"""

from __future__ import annotations

import importlib
import inspect
import time
from array import array

LAYERS = (
    "kernel",
    "randomness",
    "ledger",
    "simulation",
    "stages",
    "domain",
    "config",
    "reporting",
    "cli",
    "shapley",
    "riskmodel",
)
PACKAGE = "hemptwin"
CALLBACK = "<callback>"
FIRST = "@first"  # suffix for a draw that also builds the stream's generator

# methods whose callback argument is wrapped in span mode: (class, method) -> arg index
_CALLBACK_ARGS = {
    ("EventCalendar", "schedule"): 2,
    ("ResourcePool", "request"): 2,
    ("LedgerSystem", "submit"): 2,
}
DRAW_METHODS = ("uniform", "exponential", "standard_normal", "bernoulli", "random",
                "permutation")


def layer_of(module_name: str) -> str:
    """Layer for a module name: the hemptwin submodule, or 'other'."""
    head, _, tail = module_name.rpartition(".")
    return tail if head == PACKAGE and tail in LAYERS else "other"


class Tracer:
    """Counters or spans for every traced call, with install/uninstall."""

    def __init__(self, mode: str) -> None:
        if mode not in ("count", "span"):
            raise ValueError(f"unknown tracer mode {mode!r}")
        self.mode = mode
        self.names: list[str] = []  # name id -> "layer.Qual.name"
        self.layers: list[str] = []  # name id -> layer
        self._ids: dict[str, int] = {}
        self.counts: list[int] = []  # count mode: calls per name id
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.stop = array("i")  # one past the span's last descendant
        self._stack = [-1]
        self.peak_calendar = 0
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ name ids

    def name_id(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.layers.append(layer)
            self.counts.append(0)
        return nid

    # ------------------------------------------------------------ wrappers

    def _wrap(self, fn, nid: int):
        if self.mode == "count":
            counts = self.counts

            def counted(*args, **kwargs):
                counts[nid] += 1
                return fn(*args, **kwargs)

            return counted
        start, end, name, parent, stop = (self.start, self.end, self.name, self.parent,
                                          self.stop)
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1])
            end.append(0.0)
            stop.append(0)
            stack.append(i)
            start.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stop[i] = len(start)
                stack.pop()

        return traced

    def _callback(self, cb):
        layer = layer_of(getattr(cb, "__module__", None) or "")
        return self._wrap(cb, self.name_id(f"{layer}.{CALLBACK}", layer))

    def _wrap_method(self, cls, attr: str, fn, layer: str):
        qual = f"{layer}.{cls.__name__}.{attr}"
        inner = self._wrap(fn, self.name_id(qual, layer))
        if cls.__name__ == "RngStream" and attr in DRAW_METHODS:
            first = self._wrap(fn, self.name_id(qual + FIRST, layer))

            def draw(stream, *args, **kwargs):
                if stream._gen is None:
                    return first(stream, *args, **kwargs)
                return inner(stream, *args, **kwargs)

            return draw
        cb_index = _CALLBACK_ARGS.get((cls.__name__, attr))
        if cb_index is None:
            return inner
        wrap_cb = self._callback if self.mode == "span" else None
        is_schedule = attr == "schedule"

        def with_callback(*args, **kwargs):
            if wrap_cb is not None and len(args) > cb_index and args[cb_index] is not None:
                args = args[:cb_index] + (wrap_cb(args[cb_index]),) + args[cb_index + 1:]
            out = inner(*args, **kwargs)
            if is_schedule and len(args[0]._heap) > self.peak_calendar:
                self.peak_calendar = len(args[0]._heap)
            return out

        return with_callback

    # ------------------------------------------------------ install/remove

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> "Tracer":
        """Wrap every traced callable of the hemptwin layer modules."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [importlib.import_module(f"{PACKAGE}.{m}") for m in LAYERS]
        modules.append(importlib.import_module(PACKAGE))
        wrapped: dict[int, object] = {}  # id(original function) -> wrapper
        try:
            for mod in modules:
                for attr, obj in list(vars(mod).items()):
                    if attr.startswith("_"):
                        continue
                    layer = layer_of(getattr(obj, "__module__", None) or "")
                    if layer == "other":
                        continue
                    if inspect.isclass(obj):
                        if obj.__module__ == mod.__name__:
                            self._install_class(obj, layer)
                    elif inspect.isfunction(obj):
                        if id(obj) not in wrapped:
                            nid = self.name_id(f"{layer}.{obj.__name__}", layer)
                            wrapped[id(obj)] = self._wrap(obj, nid)
                        self._patch(mod, attr, wrapped[id(obj)])
        except BaseException:
            self.uninstall()
            raise
        return self

    def _install_class(self, cls, layer: str) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__call__":
                continue
            if isinstance(raw, (staticmethod, classmethod)):
                self._patch(cls, attr, type(raw)(self._wrap_method(cls, attr, raw.__func__, layer)))
            elif inspect.isfunction(raw):
                self._patch(cls, attr, self._wrap_method(cls, attr, raw, layer))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # --------------------------------------------------------------- views

    def __len__(self) -> int:
        return len(self.start)

    def truncate(self, n: int) -> None:
        """Forget every span from index `n` on."""
        for arr in (self.start, self.end, self.name, self.parent, self.stop):
            del arr[n:]

    def call_counts(self) -> dict[str, int]:
        """Calls per traced name (count mode), omitting names never called."""
        return {n: c for n, c in zip(self.names, self.counts) if c}
