"""Span tracer that wraps geodescent's public functions from outside.

``Tracer.install()`` replaces, on the live modules, every public module-level
function of the seven layer modules, every module-level alias of one (such
as ``acceleration.rgd_step`` or ``cli.load_trace``), the public methods of
the ``Manifold`` base class, ``value``/``gradient``/``hessian_matrix`` of each
concrete ``Objective`` and the ``TraceWriter`` methods.  ``uninstall()``
puts the originals back.  The wrappers change no argument or result, so
traces written while tracing are byte-identical to untraced ones.

Each call becomes a span (name, start, end, parent).  Spans stay in memory
and ``save`` writes them out.  Per-name call counts, total time, self time
(duration minus the time covered by child spans) and parent->child call
counts are kept alongside.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from array import array

LAYERS = ("geometry", "objectives", "descent", "acceleration", "harness", "traces", "cli")

# Method names that become the span names objectives.value, .gradient, .hessian.
_OBJECTIVE_METHODS = {"value": "value", "gradient": "gradient", "hessian_matrix": "hessian"}
_TRACE_WRITER_METHODS = {"__init__": "TraceWriter", "record": "record", "close": "close"}
# Private functions that mark a layer boundary the public API does not show.
_PRIVATE_BOUNDARIES = {("harness", "_attach_reference_solution"): "reference_cache"}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.calls: list[int] = []
        self.total: list[float] = []
        self.self_time: list[float] = []
        self.pairs: dict[tuple[int, int], int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return self._ids[name]

    def _wrap(self, name: str, fn):
        nid = self._name_id(name)
        stack = self._stack
        pairs = self.pairs
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else None
            key = (parent[0] if parent else -1, nid)
            pairs[key] = pairs.get(key, 0) + 1
            idx = len(tracer.span_start)
            tracer.span_name.append(nid)
            tracer.span_parent.append(parent[1] if parent else -1)
            tracer.span_start.append(0.0)
            tracer.span_end.append(0.0)
            frame = [nid, idx, 0.0]          # name id, span index, child time
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                tracer.calls[nid] += 1
                tracer.total[nid] += dur
                tracer.self_time[nid] += dur - frame[2]
                if parent is not None:
                    parent[2] += dur
                tracer.span_start[idx] = start
                tracer.span_end[idx] = end

        return traced

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap the seven layer modules of the imported ``geodescent``."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        mods = {layer: importlib.import_module(f"geodescent.{layer}") for layer in LAYERS}
        wrappers = {}  # id(original function) -> wrapper
        for layer, mod in mods.items():
            for attr, val in list(vars(mod).items()):
                if not inspect.isfunction(val) or val.__module__ != mod.__name__:
                    continue
                span = _PRIVATE_BOUNDARIES.get((layer, attr))
                if span is None and attr.startswith("_"):
                    continue
                wrappers[id(val)] = self._wrap(f"{layer}.{span or attr}", val)
        # home modules and every alias imported elsewhere
        for mod in mods.values():
            for attr, val in list(vars(mod).items()):
                if inspect.isfunction(val) and id(val) in wrappers:
                    self._patch(mod, attr, wrappers[id(val)])

        manifold = mods["geometry"].Manifold
        for attr, val in list(vars(manifold).items()):
            if inspect.isfunction(val) and not attr.startswith("_"):
                self._patch(manifold, attr, self._wrap(f"geometry.{attr}", val))

        base = mods["objectives"].Objective
        for cls in vars(mods["objectives"]).values():
            if inspect.isclass(cls) and issubclass(cls, base) and cls is not base:
                for attr, span in _OBJECTIVE_METHODS.items():
                    if attr in vars(cls):
                        self._patch(cls, attr, self._wrap(f"objectives.{span}", vars(cls)[attr]))

        writer = mods["traces"].TraceWriter
        for attr, span in _TRACE_WRITER_METHODS.items():
            self._patch(writer, attr, self._wrap(f"traces.{span}", vars(writer)[attr]))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()

    # -- results -----------------------------------------------------------

    def stats(self) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds."""
        return {n: {"calls": self.calls[i], "total_s": self.total[i], "self_s": self.self_time[i]}
                for i, n in enumerate(self.names) if self.calls[i]}

    def pair_calls(self, parent: str | None, child: str) -> int:
        """Calls of ``child`` made directly by ``parent`` (None: from outside)."""
        pid = -1 if parent is None else self._ids.get(parent)
        cid = self._ids.get(child)
        if pid is None or cid is None:
            return 0
        return self.pairs.get((pid, cid), 0)

    def layer_self(self) -> dict[str, float]:
        out = {layer: 0.0 for layer in LAYERS}
        for i, n in enumerate(self.names):
            out[n.split(".", 1)[0]] += self.self_time[i]
        return out

    def save(self, path: str):
        """Write the recorded spans as compressed arrays (.npz)."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start, dtype=np.float64),
            end=np.frombuffer(self.span_end, dtype=np.float64),
        )
