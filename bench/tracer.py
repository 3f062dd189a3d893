"""Span tracing of slicefock's layers from outside the package.

:meth:`Tracer.install` wraps every public function of each layer module
(and the public methods and arithmetic operators of the classes defined
there) and rebinds the wrapper under every name that held the original in
any loaded ``slicefock`` module, because ``spaces``, ``approx`` and
``operators`` import ``eval_on_slice`` and ``prepared_for_radius`` by name.
:meth:`Tracer.restore` puts every original back.

Spans (name, start, end, parent) and the per-call counters live in flat
arrays in memory and are written out once, by :meth:`Tracer.save`.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

#: The layers, in the order they are reported.  ``prng`` and ``errors``
#: are not layers: their time counts toward their callers.
LAYERS = ("quaternion", "series", "quadrature", "spaces", "operators", "approx",
          "kernels", "cli")

#: Operators of the layer classes that count as public calls.
OPERATORS = ("__add__", "__sub__", "__mul__", "__rmul__", "__neg__", "__abs__")

#: Spans kept in memory; counters keep counting past it.
MAX_SPANS = 4_000_000

ROOT = "bench.result"
MARK = "__bench_traced__"


def _layer_of(obj) -> str | None:
    mod = getattr(obj, "__module__", None) or ""
    head, _, layer = mod.rpartition(".")
    return layer if head == "slicefock" and layer in LAYERS else None


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "slicefock" or name.startswith("slicefock."))]


class Tracer:
    def __init__(self):
        self.names: list[str] = [ROOT]
        self._ids: dict[str, int] = {ROOT: 0}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack = [-1]
        self._dropped = 0
        self._bindings: list[tuple[object, str, object]] = []
        # counters measured where the work happens
        self.eval_points = 0
        self.eval_terms = 0
        self.grid_builds = 0
        self.grid_nodes = 0
        self.norm_calls = 0
        self.norm_planes = 0
        self._spaces_depth = 0
        self._planes_open = 0
        self._prepared_degree = -1

    # -- spans ---------------------------------------------------------

    def _id(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
        return sid

    def _open(self, sid: int) -> int:
        if len(self.start) >= MAX_SPANS:
            self._dropped += 1
            return -1
        idx = len(self.start)
        self.name_id.append(sid)
        self.parent.append(self._stack[-1])
        self.start.append(0.0)
        self.end.append(0.0)
        self.raised.append(0)
        return idx

    def span(self, name: str, fn, *args, **kwargs):
        """Run fn under a span named ``name`` (the benchmark's root span)."""
        return self._wrap(fn, self._id(name), None)(*args, **kwargs)

    def _wrap(self, fn, sid: int, hook):
        tracer = self
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = tracer._open(sid)
            stack.append(idx)
            token = hook.enter(args, kwargs) if hook else None
            failed = True
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                failed = False
                return result
            finally:
                t1 = clock()
                stack.pop()
                if idx >= 0:
                    tracer.start[idx] = t0
                    tracer.end[idx] = t1
                    tracer.raised[idx] = failed
                if hook:
                    hook.exit(token, None if failed else result)

        setattr(traced, MARK, fn)
        return traced

    # -- install / restore ----------------------------------------------

    def install(self) -> None:
        modules = _package_modules()
        wrappers: dict[int, object] = {}

        def wrapper_for(fn, qualname):
            w = wrappers.get(id(fn))
            if w is None:
                w = wrappers[id(fn)] = self._wrap(fn, self._id(qualname),
                                                  _HOOKS.get(qualname, lambda t: None)(self))
            return w

        for mod in modules:
            for name, obj in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                layer = _layer_of(obj)
                if layer is None:
                    continue
                if isinstance(obj, type):
                    if mod.__name__.rpartition(".")[2] == layer:
                        self._wrap_class(obj, layer, wrapper_for)
                elif callable(obj) and hasattr(obj, "__code__"):
                    self._bind(mod, name, wrapper_for(obj, f"{layer}.{obj.__name__}"))

    def _wrap_class(self, cls, layer, wrapper_for) -> None:
        for name, attr in list(vars(cls).items()):
            if name.startswith("_") and name not in OPERATORS:
                continue
            qual = f"{layer}.{cls.__name__}.{name}"
            if isinstance(attr, staticmethod):
                self._bind(cls, name, staticmethod(wrapper_for(attr.__func__, qual)))
            elif callable(attr) and hasattr(attr, "__code__"):
                self._bind(cls, name, wrapper_for(attr, qual))

    def _bind(self, owner, name, value) -> None:
        self._bindings.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        for owner, name, original in reversed(self._bindings):
            setattr(owner, name, original)
        self._bindings.clear()

    # -- results ---------------------------------------------------------

    def arrays(self):
        names = np.asarray(self.name_id, dtype=np.int32)
        parent = np.asarray(self.parent, dtype=np.int64)
        start = np.asarray(self.start)
        end = np.asarray(self.end)
        return names, parent, start, end, np.asarray(self.raised, dtype=bool)

    def self_times(self) -> np.ndarray:
        """Span duration minus the time its child spans cover."""
        _, parent, start, end, _ = self.arrays()
        dur = end - start
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        return dur - child

    def layer_metrics(self) -> dict:
        names, _, _, _, raised = self.arrays()
        own = self.self_times()
        layer_of_id = np.array([n.split(".")[0] for n in self.names])
        out = {}
        for layer in LAYERS:
            ids = np.flatnonzero(layer_of_id == layer)
            sel = np.isin(names, ids)
            out[f"{layer}.calls"] = int(np.count_nonzero(sel))
            out[f"{layer}.self_s"] = float(np.sum(own[sel]))
            out[f"{layer}.raised"] = int(np.count_nonzero(raised[sel]))
        for qual in ("series.eval_on_slice", "series.prepared_for_radius",
                     "series.evaluate", "approx.modulus", "approx.best_approx_lp",
                     "kernels.fit_with_sections", "cli.main"):
            sel = names == self._ids.get(qual, -1)
            out[f"{qual}.calls"] = int(np.count_nonzero(sel))
            if qual in ("series.eval_on_slice", "series.prepared_for_radius"):
                out[f"{qual}.self_s"] = float(np.sum(own[sel]))
        out["series.eval_points"] = self.eval_points
        out["series.eval_terms"] = self.eval_terms
        out["spaces.planes_per_norm"] = self.norm_planes / max(self.norm_calls, 1)
        out["quadrature.grid_builds"] = self.grid_builds
        out["quadrature.grid_nodes"] = self.grid_nodes
        return out

    def save(self, path) -> None:
        names, parent, start, end, raised = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=names, parent=parent,
                 start=start, end=end, raised=raised, self_s=self.self_times(),
                 dropped=np.array(self._dropped))


def leftover_wrappers() -> list[str]:
    """Names in any slicefock module or class still bound to a wrapper."""
    found = []
    for mod in _package_modules():
        for name, obj in vars(mod).items():
            if hasattr(obj, MARK):
                found.append(f"{mod.__name__}.{name}")
            if isinstance(obj, type):
                for attr, val in vars(obj).items():
                    fn = val.__func__ if isinstance(val, staticmethod) else val
                    if hasattr(fn, MARK):
                        found.append(f"{mod.__name__}.{name}.{attr}")
    return found


# ---------------------------------------------------------------------------
# counters hooked to particular functions

class _EvalOnSlice:
    """Points and Horner terms of each plane evaluation; terms use the
    degree actually evaluated (after the call's own tail preparation)."""

    def __init__(self, tracer):
        self.t = tracer

    def enter(self, args, kwargs):
        t = self.t
        t._prepared_degree = -1
        if t._spaces_depth:
            t._planes_open += 1
        f = args[0] if args else kwargs["f"]
        z = args[2] if len(args) > 2 else kwargs["z"]
        prepare = args[3] if len(args) > 3 else kwargs.get("prepare", True)
        return f.degree, int(np.size(z)), prepare

    def exit(self, token, result):
        degree, points, prepare = token
        if prepare and self.t._prepared_degree >= 0:
            degree = self.t._prepared_degree
        self.t.eval_points += points
        self.t.eval_terms += points * (degree + 1)


class _Prepared:
    def __init__(self, tracer):
        self.t = tracer

    def enter(self, args, kwargs):
        return None

    def exit(self, token, result):
        if result is not None:
            self.t._prepared_degree = result[0].degree


class _Grid:
    def __init__(self, tracer):
        self.t = tracer

    def enter(self, args, kwargs):
        return None

    def exit(self, token, result):
        if result is not None:
            self.t.grid_builds += 1
            self.t.grid_nodes += int(np.prod(result.sizes))


class _SpacesEntry:
    """Plane evaluations under the outermost ``spaces`` call, per such call
    that evaluated any plane."""

    def __init__(self, tracer):
        self.t = tracer

    def enter(self, args, kwargs):
        t = self.t
        outer = t._spaces_depth == 0
        if outer:
            t._planes_open = 0
        t._spaces_depth += 1
        return outer

    def exit(self, outer, result):
        t = self.t
        t._spaces_depth -= 1
        if outer and t._planes_open:
            t.norm_calls += 1
            t.norm_planes += t._planes_open


_HOOKS = {
    "series.eval_on_slice": _EvalOnSlice,
    "series.prepared_for_radius": _Prepared,
    "quadrature.slice_grid": _Grid,
    "quadrature.volume_grid": _Grid,
}
for _name in ("norm", "norm_report", "inner_first", "inner_second",
              "growth_bound_check", "embedding_check", "slice_norm_ratio",
              "log_max_modulus", "order_type"):
    _HOOKS[f"spaces.{_name}"] = _SpacesEntry
