"""Outside-in layer trace of swk, installed from the benchmark's own files.

Every public function of each traced ``swk`` module is replaced by a
wrapper that records a span (layer, start, end, parent span, operation).
swk's modules import functions by name, so the wrapper is bound in every
``swk.*`` namespace that holds the original; patching only the defining
module would miss those callers.  A few methods are wrapped on their
class (``Graph.__init__`` and the ``Report`` methods).  ``swk.bitset`` and
``swk.errors`` are too fine-grained to time.

Spans stay in memory and are written out when the run ends.  A layer's
self time is its spans' duration minus the time covered by their direct
children; ``untraced.self_s`` is operation wall time outside any span, so
the self times of all layers plus ``untraced.self_s`` add up to the traced
operations' wall time.
"""

from __future__ import annotations

import functools
import inspect
import sys
from math import comb
from time import perf_counter

MODULES = ("graphs", "generators", "metric", "steiner", "structure", "blocks",
           "families", "verify", "report", "cli")

# Functions with a layer of their own; every other public function of a
# module falls in "<module>.other" (or "<module>" for the modules below).
_LAYERS = {
    "graphs.parse_edgelist": "graphs.parse",
    "graphs.parse_graph6": "graphs.parse",
    "graphs.read_graph6_file": "graphs.parse",
    "graphs.Graph.__init__": "graphs.build",
    "metric.all_pairs_distances": "metric.all_pairs_distances",
    "metric.interval_masks": "metric.interval_masks",
    "steiner.steiner_distance_dw": "steiner.steiner_distance_dw",
    "steiner.steiner_distance_oracle": "steiner.steiner_distance_oracle",
    "steiner.steiner_distance_3": "steiner.steiner_distance_3",
    "steiner.check_bounds": "steiner.check_bounds",
    "structure.classify_triples": "structure.classify_triples",
    "structure.is_modular": "structure.is_modular",
    "report.Report.to_json": "report.render",
    "report.Report.to_plain": "report.render",
    "cli.main": "cli.main",
}
_BUILDERS = {"make_family", "path_graph", "cycle_graph", "complete_graph",
             "complete_bipartite_graph", "star_graph", "hypercube",
             "fibonacci_cube", "lucas_cube", "cartesian_product"}
_WHOLE_MODULE = {"generators", "blocks", "families", "verify", "cli"}
_CLASS_METHODS = {"graphs": ("Graph", ("__init__",)),
                  "report": ("Report", ("to_json", "to_plain", "add_result",
                                        "add_flag", "add_check", "ok"))}

# Every layer and the counters it reports besides calls and self_s.
LAYERS = {
    "graphs.build": ("vertices",),
    "graphs.parse": ("bytes",),
    "graphs.other": (),
    "generators": (),
    "metric.all_pairs_distances": ("sources", "entries"),
    "metric.interval_masks": ("masks",),
    "metric.other": (),
    "steiner.sw3": ("triples",),
    "steiner.swk": ("subsets", "dp_states"),
    "steiner.steiner_distance_dw": (),
    "steiner.steiner_distance_oracle": (),
    "steiner.steiner_distance_3": (),
    "steiner.check_bounds": (),
    "steiner.other": (),
    "structure.classify_triples": ("triples",),
    "structure.is_modular": ("false_ratio",),
    "structure.other": (),
    "blocks": (),
    "families": (),
    "verify": (),
    "report.render": ("bytes",),
    "report.other": (),
    "cli.main": (),
}
UNITS = {"calls": "count", "self_s": "s", "bytes": "bytes", "false_ratio": "ratio"}


def _layer_of(module: str, qualname: str) -> str:
    key = f"{module}.{qualname}"
    if key in _LAYERS:
        return _LAYERS[key]
    if module == "graphs" and qualname in _BUILDERS:
        return "graphs.build"
    if module == "cli":
        return "cli.main"
    if module in _WHOLE_MODULE:
        return module
    return f"{module}.other"


def _arg(args, kwargs, i, name):
    return args[i] if len(args) > i else kwargs[name]


def _steiner_wiener(args, kwargs):
    """SW_k spans: k = 3 is the triple scan, k >= 4 the per-subset DP."""
    n, k = _arg(args, kwargs, 0, "G").n, _arg(args, kwargs, 1, "k")
    if k == 3:
        return "steiner.sw3", {"triples": comb(n, 3)}
    if k >= 4:
        subsets = comb(n, k)
        return "steiner.swk", {"subsets": subsets, "dp_states": subsets * (1 << k) * n}
    return "steiner.other", None


def _apsp(args, kwargs):
    n = _arg(args, kwargs, 0, "G").n
    return None, {"sources": n, "entries": n * n}


def _masks(args, kwargs):
    return None, {"masks": _arg(args, kwargs, 0, "D").shape[0] ** 2}


def _triples(args, kwargs):
    return None, {"triples": comb(_arg(args, kwargs, 0, "G").n, 3)}


def _graph_init(args, kwargs):
    return None, {"vertices": _arg(args, kwargs, 1, "n")}


# Counters computed from call arguments; a returned layer overrides the
# function's own.  read_graph6_file has none: its parse_graph6 calls count.
_ON_CALL = {
    "steiner.steiner_wiener": _steiner_wiener,
    "metric.all_pairs_distances": _apsp,
    "metric.interval_masks": _masks,
    "structure.classify_triples": _triples,
    "graphs.Graph.__init__": _graph_init,
    "graphs.parse_edgelist": lambda a, kw: (None, {"bytes": len(_arg(a, kw, 0, "text"))}),
    "graphs.parse_graph6": lambda a, kw: (None, {"bytes": len(_arg(a, kw, 0, "data"))}),
}
# Counters computed from results.
_ON_RETURN = {
    "structure.is_modular": lambda r: {"false": int(not r)},
    "report.Report.to_json": lambda r: {"bytes": len(r)},
    "report.Report.to_plain": lambda r: {"bytes": len(r)},
}


class Tracer:
    """Span recorder; one per traced run."""

    def __init__(self):
        self.layer: list[str] = []
        self.start: list[float] = []
        self.end: list[float] = []
        self.parent: list[int] = []
        self.op: list[int] = []
        self.counts: dict[int, dict[str, int]] = {}
        self.stack: list[int] = []
        self.current_op = -1

    def _wrap(self, fn, key: str, layer: str):
        on_call = _ON_CALL.get(key)
        on_return = _ON_RETURN.get(key)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_layer, counts = layer, None
            if on_call is not None:
                override, counts = on_call(args, kwargs)
                span_layer = override or layer
            i = len(tracer.layer)
            tracer.layer.append(span_layer)
            tracer.parent.append(tracer.stack[-1] if tracer.stack else -1)
            tracer.op.append(tracer.current_op)
            tracer.end.append(0.0)
            tracer.stack.append(i)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[i] = perf_counter()
                tracer.stack.pop()
            if on_return is not None:
                counts = {**(counts or {}), **on_return(result)}
            if counts:
                tracer.counts[i] = counts
            return result

        return traced

    def install(self) -> None:
        """Wrap every public function of the traced modules, in every swk
        namespace that binds it, and the listed class methods."""
        namespaces = [m for name, m in sys.modules.items()
                      if name == "swk" or name.startswith("swk.")]
        for short in MODULES:
            module = sys.modules[f"swk.{short}"]
            for name, fn in list(vars(module).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                key = f"{short}.{name}"
                wrapped = self._wrap(fn, key, _layer_of(short, name))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, attr, wrapped)
            if short in _CLASS_METHODS:
                cls_name, methods = _CLASS_METHODS[short]
                cls = getattr(module, cls_name)
                for meth in methods:
                    qual = f"{cls_name}.{meth}"
                    setattr(cls, meth, self._wrap(getattr(cls, meth), f"{short}.{qual}",
                                                  _layer_of(short, qual)))

    def summary(self, op_walls: list[float]) -> dict[str, tuple[float, str]]:
        """Per-layer metrics: calls (entries into the layer from outside
        it), self_s, counters, and the untraced remainder."""
        n = len(self.layer)
        child = [0.0] * n
        root_cover = [0.0] * len(op_walls)
        for i in range(n):
            p = self.parent[i]
            dur = self.end[i] - self.start[i]
            if p >= 0:
                child[p] += dur
            else:
                root_cover[self.op[i]] += dur
        stats = {layer: {"calls": 0, "self_s": 0.0, "false": 0,
                         **{c: 0 for c in extra}} for layer, extra in LAYERS.items()}
        for i in range(n):
            s = stats[self.layer[i]]
            s["self_s"] += self.end[i] - self.start[i] - child[i]
            p = self.parent[i]
            if p < 0 or self.layer[p] != self.layer[i]:
                s["calls"] += 1
            for name, value in self.counts.get(i, {}).items():
                s[name] += value
        out: dict[str, tuple[float, str]] = {}
        for layer, extra in LAYERS.items():
            s = stats[layer]
            if "false_ratio" in extra:
                s["false_ratio"] = s["false"] / s["calls"] if s["calls"] else 0.0
            for name in ("calls", "self_s", *extra):
                out[f"{layer}.{name}"] = (s[name], UNITS.get(name, "count"))
        untraced = sum(w - c for w, c in zip(op_walls, root_cover))
        out["untraced.self_s"] = (untraced, "s")
        return out

    def write(self, path) -> None:
        with open(path, "w") as f:
            f.write("op\tspan\tparent\tlayer\tstart\tend\n")
            for i in range(len(self.layer)):
                f.write(f"{self.op[i]}\t{i}\t{self.parent[i]}\t{self.layer[i]}\t"
                        f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n")
