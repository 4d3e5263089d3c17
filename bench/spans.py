"""Per-layer spans recorded from outside nnapprox.

``Tracer.install`` wraps the public functions of each module (the layer) and
rebinds every name under which nnapprox modules import them, so that calls
between modules pass through the wrappers too; nothing under ``src/`` is
edited.  Each wrapper opens a span, and a span's self time is its duration
minus the time of the spans it opened.  Spans are folded into per-layer
totals as they close, which keeps memory flat however many calls run.

A call "enters" a layer when the span that caused it belongs to another
layer.  Work counts (points, terms, integrand evaluations) and failures are
taken at entries, so they do not depend on how a layer splits its work
internally.
"""

from __future__ import annotations

import functools
import math
import sys
import time
from collections import defaultdict

import numpy as np

# layer -> (owner, attribute) pairs; an owner is a module or class name
# resolved against the imported package.
LAYERS = {
    "cli": [("cli", "main"), ("cli", "run_subcommand")],
    "study": [("study", "convergence_sweep"), ("study", "fit_loglog_slope"),
              ("study", "second_moment_uniformity"), ("study", "stability_suite"),
              ("study", "records_to_csv"), ("study", "records_to_json")],
    "operator": [("operator", "approximate"), ("operator", "approximate_grid"),
                 ("operator", "sup_error"), ("operator", "stability_gap")],
    "moduli": [("moduli", "modulus"), ("moduli", "second_modulus"), ("moduli", "lp_norm"),
               ("moduli", "sup_norm"), ("moduli", "holder_constant")],
    "density": [("SymmetrizedDensity", "tail_cutoff"), ("SymmetrizedDensity", "partition_sum"),
                ("SymmetrizedDensity", "first_lattice_moment"),
                ("SymmetrizedDensity", "second_lattice_moment"),
                ("SymmetrizedDensity", "integral"), ("SymmetrizedDensity", "continuous_moment")],
    "quadrature": [("quadrature", "adaptive_simpson")],
    "activation": [("SymmetrizedDensity", "value"), ("SymmetrizedDensity", "__call__"),
                   ("activation", "activation_value")],
    "targets": [("FunctionSpec", "__call__")],
}

# Reported per layer, in this order; every name is also in BENCHMARK.json.
METRICS = {
    "operator": ("calls", "self_s", "points", "terms", "useful_term_ratio"),
    "density": ("calls", "self_s", "radius_s", "tail_radius", "failures"),
    "quadrature": ("calls", "self_s", "evals", "failures"),
    "activation": ("calls", "points", "self_s"),
    "moduli": ("calls", "self_s"),
    "targets": ("calls", "self_s", "points"),
    "study": ("calls", "self_s"),
    "cli": ("self_s", "bytes_out"),
}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, as listed in BENCHMARK.json."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith(".bytes_out"):
        return "bytes"
    return "count"


class _Span:
    __slots__ = ("layer", "child_s")

    def __init__(self, layer: str):
        self.layer = layer
        self.child_s = 0.0


class Tracer:
    """Installs span wrappers on an imported nnapprox and totals them per layer."""

    def __init__(self, lib):
        self.lib = lib
        self.stack: list[_Span] = []
        self.totals = {layer: defaultdict(float) for layer in METRICS}
        self._undo: list[tuple[object, str, object]] = []
        self._tail_cutoff = lib.density.SymmetrizedDensity.tail_cutoff

    # -- installation --------------------------------------------------------

    def _owner(self, name: str):
        classes = {"SymmetrizedDensity": self.lib.density.SymmetrizedDensity,
                   "FunctionSpec": self.lib.targets.FunctionSpec}
        return classes.get(name) or getattr(self.lib, name)

    def install(self) -> None:
        modules = [m for name, m in sys.modules.items()
                   if name == "nnapprox" or name.startswith("nnapprox.")]
        hooks = {
            ("operator", "approximate"): self._operator_points(lambda a: [a[3]]),
            ("operator", "approximate_grid"): self._operator_points(lambda a: a[3]),
            ("operator", "sup_error"): self._operator_points(lambda a: a[3]),
            ("operator", "stability_gap"): self._operator_points(lambda a: a[4], copies=2),
            ("SymmetrizedDensity", "tail_cutoff"): self._tail_radius,
            ("SymmetrizedDensity", "value"): self._points("activation", 1),
            ("SymmetrizedDensity", "__call__"): self._points("activation", 1),
            ("activation", "activation_value"): self._points("activation", 1),
            ("FunctionSpec", "__call__"): self._points("targets", 1),
        }
        for layer, entries in LAYERS.items():
            for owner_name, attr in entries:
                owner = self._owner(owner_name)
                original = owner.__dict__[attr]
                wrapped = self._wrap(layer, original, hooks.get((owner_name, attr)),
                                     count_evals=layer == "quadrature")
                if isinstance(owner, type):
                    self._rebind(owner, attr, wrapped)
                    continue
                for module in modules:
                    for name, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, name, wrapped)

    def _rebind(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, name, value = self._undo.pop()
            setattr(owner, name, value)

    # -- spans ---------------------------------------------------------------

    def _wrap(self, layer: str, fn, after, count_evals: bool):
        tracer = self
        totals = self.totals[layer]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.stack[-1] if tracer.stack else None
            entry = parent is None or parent.layer != layer
            if count_evals and entry:
                args = (tracer._counting(args[0]),) + args[1:]
            span = _Span(layer)
            tracer.stack.append(span)
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                elapsed = time.perf_counter() - start
                tracer.stack.pop()
                if parent is not None:
                    parent.child_s += elapsed
                totals["calls"] += 1
                totals["self_s"] += elapsed - span.child_s
                if entry and not ok:
                    totals["failures"] += 1
                if after is not None:
                    after(args, result if ok else None, entry, elapsed - span.child_s)

        return traced

    def _counting(self, integrand):
        totals = self.totals["quadrature"]

        def counted(x):
            totals["evals"] += np.size(x)
            return integrand(x)

        return counted

    def _points(self, layer: str, index: int):
        totals = self.totals[layer]

        def after(args, result, entry, self_s):
            totals["points"] += np.size(args[index])

        return after

    def _tail_radius(self, args, result, entry, self_s):
        totals = self.totals["density"]
        totals["radius_s"] += self_s
        if result is not None:
            totals["tail_radius"] = max(totals["tail_radius"], float(result))

    def _operator_points(self, grid_of, copies: int = 1):
        """Points, window terms and in-domain terms at entry to the operator.

        terms = points * (2 floor(K) + 1) with K from the public tail_cutoff;
        the useful terms are the window samples that fall inside the domain.
        """
        totals = self.totals["operator"]

        def after(args, result, entry, self_s):
            if result is None or not entry:
                return
            cfg, d, f = args[0], args[1], args[2]
            xs = np.asarray(grid_of(args), dtype=float).ravel()
            K = self._tail_cutoff(d, cfg.truncation_eps)
            u = cfg.n * xs
            lo = np.maximum(np.ceil(u - K), math.ceil(-cfg.n * f.half_width))
            hi = np.minimum(np.floor(u + K), math.floor(cfg.n * f.half_width))
            totals["points"] += copies * xs.size
            totals["terms"] += copies * xs.size * (2 * math.floor(K) + 1)
            totals["useful"] += copies * float(np.sum(np.maximum(hi - lo + 1.0, 0.0)))

        return after

    # -- results -------------------------------------------------------------

    def add_bytes_out(self, count: int) -> None:
        self.totals["cli"]["bytes_out"] += count

    def metrics(self, rounds: int = 1) -> dict[str, float]:
        """Per-layer metrics per round; the radius and the ratio are not summed."""
        out = {f"{layer}.{name}": float(self.totals[layer][name]) / rounds
               for layer, names in METRICS.items() for name in names}
        op = self.totals["operator"]
        out["operator.useful_term_ratio"] = op["useful"] / op["terms"] if op["terms"] else 0.0
        out["density.tail_radius"] = float(self.totals["density"]["tail_radius"])
        return out
