"""Per-layer trace of ``ncrw`` from outside the program.

Every public function of each ``src/ncrw`` module, plus the few private
ones that mark a route or a Monte Carlo stage, is replaced by a timing
wrapper at every module attribute that holds it, so that calls across a
layer boundary (``from .bessel import scaled_bessel_i_all`` in kernels, for
instance) go through the wrapper too.  Methods are wrapped on their class.
Nothing under ``src/`` is edited; ``uninstall`` puts the originals back.

A layer is a module.  A span's self time is its duration minus that of the
wrapped calls inside it.  Spans are kept in memory (up to ``SPAN_CAP``) and
written out at the end; the aggregates always cover every call.  A name
that a later version of ``ncrw`` deletes is skipped and reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
from collections import defaultdict
from time import perf_counter

MODULES = ("bessel", "quadrature", "martingales", "kernels", "correlations",
           "montecarlo", "relaxation", "cli")
# Private functions that mark a route or a Monte Carlo stage.
PRIVATE = {"kernels": ("_lattice_site_sum",),
           "montecarlo": ("_determinant_weight",)}
METHODS = {"kernels": (("KernelSpec", "evaluate"),),
           "montecarlo": (("WalkEnsemble", "positions"),)}
SPAN_CAP = 100_000

# Per-layer metrics: name -> unit.  The README says which end-to-end metric
# each should move and on which workload.
PER_LAYER = {
    "martingales.self_s": "s", "martingales.site_rows": "count",
    "martingales.lattice_batches": "count", "martingales.lattice_sites": "count",
    "quadrature.self_s": "s", "quadrature.calls": "count",
    "quadrature.nodes": "count",
    "bessel.self_s": "s", "bessel.table_calls": "count",
    "bessel.table_reuse": "ratio",
    "kernels.self_s": "s", "kernels.evals": "count",
    "kernels.lattice_sum": "count", "kernels.lattice_spectral": "count",
    "correlations.self_s": "s", "correlations.matrices": "count",
    "montecarlo.sample_s": "s", "montecarlo.exit_s": "s",
    "montecarlo.weight_s": "s", "montecarlo.positions_s": "s",
    "montecarlo.reduce_s": "s", "montecarlo.samples": "count",
    "relaxation.self_s": "s", "relaxation.cells": "count",
    "cli.self_s": "s",
    "trace.overhead_pct": "%",
}


def _arg(args, kwargs, index: int, name: str):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    """Timing wrappers over the ``ncrw`` modules, with span and call stats."""

    def __init__(self):
        self.modules = {}
        for name in MODULES:
            try:
                self.modules[name] = importlib.import_module(f"ncrw.{name}")
            except ImportError:
                continue
        self.modules[""] = importlib.import_module("ncrw")
        self.names: list[str] = []          # span name table
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.total_s = defaultdict(float)
        self.extra = defaultdict(float)      # counts taken from arguments
        self.tables_seen: set = set()
        self.spans: list[tuple] = []
        self.request = -1
        self._stack: list[list] = []         # [name index, child seconds, span id]
        self._patches: list[tuple] = []      # (owner, attribute, original, wrapper)
        self._build()

    # -- wrapping ----------------------------------------------------------

    def _targets(self):
        for layer, mod in self.modules.items():
            if not layer:
                continue
            for attr, obj in vars(mod).items():
                public = not attr.startswith("_") or attr in PRIVATE.get(layer, ())
                if public and inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    yield layer, attr, obj
            for cls_name, meth in METHODS.get(layer, ()):
                cls = getattr(mod, cls_name, None)
                fn = getattr(cls, meth, None) if cls is not None else None
                if inspect.isfunction(fn):
                    yield layer, f"{cls_name}.{meth}", fn

    def _build(self):
        wrappers = {}
        for layer, attr, fn in self._targets():
            wrappers[id(fn)] = (fn, self._wrap(fn, f"{layer}.{attr}"))
        for mod in self.modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in wrappers and wrappers[id(obj)][0] is obj:
                    self._patches.append((mod, attr, obj, wrappers[id(obj)][1]))
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    for meth, fn in list(vars(obj).items()):
                        if id(fn) in wrappers and wrappers[id(fn)][0] is fn:
                            self._patches.append((obj, meth, fn, wrappers[id(fn)][1]))

    def install(self):
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self):
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)

    def _wrap(self, fn, name: str):
        index = len(self.names)
        self.names.append(name)
        hook = getattr(self, "_hook_" + name.replace(".", "_"), None)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if hook is not None:
                args = hook(args, kwargs)
            parent = stack[-1][2] if stack else -1
            span_id = -1
            if len(self.spans) < SPAN_CAP:
                span_id = len(self.spans)
                self.spans.append(None)
            frame = [index, 0.0, span_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self.calls[name] += 1
                self.total_s[name] += dur
                self.self_s[name] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if span_id >= 0:
                    self.spans[span_id] = (index, parent, self.request, t0, t1)
        return wrapper

    def _caller(self) -> str | None:
        return self.names[self._stack[-1][0]] if self._stack else None

    # -- argument hooks: counts that a call's arguments carry --------------

    def _count_nodes(self, args):
        if not args:
            return args
        f = args[0]

        def counted(x, *rest, **kw):
            self.extra["quadrature.nodes"] += getattr(x, "size", 1)
            return f(x, *rest, **kw)
        return (counted, *args[1:])

    def _hook_quadrature_gauss_legendre(self, args, kwargs):
        return self._count_nodes(args)

    def _hook_quadrature_periodic_mean(self, args, kwargs):
        return self._count_nodes(args)

    def _hook_bessel_scaled_bessel_i_all(self, args, kwargs):
        key = (int(_arg(args, kwargs, 0, "n_max")), float(_arg(args, kwargs, 1, "t")))
        if key in self.tables_seen:
            self.extra["bessel.table_reuse"] += 1
        self.tables_seen.add(key)
        return args

    def _hook_martingales_lattice_martingale_batch(self, args, kwargs):
        self.extra["martingales.lattice_sites"] += len(_arg(args, kwargs, 1, "ks"))
        return args

    def _hook_kernels__lattice_site_sum(self, args, kwargs):
        if self._caller() == "kernels.kernel_lattice":
            self.extra["kernels.lattice_sum"] += 1
        return args

    def _hook_kernels_lattice_kernel_remainder(self, args, kwargs):
        if self._caller() == "kernels.kernel_lattice":
            self.extra["kernels.lattice_spectral"] += 1
        return args

    def _hook_montecarlo_estimate_many(self, args, kwargs):
        self.extra["montecarlo.samples"] += int(_arg(args, kwargs, 3, "n_samples"))
        return args

    def _hook_relaxation_relaxation_sweep(self, args, kwargs):
        self.extra["relaxation.cells"] += (len(_arg(args, kwargs, 1, "displacements"))
                                           * len(_arg(args, kwargs, 2, "tau_grid")))
        return args

    # -- results -----------------------------------------------------------

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    def _self_of(self, *names) -> float:
        return sum(self.self_s.get(n, 0.0) for n in names)

    def metrics(self) -> dict:
        """Every per-layer metric except the overhead, which the run adds."""
        c, x = self.calls, self.extra
        table_calls = c["bessel.scaled_bessel_i_all"]
        m = {
            "martingales.self_s": self.layer_self("martingales"),
            "martingales.site_rows": c["martingales.site_martingale_row"],
            "martingales.lattice_batches": c["martingales.lattice_martingale_batch"],
            "martingales.lattice_sites": x["martingales.lattice_sites"],
            "quadrature.self_s": self.layer_self("quadrature"),
            "quadrature.calls": (c["quadrature.gauss_legendre"]
                                 + c["quadrature.periodic_mean"]),
            "quadrature.nodes": x["quadrature.nodes"],
            "bessel.self_s": self.layer_self("bessel"),
            "bessel.table_calls": table_calls,
            "bessel.table_reuse": (x["bessel.table_reuse"] / table_calls
                                   if table_calls else 0.0),
            "kernels.self_s": self.layer_self("kernels"),
            "kernels.evals": c["kernels.KernelSpec.evaluate"],
            "kernels.lattice_sum": x["kernels.lattice_sum"],
            "kernels.lattice_spectral": x["kernels.lattice_spectral"],
            "correlations.self_s": self.layer_self("correlations"),
            "correlations.matrices": c["correlations.kernel_matrix"],
            "montecarlo.sample_s": self._self_of("montecarlo.sample_ensemble",
                                                 "montecarlo.sample_walk"),
            "montecarlo.exit_s": self._self_of("montecarlo.exit_time"),
            "montecarlo.weight_s": self._self_of("montecarlo.vandermonde_ratio",
                                                 "montecarlo._determinant_weight"),
            "montecarlo.positions_s": self._self_of("montecarlo.WalkEnsemble.positions"),
            "montecarlo.reduce_s": self._self_of("montecarlo.estimate_many"),
            "montecarlo.samples": x["montecarlo.samples"],
            "relaxation.self_s": self.layer_self("relaxation"),
            "relaxation.cells": x["relaxation.cells"],
            "cli.self_s": self.layer_self("cli"),
        }
        return {k: (int(v) if PER_LAYER[k] == "count" else float(v))
                for k, v in m.items()}

    def write(self, path: str) -> None:
        """Span table: [name, parent span, request, start s, end s] per span."""
        doc = {"names": self.names, "span_cap": SPAN_CAP,
               "fields": ["name", "parent", "request", "start_s", "end_s"],
               "spans": self.spans,
               "calls": dict(self.calls), "self_s": dict(self.self_s),
               "total_s": dict(self.total_s)}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)
