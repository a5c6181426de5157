"""Per-layer spans for the traced divbench run.

The layers are the modules of ``src/divspec`` (``cli``, ``aperture``,
``pas``, ``specfun``, ``operators``, ``spectrum``) plus ``linalg``, the
``numpy.linalg`` eigendecompositions they call.  :func:`install` replaces
every public function of each module, in its own namespace and wherever
another divspec module or the package imported it, by a wrapper that
records the span; ``PasModel.fourier`` is wrapped on the class.
``numpy.linalg.eigh`` and ``eigvalsh`` are recorded only when divspec code
calls them directly, which leaves out the eigensolve inside numpy's
Gauss-Legendre rule (part of the ``aperture`` layer's time).

Spans are aggregated in memory by name: calls, self time (span time minus
the time covered by child spans) and the layer's work counters.  Nothing
is written until the run ends.  A wrapped function that a later version
of divspec no longer has simply reports zero calls.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import tracemalloc
from collections import defaultdict

import numpy as np

MODULES = ("cli", "aperture", "pas", "specfun", "operators", "spectrum")


def _count_values(stats, parent, args, result):
    stats["specfun.bessel_j_orders"]["values"] += np.size(result)


def _count_nodes(stats, parent, args, result):
    stats["aperture.build_quadrature"]["nodes"] += len(result)


def _count_basis(stats, parent, args, result):
    stats["operators.basis_matrix"]["bytes"] += result.nbytes
    if parent == "operators.gram_matrix":
        stats["operators.gram_matrix"]["assembled"] += 1


def _count_points(stats, parent, args, result):
    stats["operators.rho_n_kernel"]["points"] += np.size(result)


def _count_n3(stats, parent, args, result):
    stats["linalg.eig"]["n3"] += float(np.shape(args[0])[-1]) ** 3


#: work counters recorded at the span's boundary
COUNTERS = {
    "specfun.bessel_j_orders": _count_values,
    "aperture.build_quadrature": _count_nodes,
    "operators.basis_matrix": _count_basis,
    "operators.rho_n_kernel": _count_points,
    "linalg.eig": _count_n3,
}

#: spans that also record their tracemalloc peak
MEMORY_SPANS = frozenset({"operators.gram_matrix"})


class Tracer:
    """Span aggregation for one process: one caller, nested spans.

    tracemalloc slows the traced pass about threefold, so it runs only in
    a separate memory pass (``measure_memory``), which records the peak of
    the ``MEMORY_SPANS`` and nothing else.
    """

    def __init__(self):
        self.stats = defaultdict(lambda: defaultdict(float))
        self.measure_memory = False
        self._stack = []

    def wrap(self, name: str, fn, only_direct: bool = False):
        counter = COUNTERS.get(name)
        memory = name in MEMORY_SPANS
        stack = self._stack
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if tracer.measure_memory:
                return tracer._memory_span(name, fn, args, kwargs) if memory else fn(*args, **kwargs)
            if only_direct and not sys._getframe(1).f_globals.get("__name__", "").startswith("divspec."):
                return fn(*args, **kwargs)
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                st = tracer.stats[name]
                st["calls"] += 1
                st["self_s"] += elapsed - frame[1]
            if counter is not None:
                counter(tracer.stats, parent, args, result)
            return result

        return span

    def _memory_span(self, name, fn, args, kwargs):
        tracemalloc.start()
        try:
            return fn(*args, **kwargs)
        finally:
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            st = self.stats[name]
            st["peak_mb"] = max(st["peak_mb"], peak / 2**20)


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every divspec module, and numpy's eig."""
    package = importlib.import_module("divspec")
    mods = {name: importlib.import_module(f"divspec.{name}") for name in MODULES}
    namespaces = [package, *mods.values()]
    for short, mod in mods.items():
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr, None)
            if not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            wrapped = tracer.wrap(f"{short}.{attr}", obj)
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is obj:
                        setattr(ns, key, wrapped)
    pas_model = mods["pas"].PasModel
    pas_model.fourier = tracer.wrap("pas.fourier", pas_model.fourier)
    for attr in ("eigh", "eigvalsh"):
        setattr(np.linalg, attr, tracer.wrap("linalg.eig", getattr(np.linalg, attr), only_direct=True))


def layer_metrics(tracer: Tracer, passes: int, points_per_pass: int) -> dict:
    """``<span>.<counter>`` per pass (counts divide exactly), plus ratios."""
    st = tracer.stats
    out = {
        f"{name}.{key}": value if key == "peak_mb" else value / passes
        for name, counters in st.items()
        for key, value in counters.items()
    }
    gram = st["operators.gram_matrix"]
    kept = gram["calls"]
    out["operators.gram_useful_ratio"] = kept / max(kept, gram["assembled"]) if kept else 0.0
    out["operators.gram_matrix.per_point"] = kept / (passes * points_per_pass)
    solves = st["spectrum.solve_spectrum"]["calls"]
    out["linalg.eig_per_solve"] = st["linalg.eig"]["calls"] / solves if solves else 0.0
    return out
