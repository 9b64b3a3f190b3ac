"""Per-layer tracing from outside the program.

Each traced function is replaced, at every name a caller inside the package
looks it up by, with a wrapper that records one span: calls, total time and
self time (the span minus the spans of traced functions it called).  Kernel
work counts are read from return values.  The kernel implementation modules
themselves are left alone, so calls the kernel makes to itself stay inside
one ``_core`` span, as they would in the compiled kernel.
"""

from __future__ import annotations

import sys
from collections import Counter
from time import perf_counter

# layer metric prefix -> (defining module, function name)
LAYERS = {
    "core.closure_mask": ("forceps._core", "closure_mask"),
    "core.first_failing_leaks": ("forceps._core", "first_failing_leaks"),
    "core.search_min_superset": ("forceps._core", "search_min_superset"),
    "core.is_fort_mask": ("forceps._core", "is_fort_mask"),
    "core.minimal_fort_masks": ("forceps._core", "minimal_fort_masks"),
    "solve.leaky_number": ("forceps.solve", "leaky_number"),
    "forts.fort_from_failure": ("forceps.forts", "fort_from_failure"),
    "forts.minimal_forts": ("forceps.forts", "minimal_forts"),
    "forts.hitting_number": ("forceps.forts", "hitting_number"),
    "forcing.is_ell_leaky_forcing_set": ("forceps.forcing", "is_ell_leaky_forcing_set"),
    "forcing.closure": ("forceps.forcing", "closure"),
    "forcing.possible_forces": ("forceps.forcing", "possible_forces"),
    "forcing.one_leaky_criterion": ("forceps.forcing", "one_leaky_criterion"),
    "graphs.delete_edge": ("forceps.graphs", "delete_edge"),
    "graphs.connected_components": ("forceps.graphs", "connected_components"),
    "graphs.induced_subgraph": ("forceps.graphs", "induced_subgraph"),
    "graph6.from_graph6": ("forceps.graph6", "from_graph6"),
}


def _count_ffl(c: Counter, out) -> None:
    c["core.first_failing_leaks.closures"] += out[1]


def _count_search(c: Counter, out) -> None:
    c["core.search_min_superset.candidates"] += out[1]
    c["core.search_min_superset.closures"] += out[2]
    c["core.search_min_superset.misses"] += out[0] < 0


def _count_forts(c: Counter, out) -> None:
    c["core.minimal_fort_masks.forts"] += len(out)


def _count_solve(c: Counter, out) -> None:
    c["solve.nodes"] += out.stats.nodes
    c["solve.leak_checks"] += out.stats.leak_checks


COUNTERS = {
    "core.first_failing_leaks": _count_ffl,
    "core.search_min_superset": _count_search,
    "core.minimal_fort_masks": _count_forts,
    "solve.leaky_number": _count_solve,
}

# per-layer metrics: (name, unit, better), in report order
COUNT_METRICS = (
    ("core.first_failing_leaks.closures", "count", "lower"),
    ("core.search_min_superset.candidates", "count", "lower"),
    ("core.search_min_superset.closures", "count", "lower"),
    ("core.minimal_fort_masks.forts", "count", "lower"),
    ("core.search_min_superset.miss_ratio", "ratio", "lower"),
    ("core.closures_per_s", "1/s", "higher"),
    ("solve.nodes", "count", "lower"),
    ("solve.leak_checks", "count", "lower"),
    ("trace_overhead", "ratio", "lower"),
)
METRICS = tuple(
    m for layer in LAYERS for m in ((f"{layer}.calls", "count", "lower"), (f"{layer}.self_s", "s", "lower"))
) + COUNT_METRICS
# counts that must repeat exactly at a fixed seed
EXACT = ("solve.nodes", "solve.leak_checks", "core.closure_mask.calls",
         "core.first_failing_leaks.closures", "core.search_min_superset.candidates",
         "core.search_min_superset.closures", "core.minimal_fort_masks.forts")


class Tracer:
    """Wrappers for every traced function of the currently imported package;
    ``install`` and ``uninstall`` swap them in and out at every site."""

    def __init__(self) -> None:
        self.spans: dict[str, list] = {layer: [0, 0.0] for layer in LAYERS}  # calls, self_s
        self.counts: Counter = Counter()
        self._stack = [0.0]  # time covered by traced children, per open span
        modules = [m for name, m in list(sys.modules.items())
                   if (name == "forceps" or name.startswith("forceps."))
                   and not name.startswith("forceps._core.") and m is not None]
        self._sites: list[tuple[object, str, object, object]] = []  # module, name, original, wrapper
        for layer, (modname, attr) in LAYERS.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(layer, original)
            for mod in modules:
                for name, value in vars(mod).items():
                    if value is original:
                        self._sites.append((mod, name, original, wrapper))

    def _wrap(self, layer: str, fn):
        span = self.spans[layer]
        stack = self._stack
        counter = COUNTERS.get(layer)
        counts = self.counts

        def traced(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                children = stack.pop()
                stack[-1] += dt
                span[0] += 1
                span[1] += dt - children
            if counter is not None:
                counter(counts, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod, name, _original, wrapper in self._sites:
            setattr(mod, name, wrapper)

    def uninstall(self) -> None:
        for mod, name, original, _wrapper in self._sites:
            setattr(mod, name, original)

    def metrics(self, overhead: float) -> dict[str, float]:
        out: dict[str, float] = {}
        for layer, (calls, self_s) in self.spans.items():
            out[f"{layer}.calls"] = calls
            out[f"{layer}.self_s"] = self_s
        c = self.counts
        for name in ("core.first_failing_leaks.closures", "core.search_min_superset.candidates",
                     "core.search_min_superset.closures", "core.minimal_fort_masks.forts"):
            out[name] = c[name]
        searched = out["core.search_min_superset.calls"]
        out["core.search_min_superset.miss_ratio"] = c["core.search_min_superset.misses"] / searched if searched else 0.0
        closures = (out["core.closure_mask.calls"] + c["core.first_failing_leaks.closures"]
                    + c["core.search_min_superset.closures"])
        kernel_s = sum(out[f"core.{fn}.self_s"] for fn in ("closure_mask", "first_failing_leaks", "search_min_superset"))
        out["core.closures_per_s"] = closures / kernel_s if kernel_s else 0.0
        out["solve.nodes"] = c["solve.nodes"]
        out["solve.leak_checks"] = c["solve.leak_checks"]
        out["trace_overhead"] = overhead
        return out
