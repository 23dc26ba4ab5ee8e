"""Per-layer timing measured from outside the library.

The tracer wraps public functions of the isoweave modules and installs
the wrappers under every name the loaded isoweave modules bind them to,
so calls the library makes to itself (``axis_inventory`` calling
``find_symmetries``, ``search_stripings`` calling ``is_perfect``) are
timed too.  Each wrapper records a span; a layer's time is the self time
of its spans, that is each span's duration minus the spans nested in it,
so every millisecond is counted in exactly one layer.  Counters are
recorded at the same boundaries.

Nothing in the library changes: ``install`` swaps the wrappers in and
``uninstall`` puts the original functions back.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

_RENDER_OPTIONS_ARG = {"render_design": 1, "render_colouring": 2}


def _render_metric(name: str) -> Callable[[tuple, dict], str]:
    index = _RENDER_OPTIONS_ARG[name]

    def metric(args: tuple, kwargs: dict) -> str:
        options = kwargs.get("options", args[index] if len(args) > index else None)
        axes = options is not None and options.show_axes
        return "svg.render_axes_ms" if axes else "svg.render_ms"

    return metric


#: (module, function) -> layer time metric, or a function of the call's
#: arguments returning the metric name.
SPANS: dict[tuple[str, str], str | Callable[[tuple, dict], str]] = {
    ("design", "parse_design"): "design.parse_ms",
    ("design", "serialise"): "design.serialise_ms",
    ("symmetry", "find_symmetries"): "symmetry.find_symmetries_ms",
    ("symmetry", "axis_inventory"): "symmetry.axis_inventory_ms",
    ("symmetry", "lattice_units"): "symmetry.lattice_units_ms",
    ("symmetry", "hangs_together"): "symmetry.hangs_together_ms",
    ("symmetry", "is_isonemal"): "symmetry.is_isonemal_ms",
    ("colouring", "search_stripings"): "colouring.search_ms",
    ("colouring", "constructive_placement"): "colouring.placement_ms",
    ("colouring", "is_perfect"): "colouring.is_perfect_ms",
    ("torus", "validate_torus"): "torus.validate_ms",
    ("torus", "inflate"): "torus.inflate_ms",
    ("torus", "band_count"): "torus.count_ms",
    ("torus", "trace_strands"): "torus.count_ms",
    ("torus", "crossing_permutation"): "torus.count_ms",
    ("svg", "render_design"): _render_metric("render_design"),
    ("svg", "render_colouring"): _render_metric("render_colouring"),
}


class Tracer:
    """Span and counter totals for one traced pass.

    ``times`` holds self time in seconds per layer metric; ``counts``
    holds the counters.  ``after`` hooks run once a span has closed and
    may add counters from the call's arguments and result.
    """

    def __init__(self, lib: Any, after: dict[tuple[str, str], Callable] | None = None):
        self.lib = lib
        self.after = after or {}
        self.times: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._children: list[float] = []
        self._swaps: list[tuple[object, str, object, object]] | None = None

    def _wrap(self, fn: Callable, metric, after: Callable | None) -> Callable:
        times = self.times
        children = self._children
        tracer = self

        def traced(*args, **kwargs):
            name = metric if isinstance(metric, str) else metric(args, kwargs)
            children.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                times[name] += elapsed - children.pop()
                if children:
                    children[-1] += elapsed
            if after is not None:
                after(tracer, args, kwargs, result)
            return result

        return traced

    def _bindings(self) -> list[tuple[object, str, object, object]]:
        """(module, name, original, wrapper) for every binding to replace."""
        modules = [m for n, m in sys.modules.items() if n == "isoweave" or n.startswith("isoweave.")]
        bindings = []
        for (module_name, func_name), metric in SPANS.items():
            original = getattr(getattr(self.lib, module_name), func_name, None)
            if original is None:
                continue
            wrapper = self._wrap(original, metric, self.after.get((module_name, func_name)))
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        bindings.append((module, attr, original, wrapper))
        return bindings

    def install(self) -> None:
        """Replace every binding of each traced function in isoweave."""
        if self._swaps is None:
            self._swaps = self._bindings()
        for module, attr, _, wrapper in self._swaps:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._swaps or ():
            setattr(module, attr, original)

    def add_time(self, metric: str, seconds: float) -> None:
        self.times[metric] += seconds

    def count(self, metric: str, amount: float = 1) -> None:
        self.counts[metric] += amount
