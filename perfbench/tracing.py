"""Per-layer spans recorded around calls into the discinterp modules.

The tracer patches, at run time, every public function of each layer
module (plus the private helpers that another layer calls directly) in
every discinterp namespace that holds a reference to it.  Nothing under
``src/`` is edited; ``uninstall`` restores the original objects.

A span is ``(id, parent, job, name, start, end, error)``.  Spans of one
job share the job's id.  Self time is a span's duration minus the time
covered by its direct children; summed over all spans of a round it
equals the round's duration, which ``layer_metrics`` checks.
"""

from __future__ import annotations

import importlib
import time
import types
from collections import defaultdict

LAYERS = ("cli", "bounds", "extremal", "modelspace", "spaces", "series")

# private helpers that another layer calls by name (the Malmquist division
# modelspace -> series); they are layer boundaries although not in __all__.
# spaces._golden_max is left unwrapped: most of its calls come from inside
# spaces.norm, whose self time must include them.
CROSS_LAYER_PRIVATE = {"series": ("_div_geometric", "_mul_linear")}

# targeted per-function metrics (layer.function)
TARGETS = (
    "extremal.pick_min_norm",
    "extremal.cs_min_norm",
    "series.compose_with_blaschke",
    "modelspace.malmquist_basis",
    "spaces.gram_matrix",
    "spaces.norm",
)

ESTIMATORS = ("bounds.interp_constant", "extremal.carleson_constant")

LINALG_ENTRY_POINTS = (
    ("numpy.linalg", ("eigvalsh", "eigh", "svd")),
    ("scipy.linalg", ("eigvalsh", "eigh", "svd")),
)


def per_layer_metric_names() -> list[str]:
    """Every metric ``layer_metrics`` returns, in report order."""
    names = []
    for layer in LAYERS:
        names += [f"{layer}.calls", f"{layer}.self_s", f"{layer}.share", f"{layer}.errors"]
    for target in TARGETS:
        names.append(f"{target}.self_s")
    names += [
        "extremal.pick_min_norm.calls",
        "extremal.cs_min_norm.calls",
        "series.compose_with_blaschke.calls",
        "extremal.linalg_calls",
        "bounds.solver_calls_per_estimate",
        "series.compose_coeffs",
        "modelspace.basis_degree_sum",
        "spaces.illcond_warnings",
        "harness.self_s",
        "trace_overhead_s",
    ]
    return names


class Tracer:
    """Span recorder plus the counters kept at the same boundaries."""

    def __init__(self):
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self) -> None:
        self.spans: list[tuple] = []
        self.stack: list[tuple[int, str]] = []  # (span id, layer)
        self.job = 0
        self._next_id = 0
        self.linalg_calls = 0
        self.solver_calls = 0
        self.estimates = 0
        self.compose_coeffs = 0
        self.basis_degree_sum = 0
        self._estimator_depth = 0

    # -- spans --------------------------------------------------------------

    def open(self, name: str, layer: str) -> tuple[int, int, float]:
        sid = self._next_id
        self._next_id += 1
        parent = self.stack[-1][0] if self.stack else -1
        if layer == "extremal" and self._estimator_depth and name not in ESTIMATORS:
            self.solver_calls += 1
        if name in ESTIMATORS:
            if not self._estimator_depth:
                self.estimates += 1
            self._estimator_depth += 1
        self.stack.append((sid, layer))
        return sid, parent, time.perf_counter()

    def close(self, name: str, token: tuple[int, int, float], error: bool) -> None:
        end = time.perf_counter()
        sid, parent, start = token
        self.stack.pop()
        if name in ESTIMATORS:
            self._estimator_depth -= 1
        self.spans.append((sid, parent, self.job, name, start, end, error))

    # -- patching -----------------------------------------------------------

    def _wrap(self, layer: str, fname: str, fn):
        name = f"{layer}.{fname}"
        tracer = self
        if name == "series.compose_with_blaschke":
            def account(result):
                tracer.compose_coeffs += len(result)
        elif name == "modelspace.malmquist_basis":
            def account(result):
                tracer.basis_degree_sum += result.degree
        else:
            account = None

        def traced(*args, **kwargs):
            token = tracer.open(name, layer)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.close(name, token, True)
                raise
            tracer.close(name, token, False)
            if account is not None:
                account(result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def _wrap_linalg(self, fn):
        tracer = self

        def counted(*args, **kwargs):
            if tracer.stack and tracer.stack[-1][1] == "extremal":
                tracer.linalg_calls += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def install(self) -> None:
        """Patch every layer function in every discinterp namespace."""
        if self._patches:
            return
        modules = {layer: importlib.import_module(f"discinterp.{layer}") for layer in LAYERS}
        package = importlib.import_module("discinterp")
        replacement: dict[int, object] = {}
        for layer, mod in modules.items():
            if layer == "cli":
                names = ("main",)
            else:
                names = tuple(mod.__all__) + CROSS_LAYER_PRIVATE.get(layer, ())
            for fname in names:
                fn = getattr(mod, fname)
                if isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__:
                    replacement[id(fn)] = self._wrap(layer, fname, fn)
        for mod in (package, *modules.values()):
            for attr, value in list(vars(mod).items()):
                new = replacement.get(id(value))
                if new is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, new)
        for modname, fnames in LINALG_ENTRY_POINTS:
            mod = importlib.import_module(modname)
            for fname in fnames:
                fn = getattr(mod, fname)
                self._patches.append((mod, fname, fn))
                setattr(mod, fname, self._wrap_linalg(fn))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patches):
            setattr(mod, attr, original)
        self._patches.clear()

    # -- aggregation --------------------------------------------------------

    def layer_metrics(self, wall: float) -> tuple[dict[str, float], float]:
        """Per-layer metrics of the recorded round and the accounting error.

        ``wall`` is the duration of the round's root span.  The returned
        error is |sum of all self times - wall| / wall, which is zero up
        to rounding when the spans nest properly.
        """
        child = defaultdict(float)
        for sid, parent, _job, _name, start, end, _err in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = defaultdict(int)
        self_s = defaultdict(float)
        errors = defaultdict(int)
        fn_calls = defaultdict(int)
        fn_self = defaultdict(float)
        negative = False
        for sid, _parent, _job, name, start, end, err in self.spans:
            own = (end - start) - child[sid]
            negative = negative or own < -1e-9
            layer = name.split(".", 1)[0]
            calls[layer] += 1
            self_s[layer] += own
            errors[layer] += int(err)
            fn_calls[name] += 1
            fn_self[name] += own
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
            out[f"{layer}.share"] = self_s[layer] / wall
            out[f"{layer}.errors"] = errors[layer]
        for target in TARGETS:
            out[f"{target}.self_s"] = fn_self[target]
        out["extremal.pick_min_norm.calls"] = fn_calls["extremal.pick_min_norm"]
        out["extremal.cs_min_norm.calls"] = fn_calls["extremal.cs_min_norm"]
        out["series.compose_with_blaschke.calls"] = fn_calls["series.compose_with_blaschke"]
        out["extremal.linalg_calls"] = self.linalg_calls
        out["bounds.solver_calls_per_estimate"] = (
            self.solver_calls / self.estimates if self.estimates else 0.0
        )
        out["series.compose_coeffs"] = self.compose_coeffs
        out["modelspace.basis_degree_sum"] = self.basis_degree_sum
        out["harness.self_s"] = self_s["harness"]
        total = sum(self_s.values())
        error = abs(total - wall) / wall
        if negative:
            error = max(error, 1.0)
        return out, error
