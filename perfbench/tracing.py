"""
Span tracing for the benchmark's traced run.

The traced child wraps the public functions of each linksgould layer from
outside the library: every binding of a wrapped function, in every
``linksgould`` module that imports it by name, is replaced by a wrapper
that records a span.  Spans nest on one stack (the benchmark runs one
operation at a time on one thread), and a span's self time is its
duration minus the time covered by its child spans.  Spans are folded
into per-layer totals as they close, because the tensor workload opens
millions of them.

Per-entry hot paths such as ``RationalFn.is_zero`` are deliberately not
wrapped: their call overhead would dominate the traced run.
"""
from __future__ import annotations

import importlib
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

PACKAGE = "linksgould"


class Tracer:
    """Per-layer call counts, self times and statistics of finished spans."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self._open: list[float] = []  # child time covered so far, per open span
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.stats: dict[str, float] = {}

    def _layer(self, name: str) -> None:
        self.calls.setdefault(name, 0)
        self.self_s.setdefault(name, 0.0)

    def _close(self, name: str, start: float) -> None:
        elapsed = self.clock() - start
        self.self_s[name] += elapsed - self._open.pop()
        self.calls[name] += 1
        if self._open:
            self._open[-1] += elapsed

    def wrap(self, name: str, fn: Callable, post: Callable | None = None) -> Callable:
        """``fn`` recording one ``name`` span per call; ``post(tracer, result)`` after."""
        self._layer(name)
        clock, open_spans, close = self.clock, self._open, self._close

        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                close(name, start)
            if post is not None:
                post(self, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def span(self, name: str):
        """A span around a block, such as the root span of a traced run."""
        self._layer(name)
        self._open.append(0.0)
        start = self.clock()
        try:
            yield
        finally:
            self._close(name, start)

    def raise_stat(self, key: str, value: float) -> None:
        if value > self.stats.get(key, 0):
            self.stats[key] = value

    def add_stat(self, key: str, value: float) -> None:
        self.stats[key] = self.stats.get(key, 0) + value


# -- what the traced run wraps ------------------------------------------------


def _max_terms(key: str):
    def post(tracer: Tracer, result) -> None:
        tracer.raise_stat(key, len(result))

    return post


def _fraction_terms(tracer: Tracer, result) -> None:
    tracer.raise_stat("spectral.lg_closed_2braid.max_terms", len(result.num) + len(result.den))


def _gcd_useful(tracer: Tracer, result) -> None:
    tracer.add_stat("rational.laurent_gcd.useful", 0 if result.is_monomial() else 1)


def _max_dim(key: str):
    def post(tracer: Tracer, result) -> None:
        tracer.raise_stat(key, max(len(result), len(result[0]) if result else 0))

    return post


def _cells(tracer: Tracer, result) -> None:
    tracer.add_stat("verify.cells", len(result.cells))


@dataclass(frozen=True)
class Layer:
    name: str  # span name
    module: str  # linksgould submodule that defines the targets
    targets: tuple[str, ...]  # "function" or "Class.method"
    post: Callable | None = None  # records the layer's extra statistics
    extra: tuple[str, ...] = ()  # metrics besides calls and self_s
    calls: bool = True  # False: report self_s only

    def metrics(self) -> tuple[str, ...]:
        own = ("calls", "self_s") if self.calls else ("self_s",)
        return tuple(f"{self.name}.{m}" for m in own) + self.extra


LAYERS: tuple[Layer, ...] = (
    Layer("laurent.Laurent2.mul", "laurent", ("Laurent2.__mul__",),
          _max_terms("laurent.Laurent2.mul.max_terms"), ("laurent.Laurent2.mul.max_terms",)),
    Layer("laurent.Laurent2.exact_div", "laurent", ("Laurent2.exact_div",)),
    Layer("laurent.HalfLaurent.mul", "laurent", ("HalfLaurent.__mul__",)),
    Layer("rational.RationalFn.init", "rational", ("RationalFn.__init__",)),
    Layer("rational.laurent_gcd", "rational", ("laurent_gcd",),
          _gcd_useful, ("rational.laurent_gcd.useful_ratio",)),
    Layer("cyclotomic.reduce_at_root", "cyclotomic", ("reduce_at_root",)),
    Layer("cyclotomic.CycloFraction.eq", "cyclotomic", ("CycloFraction.__eq__",)),
    Layer("spectral.lg_closed_2braid", "spectral", ("lg_closed_2braid",),
          _fraction_terms, ("spectral.lg_closed_2braid.max_terms",)),
    Layer("diagram.canonical_key", "diagram", ("canonical_key",)),
    Layer("diagram.surgery", "diagram", ("switch_crossing", "smooth_crossing")),
    Layer("diagram.is_split", "diagram", ("is_split",), calls=False),
    Layer("conway.conway", "conway", ("conway",)),
    Layer("sliced.to_sliced", "sliced", ("to_sliced",), calls=False),
    Layer("tensor.kron", "tensor", ("kron",),
          _max_dim("tensor.kron.max_dim"), ("tensor.kron.max_dim",)),
    Layer("tensor.mat_mul", "tensor", ("mat_mul",),
          _max_dim("tensor.mat_mul.max_dim"), ("tensor.mat_mul.max_dim",)),
    Layer("tensor.scalar_of", "tensor", ("scalar_of",), calls=False),
    Layer("verify.run_suite", "verify", ("run_suite",), _cells, ("verify.cells",), calls=False),
    Layer("cli.main", "cli", ("main",), calls=False),
)

# The span around a traced child's whole op list.  Its self time is the
# time that no wrapped layer covers.
ROOT_SPAN = "bench.loop"

# Measured by the benchmark around the traced run rather than by a layer.
TRACE_METRICS = ("trace.wall_s", "trace.overhead_s")


def install(tracer: Tracer) -> dict[str, int]:
    """
    Wrap every target of ``LAYERS`` wherever the loaded ``linksgould``
    modules bind it; returns the number of bindings replaced per target.
    A method is replaced under every name its class binds it to, so
    ``__rmul__ = __mul__`` is traced too.
    """
    homes = {layer.module: importlib.import_module(f"{PACKAGE}.{layer.module}") for layer in LAYERS}
    modules = [
        mod
        for name, mod in list(sys.modules.items())
        if name == PACKAGE or name.startswith(PACKAGE + ".")
    ]
    replaced: dict[str, int] = {}
    for layer in LAYERS:
        home = homes[layer.module]
        for target in layer.targets:
            if "." in target:
                cls_name, attr = target.split(".")
                namespaces = [getattr(home, cls_name)]
                original = vars(namespaces[0])[attr]
            else:
                original = vars(home)[target]
                namespaces = modules
            wrapper = tracer.wrap(layer.name, original, layer.post)
            count = 0
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is original:
                        setattr(ns, key, wrapper)
                        count += 1
            replaced[f"{layer.module}.{target}"] = count
    return replaced


# -- per-layer metrics --------------------------------------------------------

def metric_names() -> list[str]:
    """The per_layer metrics of BENCHMARK.json, in order."""
    return [m for layer in LAYERS for m in layer.metrics()] + [f"{ROOT_SPAN}.self_s", *TRACE_METRICS]


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Every per-layer value this tracer measured, keyed by metric name."""
    values: dict[str, float] = {}
    for layer in LAYERS:
        values[f"{layer.name}.calls"] = tracer.calls.get(layer.name, 0)
        values[f"{layer.name}.self_s"] = tracer.self_s.get(layer.name, 0.0)
    values[f"{ROOT_SPAN}.self_s"] = tracer.self_s.get(ROOT_SPAN, 0.0)
    values.update(tracer.stats)
    gcds = values["rational.laurent_gcd.calls"]
    useful = tracer.stats.get("rational.laurent_gcd.useful", 0)
    values["rational.laurent_gcd.useful_ratio"] = useful / gcds if gcds else 0.0
    return values
