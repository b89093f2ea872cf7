"""Per-layer spans around twistcodes' public functions, installed from outside.

`install(tracer)` wraps every public module-level function of the six
layers (plus field construction, ``FieldSpec.__init__``, as ``gf.build``)
and rebinds each wrapped name in every twistcodes module that holds it,
so calls through ``from .codes import min_distance`` are traced too.
Spans nest on one stack: a span's self time is its duration minus the
time of the spans it encloses, which makes the self times of all spans
add up to the traced time without double counting.

Generator functions get spans per ``next()``: the span covers the work
done while iterating, not the creation of the generator, and not the
consumer's work between items.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("gf", "poly", "talg", "codes", "discover", "cli")

# Per-vector helpers called n times per ideal: a span each would cost more
# than the work it measures, so their time stays in the calling span.
UNWRAPPED = {"codes.phi", "codes.phi_inv", "codes.constacyclic_shift"}


class Tracer:
    """Self time, call counts and work counts per span name."""

    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.counts: Counter[str] = Counter()
        self._stack: list[float] = []  # time of enclosed spans, per open span

    def reset(self):
        self.self_s.clear()
        self.calls.clear()
        self.counts.clear()

    def enter(self) -> float:
        self._stack.append(0.0)
        return perf_counter()

    def exit(self, name: str, start: float) -> float:
        """Close the innermost span; returns its self time."""
        dur = perf_counter() - start
        own = dur - self._stack.pop()
        if self._stack:
            self._stack[-1] += dur
        self.self_s[name] += own
        return own


def _span(fn, name: str, tracer: Tracer, observe=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        start = tracer.enter()
        try:
            result = fn(*args, **kwargs)
        finally:
            own = tracer.exit(name, start)
            tracer.calls[name] += 1
        if observe is not None:
            observe(tracer, result, own)
        return result

    return wrapper


def _gen_span(fn, name: str, tracer: Tracer):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        tracer.calls[name] += 1
        while True:
            start = tracer.enter()
            try:
                item = next(it)
            except StopIteration:
                return
            finally:
                tracer.exit(name, start)
            tracer.counts[name + ".items"] += 1
            yield item

    return wrapper


def _observe_distance(tracer: Tracer, cert, own: float):
    method = cert.method.replace("-", "")
    tracer.self_s[f"codes.distance.{method}"] += own
    tracer.counts[f"codes.distance.{method}_messages"] += cert.work


def _observe_factors(tracer: Tracer, factors, own: float):
    tracer.counts["poly.factors"] += len(factors)


def _observe_records(tracer: Tracer, records, own: float):
    tracer.counts["discover.records"] += len(records)


OBSERVERS = {
    "codes.min_distance": _observe_distance,
    "poly.factor_xn_minus_lambda": _observe_factors,
    "discover.search_lcd": _observe_records,
}


def install(tracer: Tracer):
    """Wrap the layers' public functions; returns a callable that undoes it."""
    modules = {layer: importlib.import_module(f"twistcodes.{layer}") for layer in LAYERS}
    originals = {}  # id(original) -> (original, wrapper)
    for layer, mod in modules.items():
        for attr, fn in list(vars(mod).items()):
            name = f"{layer}.{attr}"
            if (
                attr.startswith("_")
                or name in UNWRAPPED
                or not inspect.isfunction(fn)
                or fn.__module__ != mod.__name__
            ):
                continue
            if inspect.isgeneratorfunction(fn):
                wrapper = _gen_span(fn, name, tracer)
            else:
                wrapper = _span(fn, name, tracer, OBSERVERS.get(name))
            originals[id(fn)] = (fn, wrapper)

    rebound = []  # (namespace, attr, original)
    package = [m for n, m in sys.modules.items() if n.split(".")[0] == "twistcodes"]
    for mod in package:
        for attr, value in list(vars(mod).items()):
            entry = originals.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(mod, attr, entry[1])
                rebound.append((mod, attr, value))

    spec = modules["gf"].FieldSpec
    init = spec.__init__
    spec.__init__ = _span(init, "gf.build", tracer)
    rebound.append((spec, "__init__", init))

    def uninstall():
        for namespace, attr, value in rebound:
            setattr(namespace, attr, value)

    return uninstall
