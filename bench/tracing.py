"""Span tracing of lorentzgeo from outside the package.

A `Tracer` wraps named functions of the `lorentzgeo` package without
editing it: every attribute of every loaded `lorentzgeo.*` module that *is*
a wrapped function object is rebound to a wrapper, so a caller that
imported the function by name (``from .modelspace import hinge_tau_arr``)
is traced as well.  Leaving the `with` block puts every original back.

Each call records a span: layer name, start, end, the index of the
enclosing span (-1 for a root) and the index of the root span of the same
call tree.  Optional counters turn the call's arguments and result into
per-span counts (for example bytes read or array elements computed).
Spans are kept in memory; `take()` hands them over and starts a new list.
"""

import importlib
import sys
from dataclasses import dataclass
from time import perf_counter


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int
    call: int
    counts: dict | None = None

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """Rebind `package.<module>.<function>` names to span-recording wrappers.

    `targets` maps a layer name ``"<module>.<function>"`` to a dict of
    counters ``{count_name: f(args, kwargs, result) -> number}``.  A layer
    name that no longer resolves to a function raises LookupError.
    """

    def __init__(self, package: str, targets: dict):
        self.package = package
        self.targets = targets
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    def _wrap(self, name, fn, counters):
        tracer = self

        def wrapper(*args, **kwargs):
            spans, stack = tracer.spans, tracer._stack
            parent = stack[-1] if stack else -1
            idx = len(spans)
            span = Span(name, 0.0, 0.0, parent, spans[parent].call if parent >= 0 else idx)
            spans.append(span)
            stack.append(idx)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if counters:
                span.counts = {k: f(args, kwargs, result) for k, f in counters.items()}
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def __enter__(self):
        originals = {}
        for name in self.targets:  # resolve every name before patching any
            module_name, attr = name.rsplit(".", 1)
            module = importlib.import_module(f"{self.package}.{module_name}")
            fn = getattr(module, attr, None)
            if not callable(fn):
                raise LookupError(f"{self.package}.{name} no longer exists; update the traced layers")
            originals[name] = fn
        modules = [m for k, m in list(sys.modules.items()) if k == self.package or k.startswith(self.package + ".")]
        for name, fn in originals.items():
            wrapper = self._wrap(name, fn, self.targets[name])
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, attr, wrapper)
                        self._patched.append((module, attr, fn))
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patched:
            module, attr, fn = self._patched.pop()
            setattr(module, attr, fn)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent >= 0:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.seconds - covered)
    return out


def layer_totals(spans: list[Span], layers: dict) -> dict:
    """Per layer: calls, inclusive seconds, self seconds and summed counts.

    Every layer in `layers` (name -> counter dict) is present, with zeros
    when it was never called.
    """
    totals = {
        name: {"calls": 0, "s": 0.0, "self_s": 0.0, **{k: 0 for k in counters}}
        for name, counters in layers.items()
    }
    for s, own in zip(spans, self_times(spans)):
        t = totals[s.name]
        t["calls"] += 1
        t["s"] += s.seconds
        t["self_s"] += own
        for k, v in (s.counts or {}).items():
            t[k] += v
    return totals


def accounting_gap(spans: list[Span], measured_s: float) -> float:
    """How far root self times plus child spans miss the measured time.

    The self times of all spans must add up to the root spans' durations,
    and the root spans must cover `measured_s`, the time the caller
    measured around the same root calls.  Returns the larger of the two
    differences in seconds.
    """
    root_s = sum(s.seconds for s in spans if s.parent < 0)
    return max(abs(sum(self_times(spans)) - root_s), abs(measured_s - root_s))
