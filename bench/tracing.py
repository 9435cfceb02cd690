"""Timing spans around the public functions of jumpsmooth, installed from
outside the package.

`instrument(tracer, package)` replaces every public module-level function of
the package's modules with a wrapper that opens a span, in every namespace that
looks the function up by name (`cli` imports its engines with
`from .simulate import simulate_batch`, and so do `diagnostics`,
`fokker_planck` and `kernels`), and spans `AdjointOperator.__init__` and
`AdjointOperator.apply` on the class.  Wrappers cost one attribute test when
the tracer is disabled.  Spans stay in memory; `Tracer.summary` aggregates
calls, total seconds (outermost span of a name only, so recursion is not
counted twice) and self seconds (span minus the time its direct children
cover).
"""

from __future__ import annotations

import functools
import inspect
import threading
import time
from dataclasses import dataclass

LAYERS = ("config", "model", "presets", "calculus", "kernels", "fokker_planck",
          "simulate", "diagnostics", "cli")


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    child_seconds: float = 0.0


class Tracer:
    """In-memory span recorder with per-thread nesting."""

    def __init__(self):
        self.enabled = False
        self.spans: list[Span] = []
        self.counters: dict[str, float] = {}
        self.captured: dict[str, list] = {}
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        with self._lock:
            span = Span(len(self.spans), None if parent is None else parent.id,
                        name, time.perf_counter())
            self.spans.append(span)
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child_seconds += span.end - span.start

    def count(self, name: str, amount: float) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0.0) + amount

    def summary(self) -> dict[str, dict[str, float]]:
        """{name: {calls, total_s, self_s}} over every recorded span."""
        by_id = {s.id: s for s in self.spans}
        out: dict[str, dict[str, float]] = {}
        for s in self.spans:
            row = out.setdefault(s.name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            row["calls"] += 1
            row["self_s"] += (s.end - s.start) - s.child_seconds
            p = s.parent
            nested = False
            while p is not None:
                if by_id[p].name == s.name:
                    nested = True
                    break
                p = by_id[p].parent
            if not nested:
                row["total_s"] += s.end - s.start
        return out

    def wrap(self, fn, name: str, namer=None, observer=None):
        """Span every call of `fn` while enabled.  `namer(args, kwargs)`
        returns a suffix that splits one function into several spans;
        `observer(tracer, args, kwargs, result)` records counts after the
        call, outside the span."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            label = name if namer is None else f"{name}.{namer(args, kwargs)}"
            span = self.open(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if observer is not None:
                observer(self, args, kwargs, result)
            return result

        return traced


def _batch_kind(args, kwargs) -> str:
    i = kwargs["i"] if "i" in kwargs else (args[6] if len(args) > 6 else None)
    return "exact" if i is None else "poissonized"


def _observe_cf(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count("simulate.cf_evals", result.n_samples * result.xi.size)
    tracer.captured.setdefault("simulate.empirical_cf", []).append((args[0], result))


def _observe_kde(tracer: Tracer, args, kwargs, result) -> None:
    samples = args[0] if args else kwargs["samples"]
    tracer.count("simulate.kde_evals", len(samples) * result.size)


def _observe_batch(tracer: Tracer, args, kwargs, result) -> None:
    tracer.count(f"simulate.{_batch_kind(args, kwargs)}_runs", result["runs"])


NAMERS = {"simulate.simulate_batch": _batch_kind}
OBSERVERS = {
    "simulate.empirical_cf": _observe_cf,
    "simulate.estimate_density": _observe_kde,
    "simulate.simulate_batch": _observe_batch,
}


def instrument(tracer: Tracer, package) -> callable:
    """Install wrappers for every public function of the package's modules;
    returns a function that removes them again."""
    import importlib

    modules = [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
    wrapped: dict[int, object] = {}
    for mod in modules:
        layer = mod.__name__.rsplit(".", 1)[1]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not inspect.isfunction(obj) or obj.__module__ != mod.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapped[id(obj)] = tracer.wrap(obj, name, NAMERS.get(name), OBSERVERS.get(name))

    undo = []
    for ns in [package, *modules]:
        for attr, obj in list(vars(ns).items()):
            if id(obj) in wrapped and inspect.isfunction(obj):
                setattr(ns, attr, wrapped[id(obj)])
                undo.append((ns, attr, obj))

    op = package.fokker_planck.AdjointOperator
    for meth in ("__init__", "apply"):
        orig = op.__dict__[meth]
        setattr(op, meth, tracer.wrap(orig, f"fokker_planck.AdjointOperator.{meth}"))
        undo.append((op, meth, orig))

    def uninstall() -> None:
        for ns, attr, obj in undo:
            setattr(ns, attr, obj)

    return uninstall
