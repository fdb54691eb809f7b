"""Per-layer tracing of qperm, installed from outside the program.

Every public function and public method of the seven qperm modules, and the
constructor of every class that does work in ``__init__`` (or
``__post_init__``), is replaced by a wrapper that records a span: calls,
total time and self time (span time minus the time of its child spans).

A module function is bound under its name in every module namespace that
imported it (``from .algebra import meet`` copies ``meet`` into
``qperm.permutation``, ``qperm.cli`` and ``qperm``), and may sit as a value
in a module-level registry dict (``cli.EXPERIMENTS``); every such binding is
replaced, and restored by :meth:`Tracer.uninstall`.  Methods are wrapped on
the class that defines them.

Span names are ``<module>.<function>`` for module functions and public
methods, and ``<module>.<Class>`` for constructors.  A module function whose
name is also a method name in the same module (the thin aliases
``cqg.validate``, ``cqg.convolve``, ``cqg.reverse``) is named
``<module>.fn.<function>`` so that the method keeps the plain name.

Three spans also record what their call returned or emitted:

- ``algebra.meet``: ``RuntimeWarning``s from the spectral fallback, which
  are counted and then re-emitted unchanged;
- ``idempotent.cesaro_idempotent``: the ``CesaroResult.iterations`` sum;
- ``idempotent.collapse_stability_probe``: candidates sampled
  (``n_samples``) and members accepted (``members_tested - 1``).
"""
from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import sys
import warnings
from time import perf_counter

MODULES = ("permgroups", "algebra", "cqg", "idempotent", "permutation",
           "dynamics", "cli")


class SpanStats:
    __slots__ = ("calls", "total", "self_time", "extra")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self_time = 0.0
        self.extra: dict[str, float] = {}

    def add_extra(self, key: str, value: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + value


def _does_work_in_init(cls) -> bool:
    if "__init__" not in vars(cls):
        return False
    if dataclasses.is_dataclass(cls):
        return "__post_init__" in vars(cls)
    return True


def discover():
    """Every wrapped callable: (span name, owner, attribute, kind, original).

    ``owner`` is a module or a class; ``kind`` is "function", "method",
    "classmethod" or "staticmethod".
    """
    found = []
    for mod in MODULES:
        module = importlib.import_module(f"qperm.{mod}")
        classes = [obj for name, obj in vars(module).items()
                   if inspect.isclass(obj) and obj.__module__ == module.__name__
                   and not name.startswith("_")]
        method_names = {attr for cls in classes for attr in vars(cls)
                        if not attr.startswith("_")}
        for name, obj in vars(module).items():
            if (name.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__):
                continue
            span = f"{mod}.fn.{name}" if name in method_names else f"{mod}.{name}"
            found.append((span, module, name, "function", obj))
        for cls in classes:
            for attr, raw in vars(cls).items():
                if attr == "__init__":
                    if _does_work_in_init(cls):
                        found.append((f"{mod}.{cls.__name__}", cls, attr, "method", raw))
                    continue
                if attr.startswith("_"):
                    continue
                if isinstance(raw, classmethod):
                    found.append((f"{mod}.{attr}", cls, attr, "classmethod", raw.__func__))
                elif isinstance(raw, staticmethod):
                    found.append((f"{mod}.{attr}", cls, attr, "staticmethod", raw.__func__))
                elif inspect.isfunction(raw):
                    found.append((f"{mod}.{attr}", cls, attr, "method", raw))
    return found


class Tracer:
    """Span recorder; :meth:`install` patches qperm, :meth:`uninstall` undoes it."""

    def __init__(self):
        self.stats: dict[str, SpanStats] = {}
        self._stack: list[float] = []
        self._patches: list[tuple] = []  # (container, key, original, is_dict)

    # -- wrappers ---------------------------------------------------------------

    def _wrap(self, span: str, fn):
        stats = self.stats.setdefault(span, SpanStats())
        stack = self._stack
        observe = _OBSERVERS.get(span)
        signature = inspect.signature(fn) if observe else None
        call = (functools.partial(_meet_counting_fallbacks, fn, stats)
                if span == "algebra.meet" else fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = call(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                if stack:
                    stack[-1] += dt
                stats.calls += 1
                stats.total += dt
                stats.self_time += dt - child
            if observe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                observe(stats, bound.arguments, result)
            return result

        return wrapper

    # -- patching -------------------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [m for name, m in sys.modules.items()
                      if (name == "qperm" or name.startswith("qperm.")) and m is not None]
        functions = {}  # id(original) -> wrapper
        for span, owner, attr, kind, original in discover():
            wrapped = self._wrap(span, original)
            if kind == "function":
                functions[id(original)] = wrapped
                continue
            raw = vars(owner)[attr]
            if kind == "classmethod":
                wrapped = classmethod(wrapped)
            elif kind == "staticmethod":
                wrapped = staticmethod(wrapped)
            self._patches.append((owner, attr, raw, False))
            setattr(owner, attr, wrapped)
        for module in namespaces:
            for key, value in list(vars(module).items()):
                if id(value) in functions:
                    self._patches.append((module, key, value, False))
                    setattr(module, key, functions[id(value)])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k, v in list(value.items()):
                        if id(v) in functions:
                            self._patches.append((value, k, v, True))
                            value[k] = functions[id(v)]

    def uninstall(self) -> None:
        for container, key, original, is_dict in reversed(self._patches):
            if is_dict:
                container[key] = original
            else:
                setattr(container, key, original)
        self._patches.clear()
        self._stack.clear()


def span_table(tracer: Tracer) -> dict:
    """The tracer's spans that ran, as plain dicts."""
    return {name: {"calls": s.calls, "total": s.total, "self": s.self_time,
                   "extra": dict(s.extra)}
            for name, s in tracer.stats.items() if s.calls}


def merge_spans(total: dict, table: dict, scale: float = 1.0) -> None:
    """Add a span table, its times multiplied by ``scale``, into a running
    total, in place."""
    for name, s in table.items():
        t = total.setdefault(name, {"calls": 0, "total": 0.0, "self": 0.0, "extra": {}})
        t["calls"] += s["calls"]
        t["total"] += scale * s["total"]
        t["self"] += scale * s["self"]
        for k, v in s["extra"].items():
            t["extra"][k] = t["extra"].get(k, 0.0) + v


def _meet_counting_fallbacks(fn, stats, *args, **kwargs):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = fn(*args, **kwargs)
    for w in caught:
        if issubclass(w.category, RuntimeWarning) and "fallback" in str(w.message):
            stats.add_extra("fallbacks", 1)
    for w in caught:
        warnings.warn_explicit(w.message, w.category, w.filename, w.lineno)
    return result


def _observe_cesaro(stats, arguments, result):
    stats.add_extra("iterations", result.iterations)


def _observe_probe(stats, arguments, result):
    stats.add_extra("candidates", int(arguments["n_samples"]))
    stats.add_extra("accepted", result.members_tested - 1)


_OBSERVERS = {
    "idempotent.cesaro_idempotent": _observe_cesaro,
    "idempotent.collapse_stability_probe": _observe_probe,
}
