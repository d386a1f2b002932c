"""Per-layer spans taken from outside the library.

A :class:`Tracer` replaces each target function with a timing wrapper in
every module that binds it -- the defining module, the ``gte`` package and
each ``gte.*`` module that imported the name -- so calls that one library
module makes into another are seen as well as the benchmark's own calls.
A span's self time is its duration minus the time of the spans nested in
it.  Nothing inside ``src/gte`` is edited; leaving the ``with`` block puts
every original function back.

Totals are kept per span name (calls, total seconds, self seconds, counters
filled by a hook, exceptions by type) and can be merged from a child
process's JSON dump.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter

#: lru-cached library functions whose cache_info() the tracer reads.
CACHES = (("gte.tensor", "_dense_tables", "tensor.cache"),
          ("gte.invariants", "_plan", "invariants.plan_cache"))


def _empty_span() -> dict:
    return {"calls": 0, "total": 0.0, "self": 0.0, "counters": {}, "errors": {}}


def _cache_counts() -> dict:
    out = {}
    for modname, attr, label in CACHES:
        mod = sys.modules.get(modname)
        if mod is not None:
            info = getattr(mod, attr).cache_info()
            out[label] = [info.hits, info.misses]
    return out


class Tracer:
    """Collects spans for ``targets`` while used as a context manager.

    ``targets`` holds ``(module, attribute, span name, hook)`` tuples.  A
    hook, when given, is called as ``hook(counters, args, kwargs, result)``
    after each successful call.  Targets whose module is not imported are
    skipped, so tracing never imports anything.
    """

    def __init__(self, targets):
        self.targets = targets
        self.spans: dict[str, dict] = {}
        self.caches: dict[str, list[int]] = {}
        self._stack: list[list[float]] = []
        self._undo: list[tuple] = []
        self._cache_start: dict = {}

    def span(self, name: str) -> dict:
        return self.spans.setdefault(name, _empty_span())

    def _wrap(self, name, fn, hook):
        stats = self.span(name)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = [0.0]
            stack.append(inner)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                kind = type(exc).__name__
                stats["errors"][kind] = stats["errors"].get(kind, 0) + 1
                raise
            finally:
                dt = perf_counter() - t0
                stack.pop()
                if stack:
                    stack[-1][0] += dt
                stats["calls"] += 1
                stats["total"] += dt
                stats["self"] += dt - inner[0]
            if hook is not None:
                hook(stats["counters"], args, kwargs, out)
            return out

        return wrapper

    def __enter__(self):
        callers = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "gte" or k.startswith("gte."))]
        for modname, attr, name, hook in self.targets:
            home = sys.modules.get(modname)
            if home is None:
                continue
            orig = getattr(home, attr)
            wrapped = self._wrap(name, orig, hook)
            for mod in [home] + [m for m in callers if m is not home]:
                for key, val in list(vars(mod).items()):
                    if val is orig:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, orig))
        self._cache_start = _cache_counts()
        return self

    def __exit__(self, *exc_info):
        for label, (hits, misses) in _cache_counts().items():
            h0, m0 = self._cache_start.get(label, (0, 0))
            acc = self.caches.setdefault(label, [0, 0])
            acc[0] += hits - h0
            acc[1] += misses - m0
        while self._undo:
            mod, key, orig = self._undo.pop()
            setattr(mod, key, orig)
        return False

    def dump(self) -> dict:
        return {"spans": self.spans, "caches": self.caches}

    def merge(self, dumped: dict) -> None:
        """Add the totals of another tracer's :meth:`dump`."""
        for name, other in dumped["spans"].items():
            mine = self.span(name)
            for key in ("calls", "total", "self"):
                mine[key] += other[key]
            for group in ("counters", "errors"):
                for key, val in other[group].items():
                    mine[group][key] = mine[group].get(key, 0) + val
        for label, (hits, misses) in dumped["caches"].items():
            acc = self.caches.setdefault(label, [0, 0])
            acc[0] += hits
            acc[1] += misses

    def hit_ratio(self, label: str) -> float:
        hits, misses = self.caches.get(label, (0, 0))
        return hits / (hits + misses) if hits + misses else 0.0
