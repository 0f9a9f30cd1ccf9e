"""Outside-in tracer for redweave: wraps the public functions of each module.

Nothing inside ``src/redweave`` is edited.  ``Tracer.install()`` replaces
every public function of the traced modules with a timing wrapper, in
every ``redweave`` namespace that holds the original object (``scan``,
for example, is bound in ``classes``, ``bounds`` and ``structure``).

Per function it keeps ``calls``, ``total_s`` (the wrapped call, children
included) and ``self_s`` (``total_s`` minus the time covered by wrapped
child calls).  When a call returns a generator, the generator is wrapped
too, and the time spent inside its ``next()`` is kept as ``iter_s`` (and
as ``iter_self_s`` without wrapped children), with the items it produced
as ``yielded``.  Iteration counts as a child of the consumer, so a
generator's cost does not land in the consumer's self time.

The ``scan`` cache (``classes._scan_impl``) is read around calls of
``classes.scan`` and ``bounds.aggregate_bound_check``.

Spans (id, parent id, request, name index, start, end) are kept in
memory up to ``SPAN_CAP`` and returned by ``report()`` when the process
is done; a generator's ``next()`` calls are spans named ``<function>.next``.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter
from types import FunctionType, GeneratorType

MODULES = ("cli", "words", "classes", "subnet", "structure", "bounds", "suite", "perm")
SPAN_CAP = 50_000
STAT_KEYS = ("calls", "total_s", "self_s", "yielded", "iter_s", "iter_self_s")


class Tracer:
    def __init__(self):
        self.stats: dict[str, dict[str, float]] = {}
        self.counters: dict[str, float] = {}
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        self.request = 0
        self._stack: list[list] = []  # frames: [span id, child seconds]
        self._next_id = 1
        self._cache = None

    def install(self) -> int:
        """Wrap every public function of MODULES; returns the number wrapped."""
        mods = {name: importlib.import_module(f"redweave.{name}") for name in MODULES}
        self._cache = mods["classes"]._scan_impl
        namespaces = [m for key, m in sys.modules.items()
                      if key == "redweave" or key.startswith("redweave.")]
        wrapped = 0
        for mod_name, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(fn, FunctionType)
                        or fn.__module__ != mod.__name__):
                    continue
                wrapper = self._wrap(f"{mod_name}.{attr}", fn)
                for ns in namespaces:
                    for key, value in list(vars(ns).items()):
                        if value is fn:
                            setattr(ns, key, wrapper)
                wrapped += 1
        return wrapped

    def _span_name(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def _enter(self) -> list:
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _leave(self, name_idx: int, frame: list, t0: float, t1: float) -> float:
        """Pop the frame, credit its duration to the parent; returns self time."""
        self._stack.pop()
        dt = t1 - t0
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[1] += dt
        if len(self.spans) < SPAN_CAP:
            self.spans.append((frame[0], parent[0] if parent else 0, self.request,
                               name_idx, t0, t1))
        else:
            self.dropped_spans += 1
        return dt - frame[1]

    def _wrap(self, name: str, fn):
        st = self.stats[name] = dict.fromkeys(STAT_KEYS, 0)
        idx, next_idx = self._span_name(name), self._span_name(f"{name}.next")
        watch_cache = name in ("classes.scan", "bounds.aggregate_bound_check")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if watch_cache:
                before = self._cache.cache_info()
            frame = self._enter()
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                st["self_s"] += self._leave(idx, frame, t0, t1)
                st["calls"] += 1
                st["total_s"] += t1 - t0
                if watch_cache:
                    self._count_cache(name, before)
            if watch_cache and name == "classes.scan":
                self._count_scan_result(before, result)
            if isinstance(result, GeneratorType):
                return self._iterate(next_idx, st, result)
            return result

        return wrapper

    def _iterate(self, idx: int, st: dict[str, float], gen: GeneratorType):
        try:
            while True:
                frame = self._enter()
                t0 = perf_counter()
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    t1 = perf_counter()
                    st["iter_self_s"] += self._leave(idx, frame, t0, t1)
                    st["iter_s"] += t1 - t0
                st["yielded"] += 1
                yield item
        finally:
            gen.close()

    def _add(self, key: str, value: float) -> None:
        self.counters[key] = self.counters.get(key, 0) + value

    def _count_cache(self, name: str, before) -> None:
        after = self._cache.cache_info()
        if name == "classes.scan":
            self._add("classes.scan.cache_hits", after.hits - before.hits)
            self._add("classes.scan.cache_misses", after.misses - before.misses)
        else:
            self._add(f"{name}.scan_misses", after.misses - before.misses)

    def _count_scan_result(self, before, result) -> None:
        if self._cache.cache_info().misses > before.misses:
            self._add("classes.scan.words_visited", result.word_count)
            self._add("classes.scan.classes_found", len(result.class_sizes))

    def report(self) -> dict:
        return {
            "stats": self.stats,
            "counters": self.counters,
            "names": self.names,
            "spans": self.spans,
            "dropped_spans": self.dropped_spans,
        }
