"""Spans around calls into the rtfinite layers, recorded from outside.

A ``Tracer`` replaces module and class attributes with wrappers that record
a span (name, start, end, parent index) per call, and restores them on
``restore()``.  Spans are kept in memory; ``self_times`` and
``span_metrics`` turn them into per-layer counts and times.
"""

import time
from collections import Counter


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def _replace(self, owners, attr: str, make_wrapper):
        """Wrap ``attr`` on every owner that holds the same function object.

        Callers that imported a function by name hold their own reference,
        so each such module must be listed among the owners.
        """
        raw = vars(owners[0])[attr]
        func = raw.__func__ if isinstance(raw, classmethod) else raw
        wrapper = make_wrapper(func)
        replacement = classmethod(wrapper) if isinstance(raw, classmethod) else wrapper
        for owner in owners:
            if vars(owner)[attr] is not raw:
                raise RuntimeError(f"{owner.__name__}.{attr} is not the function being wrapped")
            self._saved.append((owner, attr, raw))
            setattr(owner, attr, replacement)

    def wrap(self, owners, attr: str, name: str, *, outer_only=False, on_result=None):
        """Record a span named ``name`` around each call of ``attr``.

        outer_only: record nothing when called from inside a span of the
        same layer (the first dotted part of the name), so that a layer's
        internal calls stay in the calling span.
        on_result: called with the return value after the span has closed.
        """
        spans, stack = self.spans, self._stack
        layer = name.split(".")[0] + "."

        def make(func):
            def wrapper(*args, **kwargs):
                if outer_only and stack and spans[stack[-1]][0].startswith(layer):
                    return func(*args, **kwargs)
                index = len(spans)
                spans.append([name, time.perf_counter(), None, stack[-1] if stack else -1])
                stack.append(index)
                try:
                    result = func(*args, **kwargs)
                finally:
                    stack.pop()
                    spans[index][2] = time.perf_counter()
                if on_result is not None:
                    on_result(result)
                return result
            return wrapper

        self._replace(owners, attr, make)

    def wrap_cache_misses(self, owners, attr: str, name: str):
        """Like ``wrap`` for an lru_cache'd leaf function, keeping only the
        spans of calls that missed the cache (hits are read from cache_info)."""
        spans, stack = self.spans, self._stack

        def make(func):
            def wrapper(*args, **kwargs):
                misses = func.cache_info().misses
                start = time.perf_counter()
                result = func(*args, **kwargs)
                end = time.perf_counter()
                if func.cache_info().misses != misses:
                    spans.append([name, start, end, stack[-1] if stack else -1])
                return result
            return wrapper

        self._replace(owners, attr, make)

    def count(self, owners, attr: str, name: str):
        """Count calls of ``attr`` without a span (for very frequent calls)."""
        counts = self.counts

        def make(func):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return func(*args, **kwargs)
            return wrapper

        self._replace(owners, attr, make)

    def restore(self):
        for owner, attr, raw in reversed(self._saved):
            setattr(owner, attr, raw)
        self._saved.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for _, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    result = []
    for index, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(index, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        result.append((end - start) - covered)
    return result


def span_metrics(spans, names) -> dict[str, float]:
    """``<name>.calls``, ``<name>.s`` (total duration) and ``<name>.self_s``
    for every name in ``names``, zero where no span has that name."""
    metrics = {}
    for name in names:
        metrics[f"{name}.calls"] = 0
        metrics[f"{name}.s"] = 0.0
        metrics[f"{name}.self_s"] = 0.0
    for span, own in zip(spans, self_times(spans)):
        name, start, end, _ = span
        metrics[f"{name}.calls"] += 1
        metrics[f"{name}.s"] += end - start
        metrics[f"{name}.self_s"] += own
    return metrics
