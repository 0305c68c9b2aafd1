"""Spans and counters recorded from outside the program.

A Tracer wraps functions and methods of the traced modules.  Each call of a
wrapped function records a span (name, start, end, parent) in memory; each
observer adds counts at the same boundary.  Self time of a span is its
duration minus the durations of its direct children.
"""

from __future__ import annotations

import sys
import time


class Tracer:
    def __init__(self):
        self.spans = []   # [name, start, end, parent index or -1]
        self.counts = {}
        self._stack = []

    def add(self, name: str, k=1):
        self.counts[name] = self.counts.get(name, 0) + k

    def timed(self, fn, name, observe=None):
        """fn wrapped to record a span per call.

        name is a string or a function of the call's positional arguments;
        observe(tracer, args, result) adds counts after a call returns.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            label = name if isinstance(name, str) else name(args)
            spans.append([label, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    def counted(self, fn, name):
        """fn wrapped to count calls only, for calls too fine to time."""
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def summary(self):
        """{name: [calls, self seconds, total seconds]} over all spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            row = out.setdefault(name, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += end - start - inner
            row[2] += end - start
        return out


def patch_function(package: str, module, attr: str, wrapper):
    """Replace module.attr by wrapper in every module of the package.

    Modules bind names at import (`from .linalg import echelonize`), so the
    wrapper must replace each importing module's binding, not only the
    defining module's.
    """
    original = getattr(module, attr)
    for mod in list(sys.modules.values()):
        name = getattr(mod, "__name__", "")
        if (name == package or name.startswith(package + ".")) and \
                getattr(mod, attr, None) is original:
            setattr(mod, attr, wrapper)
