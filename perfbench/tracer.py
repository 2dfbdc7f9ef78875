"""In-memory span tracer that wraps public functions from outside the program.

A span is recorded for each call into a wrapped function: name, layer, start,
end, parent span and request id (the dataset being validated).  Wrapping
replaces the attribute on its owner (a module or a class) with a timing
wrapper; ``restore`` puts every original back.  Functions that call
themselves (``scsr.eval_tree_columns``) get a span for the outermost call
only: a wrapper that is already active passes straight through.
"""

from __future__ import annotations

import functools
import gzip
import json
import time
from collections import defaultdict


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        # (span_id, parent_id, name, layer, start, end, request)
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.maxima: dict[str, float] = {}
        self.absent: set[str] = set()
        self.request = None
        self._stack: list[int] = []
        self._active: dict[str, int] = defaultdict(int)
        self._saved: list[tuple] = []  # (owner, attr, original, owned)

    # -- spans ---------------------------------------------------------------

    def call(self, name: str, layer: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span; the span closes even when ``fn`` raises."""
        span_id = len(self.spans)
        self.spans.append(None)  # reserve the id so children can point at it
        parent = self._stack[-1] if self._stack else None
        self._stack.append(span_id)
        self._active[name] += 1
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            self._active[name] -= 1
            self._stack.pop()
            self.spans[span_id] = (span_id, parent, name, layer, start, end, self.request)

    def count(self, key: str, amount: float = 1.0) -> None:
        self.counts[key] += amount

    def maximum(self, key: str, value: float) -> None:
        self.maxima[key] = max(self.maxima.get(key, value), value)

    # -- wrapping ------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, layer: str, on_result=None, on_error=None) -> bool:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``on_result(tracer, args, kwargs, result)`` and ``on_error(tracer,
        args, kwargs, exc)`` record counters.  Returns False, and records ``name`` as
        absent, when the attribute does not exist.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.add(name)
            return False
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if tracer._active[name]:
                return original(*args, **kwargs)
            try:
                result = tracer.call(name, layer, original, *args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(tracer, args, kwargs, exc)
                raise
            if on_result is not None:
                on_result(tracer, args, kwargs, result)
            return result

        owned = attr in vars(owner)
        self._saved.append((owner, attr, original, owned))
        setattr(owner, attr, wrapper)
        return True

    def restore(self) -> None:
        """Put back every wrapped attribute, newest first."""
        while self._saved:
            owner, attr, original, owned = self._saved.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    # -- output --------------------------------------------------------------

    def write(self, path) -> None:
        keys = ("id", "parent", "name", "layer", "start", "end", "request")
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for span in spans:
        if span[1] is not None:
            children[span[1]].append((span[4], span[5]))
    out = []
    for span in spans:
        start, end = span[4], span[5]
        covered = 0.0
        cursor = start
        for lo, hi in sorted(children.get(span[0], ())):
            lo, hi = max(lo, cursor), min(hi, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append((end - start) - covered)
    return out
