"""Spans and call counts recorded around the public functions of ``channelmask``.

A :class:`Tracer` replaces a function where its caller looks it up (a module
attribute such as ``verify.apply``), so the program itself is not edited.
Spans are kept in memory as ``[name, start, end, parent, family]`` and written
out when the run ends; self time is a span's duration minus that of its child
spans.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.errors: Counter = Counter()
        self.totals: Counter = Counter()
        self.family: str | None = None
        self.active = False
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    # -- recording -------------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.family])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _span_wrapper(self, name: str, fn, measure):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.errors[name] += 1
                raise
            finally:
                self.close(index)
            if measure is not None:
                self.totals.update(measure(args, result))
            return result

        return wrapper

    def _count_wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.active:
                self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing ------------------------------------------------------------

    def span(self, module, attr: str, name: str, measure=None) -> None:
        """Record a span named ``name`` for every call of ``module.attr``.

        ``measure(args, result)`` may return counts to add to :attr:`totals`;
        it runs after the span is closed.
        """
        self._patch(module, attr, self._span_wrapper(name, getattr(module, attr), measure))

    def count(self, module, attr: str, name: str) -> None:
        """Count the calls of ``module.attr`` under ``name`` without a span."""
        self._patch(module, attr, self._count_wrapper(name, getattr(module, attr)))

    def _patch(self, module, attr: str, wrapper) -> None:
        self._patched.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    # -- results ---------------------------------------------------------------

    def layers(self) -> dict:
        """Per span name: calls, busy seconds, self seconds and errors."""
        child_s = defaultdict(float)
        for _, start, end, parent, _ in self.spans:
            if parent is not None:
                child_s[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": 0})
        for index, (name, start, end, _, _) in enumerate(self.spans):
            layer = out[name]
            layer["calls"] += 1
            layer["busy_s"] += end - start
            layer["self_s"] += end - start - child_s[index]
        for name, count in self.errors.items():
            out[name]["errors"] = count
        return dict(out)

    def write(self, path) -> None:
        keys = ("name", "start", "end", "parent", "family")
        payload = {
            "spans": [dict(zip(keys, span)) for span in self.spans],
            "calls": dict(self.calls),
            "totals": dict(self.totals),
        }
        path.write_text(json.dumps(payload))
