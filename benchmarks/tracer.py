"""Outside-in tracing: wrap public module functions, record spans in memory.

The program is never edited. ``Tracer.wrap`` replaces a module attribute with
a wrapper that records one span per call; every caller that looks the name up
through the module (``codec.encode_layer(...)`` or a bare global inside that
module) goes through the wrapper. ``restore`` puts the originals back. A span
is ``[name, start, end, parent, op]``: ``parent`` is the index of the span
open on the same thread when the call began (-1 for none) and ``op`` the
index of the benchmark operation it belongs to.
"""

from __future__ import annotations

import functools
import threading
import time

NAME, START, END, PARENT, OP = range(5)


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.op = 0
        self._local = threading.local()
        self._saved: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, module, attr: str, name: str | None = None, on_return=None):
        """Trace calls to ``module.attr`` as span `name` (default ``module.attr``).

        `on_return(args, kwargs, result)` runs after the span has closed, so
        its own cost is charged to the caller, not to the traced function.
        """
        original = getattr(module, attr)
        label = name or f"{module.__name__.rsplit('.', 1)[-1]}.{attr}"
        spans = self.spans

        @functools.wraps(original)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = [label, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(span)
            span[START] = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if on_return is not None:
                on_return(args, kwargs, result)
            return result

        self._saved.append((module, attr, original))
        setattr(module, attr, traced)

    def restore(self):
        while self._saved:
            module, attr, original = self._saved.pop()
            setattr(module, attr, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def self_times(self) -> list:
        """Each span's duration minus the durations of its direct children."""
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own

    def totals(self) -> dict:
        """op -> span name -> inclusive seconds, self seconds and calls."""
        out = {}
        for span, own in zip(self.spans, self.self_times()):
            row = out.setdefault(span[OP], {}).setdefault(
                span[NAME], {"s": 0.0, "self_s": 0.0, "calls": 0}
            )
            row["s"] += span[END] - span[START]
            row["self_s"] += own
            row["calls"] += 1
        return out
