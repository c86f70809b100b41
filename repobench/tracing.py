"""In-memory span tracer that wraps the program's public functions.

The program itself carries no tracing: this module replaces selected
functions and methods with wrappers for the duration of a traced run and
restores the originals afterwards. Each call records one span
``(op, name, start, end, parent)``; the self time of a span is its
duration minus the time its child spans cover, so summing self times
per layer never counts nested work twice.

Module-level functions are patched in the defining module *and* in every
loaded ``repro`` module that imported them by name, so call sites that
did ``from repro.x import f`` are traced too.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path


class Tracer:
    """Spans and per-name counters recorded from wrapped call sites."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int]] = []
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.failed: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1  # the operation begun last, on any thread
        self.enabled = False
        self._local = threading.local()  # per-thread op id and span stack
        self._lock = threading.Lock()
        self._undo: list[tuple[object, str, object]] = []

    # -------------------------------------------------------------- spans
    def begin_op(self) -> None:
        """Start a new operation on the calling thread. Its spans carry the
        operation's id; spans of threads the program starts itself carry
        the id of the operation begun last."""
        with self._lock:
            self.op += 1
            self._local.op = self.op

    def wrap(self, name: str, fn, on_call=None):
        """A traced stand-in for ``fn``; ``on_call(tracer, args, kwargs,
        result)`` may add counts at the same boundary."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._thread_stack()
            with tracer._lock:
                op = getattr(tracer._local, "op", tracer.op)
                frame = [len(tracer.spans), 0.0]
                tracer.spans.append((op, name, 0.0, 0.0, -1))
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = time.perf_counter()
            ok = False
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                with tracer._lock:
                    tracer.spans[frame[0]] = (op, name, start, end, parent)
                    tracer.self_s[name] += duration - frame[1]
                    tracer.calls[name] += 1
                    if not ok:
                        tracer.failed[name] += 1
                    elif on_call is not None:
                        on_call(tracer, args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    def _thread_stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # ----------------------------------------------------------- patching
    def patch(self, target: str, name: str, on_call=None) -> None:
        """Wrap ``target``, written ``module:function`` or
        ``module:Class.method``, in spans called ``name``."""
        module_name, _, path = target.partition(":")
        owner = importlib.import_module(module_name)
        *classes, attr = path.split(".")
        for cls in classes:
            owner = getattr(owner, cls)
        if classes:
            self.patch_method(owner, attr, name, on_call)
        else:
            self.patch_function(owner, attr, name, on_call)

    def patch_method(self, cls, attr: str, name: str, on_call=None) -> None:
        """Wrap ``attr`` on ``cls`` and on every subclass overriding it."""
        classes, pending = [], [cls]
        while pending:
            klass = pending.pop()
            if klass not in classes:
                classes.append(klass)
                pending.extend(klass.__subclasses__())
        for klass in classes:
            original = klass.__dict__.get(attr)
            if original is None:
                continue
            self._undo.append((klass, attr, original))
            if isinstance(original, classmethod):
                traced = classmethod(self.wrap(name, original.__func__, on_call))
            else:
                traced = self.wrap(name, original, on_call)
            setattr(klass, attr, traced)

    def patch_function(self, module, attr: str, name: str, on_call=None) -> None:
        original = getattr(module, attr)
        traced = self.wrap(name, original, on_call)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("repro"):
                continue
            if getattr(mod, attr, None) is original:
                self._undo.append((mod, attr, original))
                setattr(mod, attr, traced)

    def unpatch(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    # ------------------------------------------------------------- output
    def layer(self, *names: str) -> tuple[float, int, int]:
        """(self seconds, calls, failed calls) summed over span names."""
        return (
            sum(self.self_s.get(n, 0.0) for n in names),
            sum(self.calls.get(n, 0) for n in names),
            sum(self.failed.get(n, 0) for n in names),
        )

    def outermost_calls(self, *names: str) -> int:
        """Calls of ``names`` not nested inside another call of ``names``."""
        wanted = set(names)
        by_index = self.spans
        total = 0
        for span in by_index:
            if span[1] not in wanted:
                continue
            parent = span[4]
            nested = False
            while parent >= 0:
                if by_index[parent][1] in wanted:
                    nested = True
                    break
                parent = by_index[parent][4]
            total += not nested
        return total

    def write(self, path: Path) -> None:
        """Write every span as one JSON line: op, name, start, end, parent."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as out:
            for index, (op, name, start, end, parent) in enumerate(self.spans):
                out.write(json.dumps(
                    {"id": index, "op": op, "name": name, "start": start,
                     "end": end, "parent": parent},
                    separators=(",", ":"),
                ))
                out.write("\n")
