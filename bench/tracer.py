"""In-memory span tracer for the realroots benchmark.

The tracer wraps functions of the package at their module boundary for the
duration of one traced pass and restores the originals afterwards, so timed
passes never run through a wrapper.  A name is patched wherever it is looked
up: in every ``realroots`` module namespace that holds the function object
(``groups`` calls ``convex_hull`` and ``polarize`` through its own namespace,
``convex`` calls ``integrate_over_simplex`` through its own), and on the class
for methods.

Three kinds of wrapper:

* ``span``  records a span (id, parent, job, name, start, end) and adds to the
  call count, inclusive and self time of its name;
* ``timed`` adds to call count and times but keeps no span record, for
  functions called thousands of times per job (``exactalg`` elimination,
  polynomial arithmetic);
* ``count`` only counts calls, for the innermost hot function
  (``Polynomial.__call__`` inside quadrature).

Self time of a wrapped call is its duration minus the time covered by wrapped
calls made inside it.  Time in unwrapped helpers is charged to the nearest
wrapped caller.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable


def _default_around(tracer, fn, args, kwargs):
    return fn(*args, **kwargs)


class Tracer:
    """Span and counter collector; one instance per traced pass."""

    def __init__(self) -> None:
        self.spans: list[tuple[int, int | None, str | None, str, float, float]] = []
        self.calls: Counter = Counter()
        self.inclusive: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.counts: Counter = Counter()
        self.job: str | None = None
        self._stack: list[list] = []  # [span id, name, start, child seconds]
        self._active: Counter = Counter()
        self._next_id = 0
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- wrappers ---------------------------------------------------------

    def _enter(self, name: str) -> list:
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        self._active[name] += 1
        return frame

    def _exit(self, frame: list, record: bool) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        duration = end - start
        self._active[name] -= 1
        self.calls[name] += 1
        self.self_time[name] += duration - child
        if not self._active[name]:
            self.inclusive[name] += duration
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += duration
        if record:
            self.spans.append(
                (span_id, parent[0] if parent else None, self.job, name, start, end)
            )

    def wrap(self, name: str, fn: Callable, kind: str = "span", around=None) -> Callable:
        around = around or _default_around
        if kind == "count":
            counts = self.counts

            def counted(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return counted
        record = kind == "span"

        def wrapper(*args, **kwargs):
            frame = self._enter(name)
            try:
                return around(self, fn, args, kwargs)
            finally:
                self._exit(frame, record)

        return wrapper

    @contextmanager
    def job_span(self, job: str, name: str = "job"):
        """Top-level span around one job of the job list (or, named
        "setup", around building the inputs)."""
        self.job = job
        frame = self._enter(name)
        try:
            yield
        finally:
            self._exit(frame, True)
            self.job = None

    # -- installation -----------------------------------------------------

    def patch_function(self, namespaces: list[dict], fn: Callable, wrapper: Callable) -> None:
        """Replace `fn` by `wrapper` in every namespace that holds it."""
        for ns in namespaces:
            for key, value in list(ns.items()):
                if value is fn:
                    self._patches.append((ns, key, value, False))
                    ns[key] = wrapper

    def patch_method(self, cls: type, attr: str, wrapper: Callable) -> None:
        self._patches.append((cls, attr, cls.__dict__[attr], True))
        setattr(cls, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            target, key, original, is_attr = self._patches.pop()
            if is_attr:
                setattr(target, key, original)
            else:
                target[key] = original

    # -- summaries --------------------------------------------------------

    def layer_self_time(self) -> dict[str, float]:
        """Self seconds summed per layer (the prefix before the first dot;
        the harness's own top-level spans count as "bench")."""
        out: defaultdict[str, float] = defaultdict(float)
        for name, seconds in self.self_time.items():
            out[name.split(".", 1)[0] if "." in name else "bench"] += seconds
        return dict(out)

    def job_seconds(self) -> float:
        return sum(end - start for _, parent, _, name, start, end in self.spans
                   if name == "job" and parent is None)

    def function_table(self) -> dict[str, dict[str, float]]:
        return {
            name: {
                "calls": self.calls[name],
                "inclusive_s": self.inclusive.get(name, 0.0),
                "self_s": self.self_time[name],
            }
            for name in sorted(self.calls)
        }
