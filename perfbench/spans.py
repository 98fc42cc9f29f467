"""Outside-in timing: per-round stamps and per-layer spans.

Nothing here edits the program.  Per-round times come from a stream object
that stamps the clock each time the learner loop takes an example; per-layer
times come from wrapping the functions and methods each caller looks up, for
the duration of one traced pass, and restoring them afterwards.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from typing import Callable, Iterator

import numpy as np

clock = time.perf_counter_ns


class StampedStream(list):
    """A list of examples that stamps perf_counter_ns as each one is taken.

    Every iteration appends one list of stamps to ``passes``: one as each
    element is taken and a last one when the loop asks past the end, so a
    full pass over T examples leaves T + 1 stamps and T round times.
    """

    def __init__(self, examples=()):
        super().__init__(examples)
        self.passes: list[list[int]] = []

    def __iter__(self):
        stamps: list[int] = []
        self.passes.append(stamps)
        for ex in list.__iter__(self):
            stamps.append(clock())
            yield ex
        stamps.append(clock())

    def round_ns(self) -> np.ndarray:
        """Per-round times of the last iteration, in ns.

        ``ahpatron.run`` iterates twice: a width scan, then the rounds, so
        only the last iteration times learner rounds.
        """
        if not self.passes:
            raise RuntimeError("the stream was never iterated")
        return np.diff(np.asarray(self.passes[-1], dtype=np.int64))


class Recorder:
    """Calls ``run_fn`` on stamped streams and keeps what every call returned.

    It has the signature of ``ahpatron.run``, so it can stand in for it at
    any call site.
    """

    def __init__(self, run_fn: Callable):
        self.run_fn = run_fn
        self.traces: list = []
        self.round_ns: list[np.ndarray] = []
        self.run_ns = 0

    def __call__(self, config, stream, dataset_name: str = ""):
        stamped = StampedStream(stream)
        start = clock()
        try:
            trace = self.run_fn(config, stamped, dataset_name)
        finally:
            self.run_ns += clock() - start
        rounds = stamped.round_ns()
        if len(rounds) != trace.T:
            raise RuntimeError(
                f"stamped {len(rounds)} rounds for a trace of T={trace.T}")
        self.traces.append(trace)
        self.round_ns.append(rounds)
        return trace


class Spans:
    """Call counts, total and self time per span name, from a span stack.

    A span's self time is its duration minus the time its child spans
    cover.  ``top_ns`` is the time covered by spans that have no parent.
    """

    def __init__(self):
        self.calls: Counter = Counter()
        self.total_ns: Counter = Counter()
        self.self_ns: Counter = Counter()
        self.top_ns = 0
        self._child_ns: list[int] = []

    def wrap(self, name: str, fn: Callable) -> Callable:
        stack = self._child_ns

        def span(*args, **kwargs):
            stack.append(0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                duration = clock() - start
                child = stack.pop()
                self.calls[name] += 1
                self.total_ns[name] += duration
                self.self_ns[name] += duration - child
                if stack:
                    stack[-1] += duration
                else:
                    self.top_ns += duration

        span.__wrapped__ = fn
        return span


@contextmanager
def patched(replacements) -> Iterator[None]:
    """Set ``owner.attr = value`` for each (owner, attr, value); restore on exit.

    ``owner`` is a module or a class, and ``attr`` must be defined on it
    directly, so the original can be put back exactly.
    """
    saved = []
    try:
        for owner, attr, value in replacements:
            saved.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
