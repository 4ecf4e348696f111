"""Span tracing for the sweep benchmark.

The tracer wraps functions of the ``liecodim`` package from the outside: it
replaces every module-level reference to a target function with a wrapper
that records one span per call.  Nothing in ``src/`` is edited.

Per span name the tracer keeps the call count, the inclusive time, the self
time (duration minus the part covered by direct child spans) and the number
of calls that raised.  No traced function calls itself through a wrapped
reference, so inclusive times are simply summed.
"""

from __future__ import annotations

import functools
import statistics
import time
from dataclasses import dataclass


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    raised: int = 0


class Tracer:
    """Spans kept in memory; ``stats`` maps a span name to its totals."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self._children: list[float] = []  # child time per open span

    def wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, SpanStats())

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._children.append(0.0)
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                stats.raised += 1
                raise
            finally:
                elapsed = self.clock() - start
                covered = self._children.pop()
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - covered
                if self._children:
                    self._children[-1] += elapsed

        return traced


class MissingTarget(LookupError):
    """A function the tracer was told to wrap does not exist."""


def wrap_functions(tracer: Tracer, modules, targets) -> None:
    """Wrap each ``(span_name, owner, attribute)`` function in ``targets``.

    ``owner`` is the defining module or class; every reference to the same
    function object in ``modules`` is rebound as well.  Raises
    :class:`MissingTarget` before wrapping anything if a target is absent,
    so that a renamed function fails the traced run instead of reporting
    zero calls.
    """
    missing = [f"{owner.__name__}.{attr}" for _, owner, attr in targets
               if not callable(vars(owner).get(attr))]
    if missing:
        raise MissingTarget(f"cannot trace missing functions: {missing}")
    for name, owner, attr in targets:
        original = vars(owner)[attr]
        traced = tracer.wrap(name, original)
        for namespace in (owner, *modules):
            for key, value in list(vars(namespace).items()):
                if value is original:
                    setattr(namespace, key, traced)


def per_call_overhead(calls: int = 100_000, repeats: int = 5) -> float:
    """Seconds one span adds to a call: the median over ``repeats`` timings of
    ``calls`` calls of a wrapped no-op inside a wrapped loop, less the same
    loop of bare calls, divided by ``calls``."""
    def noop():
        pass

    def loop(fn):
        for _ in range(calls):
            fn()

    tracer = Tracer()
    traced_loop = tracer.wrap("loop", loop)
    traced_noop = tracer.wrap("noop", noop)
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        traced_loop(traced_noop)
        wrapped = time.perf_counter() - start
        start = time.perf_counter()
        loop(noop)
        bare = time.perf_counter() - start
        samples.append((wrapped - bare) / calls)
    return statistics.median(samples)
