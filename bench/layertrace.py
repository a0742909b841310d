"""Per-layer tracing from outside the program.

A :class:`Tracer` replaces public functions of the ``qmeansim`` modules with
timing wrappers, in every loaded ``qmeansim`` module that binds them (for
example ``seq_aamp`` is bound in both ``qmeansim.kernels`` and
``qmeansim.estimators``), and restores the originals on :meth:`Tracer.remove`.
For each wrapped function it records calls, total time and self time, where
self time is total time minus the time spent in wrapped child calls; a method
too cheap to time is only counted. Optional
observers see each call's arguments and result, to count work such as the
register size of an amplitude estimation.

The program's source is not changed, and nothing is drawn from the program's
random streams, so a traced run yields the same rows as an untraced one.
"""

from __future__ import annotations

import sys
from time import perf_counter_ns


class Span:
    """Accumulated calls, total and self nanoseconds of one wrapped function."""

    __slots__ = ("calls", "total_ns", "self_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.total_ns = 0
        self.self_ns = 0


class Tracer:
    def __init__(self) -> None:
        # Time covered by wrapped child calls, one slot per open wrapped call;
        # slot 0 collects top-level calls.
        self._child_ns = [0]
        self.spans: dict[str, Span] = {}
        self._patched: list[tuple[object, str, object]] = []

    def _wrapper(self, name: str, fn, observe):
        span = self.spans.setdefault(name, Span())
        stack = self._child_ns

        def wrapper(*args, **kwargs):
            stack.append(0)
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter_ns() - t0
                child = stack.pop()
                stack[-1] += dt
                span.calls += 1
                span.total_ns += dt
                span.self_ns += dt - child
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _generator_wrapper(self, name: str, fn):
        # A generator function does its work while it is iterated, so each
        # step is one span; ``calls`` counts the generators created.
        span = self.spans.setdefault(name, Span())
        stack = self._child_ns

        def wrapper(*args, **kwargs):
            gen = fn(*args, **kwargs)
            span.calls += 1

            def steps():
                while True:
                    stack.append(0)
                    t0 = perf_counter_ns()
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        dt = perf_counter_ns() - t0
                        child = stack.pop()
                        stack[-1] += dt
                        span.total_ns += dt
                        span.self_ns += dt - child
                    yield item

            return steps()

        return wrapper

    def wrap_function(self, module: str, attr: str, observe=None, generator=False) -> None:
        """Wrap ``module.attr`` in every loaded qmeansim module that binds it."""
        original = getattr(sys.modules[module], attr)
        name = f"{module.rsplit('.', 1)[-1]}.{attr}"
        if generator:
            wrapper = self._generator_wrapper(name, original)
        else:
            wrapper = self._wrapper(name, original, observe)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "qmeansim" or mod_name.startswith("qmeansim.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patched.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def count_method(self, module: str, cls: str, attr: str) -> None:
        """Count calls of a method on its class, for every instance.

        Only calls are counted: the method is too cheap for a span, whose
        cost would swamp it, so its time stays in its callers' self time.
        """
        klass = getattr(sys.modules[module], cls)
        original = vars(klass)[attr]
        span = self.spans.setdefault(f"{module.rsplit('.', 1)[-1]}.{cls}.{attr}", Span())

        def wrapper(*args, **kwargs):
            span.calls += 1
            return original(*args, **kwargs)

        self._patched.append((klass, attr, original))
        setattr(klass, attr, wrapper)

    def remove(self) -> None:
        """Put every original function back."""
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()
