"""Self-time spans around qdiv's public functions, installed from outside.

Every public function of a traced module is wrapped, and the wrapper is
rebound under every name that refers to it in any loaded ``qdiv`` module
(``qdiv.oracle.kl`` and ``qdiv.divergence.kl`` alike), so calls inside the
package pass through it too. Generators are wrapped so that only the time
spent inside their ``next()`` is charged to their layer.

Spans are not stored one by one: a stack of open spans attributes each
span's duration, minus the time covered by its child spans, to the span's
layer as self time. Self times therefore add up to the duration of the
outermost span. ``distributions`` gets counters only; its time stays in the
self time of whichever layer called it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
from time import perf_counter

LAYERS = ("cli", "experiments", "oracle", "divergence", "stats", "enumeration")

# Rows produced by an experiments call, read from its return value.
ROW_COUNTERS = {
    "run_pairwise_experiment": lambda result: result.rows_written,
    "run_uniform_study": len,
}


class Tracer:
    """Per-layer self time and call counts for one traced process."""

    def __init__(self) -> None:
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.calls = dict.fromkeys(LAYERS, 0)
        # (caller layer, callee "layer.function") -> calls; the caller of
        # the outermost span is "root"
        self.edges: dict[tuple[str, str], int] = {}
        # [function name, args, items yielded, exhausted] per generator made
        self.generators: list[list] = []
        self.rows = 0
        self.offthread_calls = 0
        self.distribution_counts = [0, 0]  # .total reads, instances
        self._stack: list[list] = [["root", 0.0]]
        self._main_thread = threading.get_ident()

    def install(self) -> None:
        """Wrap the public functions of every layer and count distributions."""
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"qdiv.{layer}"]
            for name, value in vars(module).items():
                if (
                    name.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != module.__name__
                ):
                    continue
                if inspect.isgeneratorfunction(value):
                    wrappers[id(value)] = self._generator(layer, value)
                else:
                    wrappers[id(value)] = self._span(layer, value)
        for name, module in list(sys.modules.items()):
            if name != "qdiv" and not name.startswith("qdiv."):
                continue
            for attr, value in list(vars(module).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, attr, wrapper)
        self._count_distributions()

    def _enter(self, layer: str, callee: str) -> list:
        self.calls[layer] += 1
        key = (self._stack[-1][0], callee)
        self.edges[key] = self.edges.get(key, 0) + 1
        frame = [layer, 0.0]
        self._stack.append(frame)
        return frame

    def _leave(self, frame: list, duration: float) -> None:
        self._stack.pop()
        self.self_s[frame[0]] += duration - frame[1]
        self._stack[-1][1] += duration

    def _span(self, layer, fn):
        count_rows = ROW_COUNTERS.get(fn.__name__) if layer == "experiments" else None
        callee = f"{layer}.{fn.__name__}"
        main_thread = self._main_thread

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if threading.get_ident() != main_thread:
                # The span stack belongs to the main thread; such work is
                # outside the self-time split, which the check reports.
                self.offthread_calls += 1
                return fn(*args, **kwargs)
            frame = self._enter(layer, callee)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(frame, perf_counter() - start)
            if count_rows is not None:
                self.rows += count_rows(result)
            return result

        return wrapper

    def _generator(self, layer, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            # Creating the generator runs none of its body; only next() is timed.
            record = [fn.__name__, list(args), 0, False]
            self.generators.append(record)
            return self._drive(layer, f"{layer}.{fn.__name__}", fn(*args, **kwargs), record)

        return wrapper

    def _drive(self, layer, callee, gen, record):
        while True:
            frame = self._enter(layer, callee)
            start = perf_counter()
            try:
                item = next(gen)
            except StopIteration:
                record[3] = True
                return
            finally:
                self._leave(frame, perf_counter() - start)
            record[2] += 1
            yield item

    def _count_distributions(self) -> None:
        from qdiv.distributions import QuantumDistribution

        total = QuantumDistribution.__dict__["total"].fget
        post_init = QuantumDistribution.__dict__["__post_init__"]
        counts = self.distribution_counts

        def counted_total(obj):
            counts[0] += 1
            return total(obj)

        # OrderedQuantumDistribution reaches this through super(), so every
        # instance of either class is counted once.
        def counted_post_init(obj):
            counts[1] += 1
            post_init(obj)

        QuantumDistribution.total = property(counted_total, doc=total.__doc__)
        QuantumDistribution.__post_init__ = counted_post_init

    def summary(self) -> dict:
        """JSON-ready totals; ``spanned_s`` is the outermost spans' duration."""
        return {
            "self_s": self.self_s,
            "calls": self.calls,
            "edges": {f"{a}>{b}": n for (a, b), n in self.edges.items()},
            "generators": self.generators,
            "rows": self.rows,
            "offthread_calls": self.offthread_calls,
            "total_reads": self.distribution_counts[0],
            "instances": self.distribution_counts[1],
            "spanned_s": self._stack[0][1],
            "open_spans": len(self._stack) - 1,
        }
