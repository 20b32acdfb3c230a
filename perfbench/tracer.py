"""In-memory span recorder that instruments cloudsched from the outside.

`instrument` rebinds public names in the `cloudsched.*` namespaces (and a few
class attributes) to wrappers that record one span per call, or only count
calls where a span per call would cost more than the work it times. Nothing
under `src/` is edited. The rebinding lasts for the life of the interpreter,
which is one benchmark sample.

A span is (name, start, end, parent index), with times from
`time.perf_counter`. A span's self time is its duration minus the durations of
its direct children; calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict


class Tracer:
    """Spans and call counts kept in memory until the run ends."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.queue_depth = 0
        self.peak_queue_len = 0

    def wrap(self, name: str, fn, on_enter=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter()
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn(*args, **kwargs) inside a span called name."""
        return self.wrap(name, fn)(*args, **kwargs)

    @staticmethod
    def _rebind_everywhere(modules, attr: str, replacement) -> None:
        """Rebind attr in every module that holds the same original object."""
        original = getattr(modules[0], attr)
        for module in modules:
            if getattr(module, attr, None) is original:
                setattr(module, attr, replacement)

    def instrument(self) -> None:
        import numpy as np

        import cloudsched
        from cloudsched import cli, domain, priority, queueing, simulator, workload

        modules = [cloudsched, domain, priority, queueing, simulator, workload, cli]
        spanned = [
            (workload, "generate_arrivals", "workload.generate_arrivals", None),
            (workload, "sample_jobs", "workload.sample_jobs", None),
            (workload, "load_jobs", "workload.load_jobs", None),
            (simulator, "window_stats_by_epoch", "simulator.window_stats_by_epoch", None),
            (priority, "build_record", "priority.build_record", None),
            (queueing, "try_allocate", "queueing.try_allocate", None),
            (simulator, "run", "simulator.run", self._reset_queue_depth),
            (cli, "parse_config", "cli.parse_config", None),
        ]
        for home, attr, name, on_enter in spanned:
            wrapper = self.wrap(name, getattr(home, attr), on_enter)
            self._rebind_everywhere([home] + modules, attr, wrapper)
        self._rebind_everywhere([domain] + modules, "validate_job",
                                self.count("domain.validate_job", domain.validate_job))

        # main() dispatches through this table, not through the module name.
        cli._COMMANDS["simulate"] = self.wrap("cli.cmd_simulate", cli._COMMANDS["simulate"])

        qc = queueing.QueueClass
        qc.enqueue = self.wrap("queueing.QueueClass.enqueue", qc.enqueue, self._queue_grew)
        qc.peek = self.wrap("queueing.QueueClass.peek", qc.peek)
        qc.pop = self.wrap("queueing.QueueClass.pop", qc.pop, self._queue_shrank)

        # Per-job random streams are built inside run() through the module's
        # `np` name; route only that name through a proxy.
        rng_random = _Proxy(
            np.random,
            default_rng=self.wrap("simulator.rng.default_rng", np.random.default_rng),
            SeedSequence=self.wrap("simulator.rng.SeedSequence", np.random.SeedSequence))
        simulator.np = _Proxy(np, random=rng_random)

    def _reset_queue_depth(self) -> None:
        self.queue_depth = 0

    def _queue_grew(self) -> None:
        self.queue_depth += 1
        if self.queue_depth > self.peak_queue_len:
            self.peak_queue_len = self.queue_depth

    def _queue_shrank(self) -> None:
        self.queue_depth -= 1

    def self_times(self) -> tuple[dict, dict, list[str]]:
        """Per-name summed self time and span count, plus nesting violations.

        A violation is a span whose direct children last longer than it does.
        """
        child_time = defaultdict(float)
        for span in self.spans:
            if span is None:
                continue
            _name, start, end, parent = span
            if parent >= 0:
                child_time[parent] += end - start
        self_time: dict = defaultdict(float)
        calls: Counter = Counter()
        violations = []
        for idx, span in enumerate(self.spans):
            if span is None:
                violations.append(f"span {idx} never closed")
                continue
            name, start, end, _parent = span
            own = (end - start) - child_time[idx]
            if own < 0:
                violations.append(f"span {idx} ({name}): children exceed parent by {-own:.3g}s")
            self_time[name] += own
            calls[name] += 1
        return dict(self_time), dict(calls), violations

    def total_time(self, name: str) -> float:
        return sum(end - start for n, start, end, _p in self.spans if n == name)

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index,name,start,end,parent\n")
            for idx, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{idx},{name},{start!r},{end!r},{parent}\n")


class _Proxy:
    """Stands in for a module: overridden attributes first, the rest from the module."""

    def __init__(self, target, **overrides):
        self._target = target
        self.__dict__.update(overrides)

    def __getattr__(self, name):
        return getattr(self._target, name)
