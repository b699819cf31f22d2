"""In-memory span recording around the library's public calls.

The benchmark's traced run wraps the public entry points of each layer
at run time (module functions wherever the library or the benchmark's
workload module bound them, and methods on their classes) so that
``src/`` stays untouched.
A span is ``(name, start_ns, end_ns, parent)``; ``parent`` is the index
of the enclosing span or -1. Spans stay in memory until
:meth:`Tracer.write` dumps them when the benchmark ends.

Only the process that installed the wrappers records: worker processes
forked by a multiprocess sweep inherit the wrappers but call straight
through, so the per-layer split of a multiprocess run is parent-side.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import sys
import time
from collections import defaultdict

#: Every ``RESULT_SAMPLE_EVERY``-th simulation result is pickled to
#: sample ``sim.result_kb`` (pickling every result would dominate the
#: traced run).
RESULT_SAMPLE_EVERY = 25


class NullTracer:
    """The untraced run's tracer: call sites stay, recording does not."""

    def open(self, name: str) -> int:
        return -1

    def close(self, index: int) -> None:
        pass


class Tracer:
    """Span and counter recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent]
        self.counters: dict[str, float] = defaultdict(float)
        self.result_kb: list[float] = []
        self.active = False
        self.pid = os.getpid()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._results_seen = 0

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent])
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter_ns()
        # Pop through any span an exception left open inside this one.
        while self._stack and self._stack.pop() != index:
            pass

    def recording(self) -> bool:
        return self.active and os.getpid() == self.pid

    # -- run-time wrapping ------------------------------------------------

    def _traced(self, fn, name: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.recording():
                return fn(*args, **kwargs)
            index = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if after is not None:
                after(args, result)
            return result

        return traced

    def wrap_function(
        self, module_name: str, attr: str, name: str, after=None
    ) -> None:
        """Trace ``module.attr`` in every loaded module bound to it.

        Modules that did ``from module import attr`` hold their own
        reference, so each binding of the same function object is
        replaced, not only the defining module's: the library's own
        modules and the benchmark's workload module alike.
        """
        original = getattr(importlib.import_module(module_name), attr)
        traced = self._traced(original, name, after)
        for module in list(sys.modules.values()):
            owner = getattr(module, "__name__", "") or ""
            if not (owner == "repro" or owner.startswith("repro.")
                    or owner == "surfaces"):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)
                    self._undo.append((module, key, original))

    def wrap_method(self, cls, attr: str, name: str, after=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._traced(original, name, after))
        self._undo.append((cls, attr, original))

    def count_calls(self, cls, attr: str, counter: str) -> None:
        """Count calls of ``cls.attr`` without a span (hot constructors)."""
        original = cls.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def counted(*args, **kwargs):
            if tracer.recording():
                tracer.counters[counter] += 1
            return original(*args, **kwargs)

        setattr(cls, attr, counted)
        self._undo.append((cls, attr, original))

    def install(self) -> None:
        """Wrap the public calls of every layer (see the module docstring)."""
        from repro.arch.queue import HardwareQueue
        from repro.perf.analysis_cache import AnalysisCache
        from repro.sim.runtime import Simulator
        from repro.sweep import reducers
        from repro.sweep.planner import FrontierPlanner
        from repro.witness.store import WitnessStore

        counters = self.counters

        def after_cross_off(args, result):
            counters["core.cross_off.pairs"] += result.pairs_crossed

        def after_run(args, result):
            counters["sim.events"] += result.events
            counters["sim.queues_used"] += sum(
                1
                for stats in result.queue_stats.values()
                if stats.words_pushed
            )
            self._results_seen += 1
            if self._results_seen % RESULT_SAMPLE_EVERY == 1:
                self.sample_result(result)

        self.wrap_function(
            "repro.core.crossing",
            "cross_off",
            "core.cross_off",
            after_cross_off,
        )
        self.wrap_function(
            "repro.core.labeling", "constraint_labeling", "core.labeling"
        )
        self.wrap_function(
            "repro.core.schedule", "summarize_schedule", "core.schedule"
        )
        self.wrap_method(AnalysisCache, "lookup", "perf.lookup")
        self.wrap_method(Simulator, "__init__", "sim.build")
        self.wrap_method(Simulator, "run", "sim.run", after_run)
        self.count_calls(HardwareQueue, "__init__", "sim.queues_built")
        self.wrap_function("repro.sim.deadlock", "diagnose", "sim.diagnose")
        self.wrap_function(
            "repro.sweep.summary", "summarize_result", "sweep.summary"
        )
        for cls in (
            reducers.CompletedCount,
            reducers.MakespanHistogram,
            reducers.DeadlockRateByConfig,
            reducers.QuantileReducer,
            reducers.PerConfigMakespan,
        ):
            self.wrap_method(cls, "update", "sweep.reduce")
        self.wrap_method(FrontierPlanner, "run", "planner.run")
        self.wrap_method(WitnessStore, "find", "witness.find")
        self.wrap_method(WitnessStore, "save", "witness.save")
        self.wrap_function(
            "repro.witness.certificate", "mine_witness", "witness.mine"
        )
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def sample_result(self, result) -> None:
        """Add one pickled ``SimulationResult`` size to ``sim.result_kb``."""
        self.result_kb.append(len(pickle.dumps(result)) / 1024.0)

    # -- reduction --------------------------------------------------------

    def self_times_ns(self) -> dict[str, tuple[int, int]]:
        """``{name: (calls, self_ns)}``; self time excludes child spans."""
        child_ns = [0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        totals: dict[str, list[int]] = defaultdict(lambda: [0, 0])
        for index, (name, start, end, _parent) in enumerate(self.spans):
            entry = totals[name]
            entry[0] += 1
            entry[1] += end - start - child_ns[index]
        return {name: (calls, ns) for name, (calls, ns) in totals.items()}

    def write(self, path: str, header: dict) -> None:
        """Dump every span, names interned, as one JSON document."""
        names: dict[str, int] = {}
        rows = []
        for name, start, end, parent in self.spans:
            code = names.setdefault(name, len(names))
            rows.append([code, start, end, parent])
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    **header,
                    "fields": ["name", "start_ns", "end_ns", "parent"],
                    "names": list(names),
                    "spans": rows,
                },
                handle,
                separators=(",", ":"),
            )
