"""Simulation outcomes and statistics.

``SimulationResult.queue_stats`` is a read-only view, not a dict. The
simulator builds a queue only when it is first granted (see
:mod:`repro.sim.queue_manager`), so a run on a richly provisioned array
has statistics for a few queues and nothing for the rest. The view
keeps one ``(link, count, {index: stats})`` triple per used link and
presents the mapping every caller expects: keys ``"{link}#{i}"`` with
links in sorted order and every provisioned index ``0..count-1``, and a
zero :class:`~repro.arch.queue.QueueStats` for each queue that was never
built. The full dict is built on the first lookup or iteration only;
``len`` and pickling never build it (a pickle carries the triples), and
the view compares equal to the eager dict. ``values()`` streams without
building it. Code that needs only the busy queues reads
:meth:`QueueStatsView.built` instead.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator, Mapping, ValuesView
from dataclasses import dataclass, field

from repro.arch.links import Link
from repro.arch.queue import QueueStats
from repro.sim.queue_manager import AssignmentEvent

#: One used link: ``(link, provisioned count, {index: stats of built queues})``.
LinkStats = tuple[Link, int, dict[int, QueueStats]]


class QueueStatsView(Mapping[str, QueueStats]):
    """Read-only ``"{link}#{i}" -> QueueStats`` view over per-link triples."""

    __slots__ = ("_links", "_full")

    def __init__(self, links: Iterable[LinkStats] = ()) -> None:
        self._links: tuple[LinkStats, ...] = tuple(links)
        self._full: dict[str, QueueStats] | None = None

    def _walk(self) -> Iterator[tuple[Link, int, QueueStats]]:
        """``(link, index, stats)`` per provisioned queue, in key order."""
        for link, count, built in self._links:
            for index in range(count):
                stats = built.get(index)
                yield link, index, QueueStats() if stats is None else stats

    def _materialize(self) -> dict[str, QueueStats]:
        if self._full is None:
            self._full = {
                f"{link}#{index}": stats for link, index, stats in self._walk()
            }
        return self._full

    def __getitem__(self, key: str) -> QueueStats:
        return self._materialize()[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._materialize())

    def __len__(self) -> int:
        return sum(count for _link, count, _built in self._links)

    def values(self) -> ValuesView[QueueStats]:
        return _StatsValues(self)

    def built(self) -> Iterator[QueueStats]:
        """Statistics of the queues the run built; the rest are all zero."""
        for _link, _count, built in self._links:
            yield from built.values()

    def __reduce__(self):
        return (QueueStatsView, (self._links,))

    def __repr__(self) -> str:
        return f"QueueStatsView({self._materialize()!r})"


class _StatsValues(ValuesView):
    """``values()`` that streams instead of building the dict.

    Before the dict exists, the zero stats it yields are fresh throwaway
    objects, equal to but not the ones a later lookup returns.
    """

    __slots__ = ()

    def __iter__(self) -> Iterator[QueueStats]:
        view = self._mapping
        if view._full is not None:
            return iter(view._full.values())
        return (stats for _link, _index, stats in view._walk())


@dataclass
class SimulationResult:
    """What happened when a program ran on a configured array.

    ``completed`` and ``deadlocked`` are mutually exclusive unless the run
    hit an event/time limit (then both are False and ``timed_out`` is
    True). A queue-induced deadlock shows up as ``deadlocked=True`` with
    the blocked agents' descriptions and, when one exists, a wait-for
    cycle.
    """

    completed: bool
    deadlocked: bool
    timed_out: bool
    time: int
    events: int
    blocked: list[str] = field(default_factory=list)
    wait_cycle: list[str] | None = None
    registers: dict[str, dict[str, float | None]] = field(default_factory=dict)
    received: dict[str, list[float | None]] = field(default_factory=dict)
    queue_stats: Mapping[str, QueueStats] = field(default_factory=QueueStatsView)
    assignment_trace: list[AssignmentEvent] = field(default_factory=list)
    memory_accesses: dict[str, int] = field(default_factory=dict)
    busy_cycles: dict[str, int] = field(default_factory=dict)
    words_transferred: int = 0

    @property
    def total_memory_accesses(self) -> int:
        """Local-memory accesses across all cells (0 under systolic comm.)."""
        return sum(self.memory_accesses.values())

    @property
    def makespan(self) -> int:
        """Completion (or stall) time in cycles."""
        return self.time

    def utilization(self, cell: str) -> float:
        """Fraction of the makespan ``cell`` spent busy."""
        if self.time == 0:
            return 0.0
        return self.busy_cycles.get(cell, 0) / self.time

    def assert_completed(self) -> "SimulationResult":
        """Raise ``AssertionError`` with diagnostics unless the run finished."""
        if not self.completed:
            detail = "; ".join(self.blocked) or "no blocked-agent details"
            state = "deadlocked" if self.deadlocked else "timed out"
            raise AssertionError(f"simulation {state} at t={self.time}: {detail}")
        return self

    def summary(self) -> str:
        """One-line human summary."""
        if self.completed:
            return (
                f"completed t={self.time} events={self.events} "
                f"words={self.words_transferred} mem={self.total_memory_accesses}"
            )
        state = "DEADLOCK" if self.deadlocked else "TIMEOUT"
        return f"{state} t={self.time} blocked={len(self.blocked)}"
