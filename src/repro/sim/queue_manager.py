"""Run-time queue assignment: the manager and the three policies.

Section 7 of the paper describes *static* assignment (every competing
message gets its own queue before execution) and *dynamic* assignment
under two rules that make it compatible with a consistent labeling:

* **ordered assignment** — a message may be assigned a queue only after
  every competing message with a smaller label has been assigned one;
* **simultaneous assignment** — same-label messages get separate queues,
  effectively reserved as a group ("a cell can use some reservation scheme
  to reserve a queue to a message prior to the message's arrival").

The non-compatible **FCFS** policy grants free queues in arrival order; it
is the baseline that reproduces the queue-induced deadlocks of Figs. 7-9.

Per-link policy state lives directly on the :class:`LinkState` (the
``policy_data`` slot) rather than in ``Link``-keyed side tables, so the
assignment hot path performs no hashing.

Queues are built lazily: a link state knows how many queues the config
provisions, but builds a link's :class:`HardwareQueue` only the first
time that queue is granted. Until then a queue is just an index in the
link's free list. Never-granted indices sit in ascending order ahead of
released queues, which rejoin in release order, so FCFS and ordered
grants pick exactly the queue an eagerly built free list would have
picked. A queue that was never built has never held a message, so
nothing but the result's zero statistics can tell it apart from a built
idle one; a 48-queue link that carries two messages costs two queues.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import TYPE_CHECKING, Callable, Sequence

from repro.arch.links import Link
from repro.arch.queue import HardwareQueue
from repro.errors import ConfigError, SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.labeling import Labeling
    from repro.sim.agents import MessageFlow

#: Per-link label groups, ascending by label, members sorted by name.
LabelGroups = Sequence[Sequence[str]]


@dataclass(frozen=True, slots=True)
class Request:
    """A message (flow) asking for a queue on one hop of its route."""

    flow: "MessageFlow"
    hop: int

    @property
    def message(self) -> str:
        return self.flow.message.name


@dataclass(frozen=True, slots=True)
class AssignmentEvent:
    """One grant or release, for traces and the Fig. 7-9 timelines."""

    time: int
    kind: str  # "grant" | "release"
    link: Link
    queue_index: int
    message: str

    def __str__(self) -> str:
        return f"t={self.time} {self.kind} {self.link}#{self.queue_index} <- {self.message}"


class LinkState:
    """Mutable per-link assignment state shared with the policy.

    ``count`` queues are provisioned; ``slots[i]`` is queue ``i`` once it
    has been built (``None`` before its first grant) and ``free`` lists
    the indices of the queues that are not carrying a message.
    """

    __slots__ = (
        "link", "count", "slots", "free", "granted_ever", "policy_data",
        "_make_queue",
    )

    def __init__(
        self,
        link: Link,
        count: int,
        make_queue: Callable[[Link, int], HardwareQueue],
    ) -> None:
        self.link = link
        self.count = count
        self.slots: list[HardwareQueue | None] = [None] * count
        self.free: list[int] = list(range(count))
        self.granted_ever: set[str] = set()
        self.policy_data: object = None
        self._make_queue = make_queue

    def queue(self, index: int) -> HardwareQueue:
        """Queue ``index`` of this link, built on first use."""
        queue = self.slots[index]
        if queue is None:
            queue = self.slots[index] = self._make_queue(self.link, index)
        return queue

    def built(self) -> list[HardwareQueue]:
        """The queues built so far, by index."""
        return [queue for queue in self.slots if queue is not None]

    def take_free(self) -> HardwareQueue:
        if not self.free:
            raise SimulationError(f"no free queue on {self.link}")
        return self.queue(self.free.pop(0))


class AssignmentPolicy(ABC):
    """Strategy deciding when a requested queue is granted."""

    name = "abstract"

    @abstractmethod
    def setup_link(
        self,
        state: LinkState,
        competing: Sequence[str],
        labeling: "Labeling | None",
        groups: LabelGroups | None = None,
    ) -> None:
        """Prepare per-link data; called once per used link before t=0.

        ``groups`` optionally supplies precomputed label groups (ascending
        label, names sorted) so cached analyses skip the per-link grouping
        sort; policies that ignore labels ignore it.
        """

    @abstractmethod
    def on_request(self, manager: "QueueManager", state: LinkState, req: Request) -> None:
        """A flow requests a queue on ``state.link``."""

    @abstractmethod
    def on_release(self, manager: "QueueManager", state: LinkState) -> None:
        """A queue on ``state.link`` was just freed."""


class FCFSPolicy(AssignmentPolicy):
    """First-come-first-served: grant free queues in request order.

    Not compatible with any labeling — this is the naive baseline whose
    behaviour the lower halves of Figs. 7-9 depict.
    """

    name = "fcfs"

    def setup_link(self, state, competing, labeling, groups=None) -> None:
        state.policy_data = deque()

    def on_request(self, manager, state, req) -> None:
        state.policy_data.append(req)
        self._evaluate(manager, state)

    def on_release(self, manager, state) -> None:
        self._evaluate(manager, state)

    def _evaluate(self, manager, state) -> None:
        pending = state.policy_data
        while pending and state.free:
            manager.grant(state, pending.popleft())


class _OrderedLinkData:
    """Per-link state of the ordered policy (kept on ``LinkState``)."""

    __slots__ = ("groups", "gidx", "granted", "pending")

    def __init__(self, groups: LabelGroups) -> None:
        self.groups = groups
        self.gidx = 0
        self.granted: set[str] = set()
        self.pending: dict[str, Request] = {}


class OrderedPolicy(AssignmentPolicy):
    """The paper's compatible dynamic scheme (ordered + simultaneous).

    Per link, competing messages are grouped by label. Only members of the
    lowest not-fully-granted group may receive queues; free queues are in
    effect reserved for that group until each member has been assigned,
    which realises both rules at once. ``strict`` enforces Theorem 1's
    assumption (ii) at setup (each group must fit in the link's queues);
    with ``strict=False`` an infeasible group simply never completes and
    the run deadlocks — useful for demonstrating why the assumption is
    needed.
    """

    name = "ordered"

    def __init__(self, strict: bool = True) -> None:
        self.strict = strict

    def setup_link(self, state, competing, labeling, groups=None) -> None:
        if groups is None:
            if labeling is None:
                raise ConfigError("OrderedPolicy requires a labeling")
            groups = label_groups(competing, labeling)
        if self.strict:
            for group in groups:
                if len(group) > state.count:
                    raise ConfigError(
                        f"link {state.link}: same-label group {list(group)} needs "
                        f"{len(group)} queues, only {state.count} exist "
                        f"(Theorem 1 assumption (ii))"
                    )
        state.policy_data = _OrderedLinkData(groups)

    def on_request(self, manager, state, req) -> None:
        state.policy_data.pending[req.message] = req
        self._evaluate(manager, state)

    def on_release(self, manager, state) -> None:
        self._evaluate(manager, state)

    def _evaluate(self, manager, state) -> None:
        data: _OrderedLinkData = state.policy_data
        groups = data.groups
        granted = data.granted
        pending = data.pending
        while data.gidx < len(groups):
            group = groups[data.gidx]
            fully_granted = True
            for name in group:
                if name not in granted:
                    if name in pending and state.free:
                        manager.grant(state, pending.pop(name))
                        granted.add(name)
                    else:
                        fully_granted = False
            if fully_granted:
                data.gidx += 1
                continue
            break  # remaining free queues stay reserved for this group


class StaticPolicy(AssignmentPolicy):
    """Section 7's static scheme: a dedicated queue per competing message.

    Assignment is fixed before execution; every request is granted
    immediately from the precomputed message-to-index map (the queue
    itself is built at that first grant). Requires enough queues on every
    link (checked at setup) — and is then automatically compatible with
    any consistent labeling, so Theorem 1 applies with no run-time rules.
    """

    name = "static"

    def setup_link(self, state, competing, labeling, groups=None) -> None:
        if len(competing) > state.count:
            raise ConfigError(
                f"link {state.link}: static assignment needs "
                f"{len(competing)} queues for {list(competing)}, only "
                f"{state.count} exist"
            )
        state.policy_data = {name: i for i, name in enumerate(competing)}

    def on_request(self, manager, state, req) -> None:
        manager.grant(state, req, state.policy_data[req.message])

    def on_release(self, manager, state) -> None:
        pass  # reservations never move


def label_groups(
    competing: Sequence[str], labeling: "Labeling"
) -> tuple[tuple[str, ...], ...]:
    """Group competing messages by label, ascending; names sorted."""
    by_label: dict[Fraction, list[str]] = {}
    for name in competing:
        by_label.setdefault(labeling.label(name), []).append(name)
    return tuple(
        tuple(sorted(names)) for _lab, names in sorted(by_label.items())
    )


class QueueManager:
    """Owns link states, dispatches requests to the policy, records a trace."""

    __slots__ = ("policy", "clock", "links", "trace")

    def __init__(
        self,
        policy: AssignmentPolicy,
        clock: Callable[[], int],
    ) -> None:
        self.policy = policy
        self.clock = clock
        self.links: dict[Link, LinkState] = {}
        self.trace: list[AssignmentEvent] = []

    def add_link(
        self,
        link: Link,
        count: int,
        make_queue: Callable[[Link, int], HardwareQueue],
        competing: Sequence[str],
        labeling: "Labeling | None",
        groups: LabelGroups | None = None,
    ) -> None:
        """Register a link of ``count`` queues and let the policy prepare it.

        ``make_queue(link, index)`` builds a queue at its first grant.
        """
        state = LinkState(link, count, make_queue)
        self.links[link] = state
        self.policy.setup_link(state, competing, labeling, groups)

    def request(self, req: Request) -> None:
        """A flow asks for a queue on one hop; the policy decides."""
        link = req.flow.route[req.hop]
        self.policy.on_request(self, self.links[link], req)

    def grant(
        self,
        state: LinkState,
        req: Request,
        index: int | None = None,
    ) -> None:
        """Bind a queue to the request's message and notify the flow.

        Grants queue ``index`` when given, else the first free queue.
        """
        if index is None:
            queue = state.take_free()
        else:
            queue = state.queue(index)
            if index in state.free:
                state.free.remove(index)
        msg = req.flow.message
        queue.assign(msg.name, msg.length)
        state.granted_ever.add(msg.name)
        self.trace.append(
            AssignmentEvent(self.clock(), "grant", state.link, queue.index, msg.name)
        )
        req.flow.granted(req.hop, queue)

    def release(self, queue: HardwareQueue) -> None:
        """Return a completed queue to its link's free pool."""
        state = self.links[queue.link]
        message = queue.assigned or "?"
        queue.release()
        state.free.append(queue.index)
        self.trace.append(
            AssignmentEvent(self.clock(), "release", state.link, queue.index, message)
        )
        self.policy.on_release(self, state)


def make_policy(name: str, strict: bool = True) -> AssignmentPolicy:
    """Policy factory from a short name: fcfs | ordered | static."""
    if name == "fcfs":
        return FCFSPolicy()
    if name == "ordered":
        return OrderedPolicy(strict=strict)
    if name == "static":
        return StaticPolicy()
    raise ConfigError(f"unknown assignment policy {name!r}")
