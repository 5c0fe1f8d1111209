"""Core discrete-event simulation kernel.

The kernel is intentionally small and deterministic: events scheduled at the
same simulated time are executed in FIFO order of their scheduling sequence
number, so a simulation run is a pure function of its inputs and seeds.

Hot-path layout: the heap holds plain ``(time, priority, sequence, item)``
tuples so every heap comparison is a C-level tuple comparison.  An item is
either a one-shot :class:`Event` (a ``__slots__`` class carrying only
per-event state) or an :class:`_Instant`: the one entry shared by every
periodic task (:meth:`Simulator.call_every`) due at that time, keyed on the
sequence number of its next task.  A sampling instant therefore costs one
heap push and one pop however many tasks fire at it, while every task keeps
its own sequence number and fires exactly where its own event would have.
The simulator tracks the live (queued, not cancelled) event and task count
incrementally, which keeps :meth:`Simulator.pending` O(1) and lets
:meth:`Simulator.peek` lazily discard cancelled heads instead of scanning
the queue.  The clock, ``Simulator.now``, is a plain attribute (every send
and sample reads it) that only the kernel writes, and never backwards.
"""

from __future__ import annotations

import itertools
import math
from heapq import heappop, heappush
from time import perf_counter
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.obs.metrics import kernel_instruments


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (negative delays, running twice, ...)."""


class Event:
    """A scheduled callback.

    Events are ordered by ``(time, priority, sequence)``.  ``priority`` lets
    callers force ordering between events scheduled for the same instant
    (lower runs first); ``sequence`` guarantees FIFO order otherwise.
    """

    __slots__ = ("time", "priority", "sequence", "callback", "name",
                 "cancelled", "_sim", "_in_queue")

    def __init__(
        self,
        time: float,
        priority: int,
        sequence: int,
        callback: Callable[[], None],
        name: str = "",
    ) -> None:
        self.time = time
        self.priority = priority
        self.sequence = sequence
        self.callback = callback
        self.name = name
        self.cancelled = False
        self._sim: Optional["Simulator"] = None
        self._in_queue = False

    def cancel(self) -> None:
        """Mark the event so the kernel skips it when its time comes."""
        if not self.cancelled:
            self.cancelled = True
            if self._in_queue and self._sim is not None:
                sim = self._sim
                sim._live -= 1
                if sim._metrics is not None:
                    sim._metrics.events_cancelled.value += 1

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        state = " cancelled" if self.cancelled else ""
        return (f"<Event t={self.time} prio={self.priority} "
                f"seq={self.sequence} {self.name!r}{state}>")


class _Instant:
    """The periodic tasks due at one time, in sequence order.

    The heap holds one entry per instant, ``(time, 0, sequence, instant)``,
    keyed on the sequence number of the task at ``head``.  Tasks before
    ``head`` have fired or been passed over.  A cancelled task keeps its place
    until the kernel passes it, as its own cancelled tick event would, so a
    run that ``max_events`` or ``stop()`` ends leaves the clock where a kernel
    with one event per tick would.
    """

    __slots__ = ("time", "tasks", "head")

    def __init__(self, time: float, task: "PeriodicTask") -> None:
        self.time = time
        self.tasks = [task]
        self.head = 0

    def first_live(self) -> int:
        """Index of the first unfired task not cancelled; ``len(tasks)`` if none."""
        tasks = self.tasks
        index = self.head
        while index < len(tasks) and tasks[index]._event.cancelled:
            index += 1
        return index


#: Heap entry layout: sequence numbers are unique, so comparisons never
#: reach the (incomparable) Event or _Instant.
_QueueEntry = Tuple[float, int, int, Any]


class Simulator:
    """Discrete-event simulator with a floating-point clock (seconds).

    Typical use::

        sim = Simulator()
        sim.schedule(1.0, lambda: print("one second"))
        sim.run(until=10.0)
    """

    def __init__(self, start_time: float = 0.0) -> None:
        #: Current simulated time in seconds; only the kernel writes it.
        self.now = float(start_time)
        self._queue: List[_QueueEntry] = []
        self._sequence = itertools.count()
        self._running = False
        self._stopped = False
        self._event_count = 0
        self._live = 0  # queued and not cancelled; kept exact incrementally
        # The instant of every time some periodic task is queued at, and the
        # one whose tasks run() is firing (popped, so not in the heap).
        self._instants: Dict[float, _Instant] = {}
        self._firing: Optional[_Instant] = None
        # Observability: None unless repro.obs is enabled at construction
        # time, so the disabled hot path pays one attribute check at most.
        self._metrics = kernel_instruments()
        self._profiler = None

    # ------------------------------------------------------------------ time
    @property
    def event_count(self) -> int:
        """Number of events executed so far (useful for cost accounting)."""
        return self._event_count

    # ------------------------------------------------------------ scheduling
    # repro-lint: hot
    def schedule(
        self,
        delay: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0 or math.isnan(delay):
            raise SimulationError(f"cannot schedule event with delay {delay!r}")
        # Inlined push (rather than delegating to schedule_at): this is the
        # single hottest call in every simulation.  delay >= 0 makes the
        # past-check redundant; only finiteness can still fail.
        time = self.now + delay
        if not math.isfinite(time):
            raise SimulationError(f"cannot schedule event at non-finite time {time!r}")
        sequence = next(self._sequence)
        event = Event(time, priority, sequence, callback, name)
        event._sim = self
        event._in_queue = True
        heappush(self._queue, (time, priority, sequence, event))
        self._live += 1
        metrics = self._metrics
        if metrics is not None:
            depth = len(self._queue)
            if depth > metrics.heap_peak:
                metrics.heap_peak = depth
        return event

    # repro-lint: hot
    def schedule_at(
        self,
        time: float,
        callback: Callable[[], None],
        *,
        priority: int = 0,
        name: str = "",
    ) -> Event:
        """Schedule ``callback`` at absolute simulated ``time``."""
        if not math.isfinite(time):
            raise SimulationError(f"cannot schedule event at non-finite time {time!r}")
        if time < self.now:
            raise SimulationError(
                f"cannot schedule event in the past (now={self.now}, requested={time})"
            )
        time = float(time)
        sequence = next(self._sequence)
        event = Event(time, priority, sequence, callback, name)
        event._sim = self
        event._in_queue = True
        heappush(self._queue, (time, priority, sequence, event))
        self._live += 1
        metrics = self._metrics
        if metrics is not None:
            depth = len(self._queue)
            if depth > metrics.heap_peak:
                metrics.heap_peak = depth
        return event

    def call_every(
        self,
        period: float,
        callback: Callable[[], None],
        *,
        start: Optional[float] = None,
        name: str = "",
    ) -> "PeriodicTask":
        """Run ``callback`` every ``period`` seconds until cancelled.

        The first call is at ``start`` (default: one period from now).  The
        kernel calls ``callback`` itself and then requeues the task at
        ``now + period``, taking its next sequence number at that moment, so
        each firing orders exactly like an event scheduled by the callback
        as its last act.  Every firing counts as one event.
        """
        task = PeriodicTask(self, period, callback, name=name)
        first = self.now + period if start is None else start
        if not math.isfinite(first):
            raise SimulationError(f"cannot schedule event at non-finite time {first!r}")
        if first < self.now:
            raise SimulationError(
                f"cannot schedule event in the past (now={self.now}, requested={first})"
            )
        self._enqueue(task, float(first))
        return task

    def _enqueue(self, task: "PeriodicTask", time: float) -> None:
        """Queue ``task`` at ``time`` with a fresh sequence number.

        It joins the instant already due then, or opens one.
        """
        event = task._event
        sequence = next(self._sequence)
        event.time = time
        event.sequence = sequence
        event._in_queue = True
        self._live += 1
        instant = self._instants.get(time)
        if instant is None:
            instant = self._instants[time] = _Instant(time, task)
            self._push_instant(instant, sequence)
        else:
            instant.tasks.append(task)

    def _push_instant(self, instant: _Instant, sequence: int) -> None:
        """Put ``instant`` on the heap keyed on ``sequence``; track heap_peak."""
        queue = self._queue
        heappush(queue, (instant.time, 0, sequence, instant))
        metrics = self._metrics
        if metrics is not None and len(queue) > metrics.heap_peak:
            metrics.heap_peak = len(queue)

    def _park(self, instant: _Instant) -> None:
        """Requeue ``instant`` keyed on its task at ``head``, or retire it."""
        if instant.head == len(instant.tasks):
            del self._instants[instant.time]
        else:
            self._push_instant(instant, instant.tasks[instant.head]._event.sequence)

    # --------------------------------------------------------------- running
    # repro-lint: hot
    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run events until the queue empties, ``until`` is reached, or stop().

        Returns the simulated time at which the run finished.
        """
        if self._running:
            raise SimulationError("simulator is already running")
        if until is not None and not until >= self.now:
            raise SimulationError(f"cannot run until {until!r}: NaN, or before now={self.now!r}")
        if until == math.inf:
            until = None  # no bound: the clock stays at the last event
        self._running = True
        self._stopped = False
        queue = self._queue
        pop = heappop
        sequences = self._sequence
        instants = self._instants
        # Sentinel bounds keep the per-event checks to two comparisons.
        time_bound = math.inf if until is None else until
        count_bound = math.inf if max_events is None else max_events
        # Hoisted observability state: with obs disabled both are None and
        # the loop pays one local is-None check per event (profiler) plus
        # nothing at all for metrics (accounted as deltas after the loop).
        profiler = self._profiler
        metrics = self._metrics
        if metrics is not None:
            fired_before = self._event_count
            sim_before = self.now
            wall_before = perf_counter()
        try:
            while queue:
                if self._stopped:
                    break
                if self._event_count >= count_bound:
                    break
                entry = queue[0]
                time = entry[0]
                if time > time_bound:
                    self.now = until
                    break
                pop(queue)
                item = entry[3]
                if type(item) is not _Instant:
                    item._in_queue = False
                    if item.cancelled:
                        continue
                    self._live -= 1
                    self.now = time
                    self._event_count += 1
                    if profiler is None:
                        item.callback()
                    else:
                        profiler.dispatch(item)
                    continue
                # A periodic instant: fire its tasks in sequence order,
                # yielding (the instant goes back on the heap, keyed on the
                # next task) to stop(), max_events, or any entry that sorts
                # before that task, e.g. an event a callback scheduled now.
                # A cancelled task is passed over under the same checks.
                self.now = time
                self._firing = item
                tasks = item.tasks
                index = item.head
                while index < len(tasks):
                    task = tasks[index]
                    event = task._event
                    if (self._stopped or self._event_count >= count_bound
                            or (queue and queue[0] < (time, 0, event.sequence))):
                        break
                    index += 1
                    item.head = index
                    if event.cancelled:
                        continue
                    event._in_queue = False
                    self._live -= 1
                    self._event_count += 1
                    if profiler is None:
                        event.callback()
                    else:
                        profiler.dispatch(event)
                    if not event.cancelled:
                        # _enqueue(task, time + task.period), inlined: this
                        # is the requeue of every periodic tick.
                        next_time = time + task.period
                        sequence = next(sequences)
                        event.time = next_time
                        event.sequence = sequence
                        event._in_queue = True
                        self._live += 1
                        instant = instants.get(next_time)
                        if instant is None:
                            instant = instants[next_time] = _Instant(next_time, task)
                            self._push_instant(instant, sequence)
                        else:
                            instant.tasks.append(task)
                self._firing = None
                self._park(item)
            else:
                if until is not None and self.now < until:
                    self.now = until
        finally:
            self._running = False
            firing = self._firing
            if firing is not None:
                # A callback raised: the instant's unfired tasks stay queued.
                self._firing = None
                self._park(firing)
            if metrics is not None:
                metrics.flush_run(self._event_count - fired_before,
                                  self.now - sim_before,
                                  perf_counter() - wall_before)
        return self.now

    def step(self) -> bool:
        """Execute exactly one pending event.  Returns False if none remain.

        At a periodic instant that is one task; the rest stay queued.  The
        event is dispatched by :meth:`run`, so profilers and metrics see it.
        """
        fired = self._event_count
        self.run(max_events=fired + 1)
        return self._event_count > fired

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    def pending(self) -> int:
        """Number of not-yet-cancelled events in the queue.  O(1)."""
        return self._live

    def peek(self) -> Optional[float]:
        """Time of the next pending event, or None if the queue is empty.

        Cancelled events and instants whose tasks were all cancelled are
        discarded lazily at the head, so a scenario polling ``peek`` in a
        loop stays O(log n) amortised instead of sorting the queue on every
        call.
        """
        firing = self._firing
        if firing is not None and firing.first_live() < len(firing.tasks):
            return firing.time
        queue = self._queue
        while queue:
            entry = queue[0]
            item = entry[3]
            if type(item) is _Instant:
                if item.first_live() < len(item.tasks):
                    return entry[0]
                # Every task left is cancelled: drop those that lead the
                # queue and requeue the instant behind the entry that stops it.
                heappop(queue)
                tasks = item.tasks
                index = item.head
                while index < len(tasks) and not (
                        queue and queue[0] < (item.time, 0, tasks[index]._event.sequence)):
                    index += 1
                item.head = index
                self._park(item)
                continue
            if item.cancelled:
                heappop(queue)
                item._in_queue = False
                continue
            return entry[0]
        return None

    # ---------------------------------------------------------- observability
    def attach_profiler(self, profiler) -> None:
        """Route event dispatch through ``profiler``: any object with ``dispatch(event)``.

        :meth:`run` then calls ``profiler.dispatch(event)`` in place of
        ``event.callback()``; the dispatcher must invoke the callback itself.
        Takes effect on the next :meth:`run` call (the loop hoists the
        profiler reference once, so attaching mid-run has no effect on the
        segment already executing).  ``None`` detaches it.
        """
        self._profiler = profiler

    # ------------------------------------------------------------- processes
    def register(self, process: "Process") -> None:
        """Attach a process to this simulator and call its ``start`` hook."""
        process.bind(self)
        process.start()


class PeriodicTask:
    """A recurring callback managed by :meth:`Simulator.call_every`.

    The kernel owns the loop: at each due instant it calls the callback and
    requeues the task ``period`` seconds later, unless the task was cancelled
    meanwhile.  The task keeps one :class:`Event` for its whole life; it
    carries the task's name, callback and current queue position, and is
    what a profiler's ``dispatch`` receives.
    """

    def __init__(
        self,
        simulator: Simulator,
        period: float,
        callback: Callable[[], None],
        name: str = "",
    ) -> None:
        if not (math.isfinite(period) and period > 0):
            raise SimulationError(
                f"period must be positive and finite, got {period!r} for task {name!r}")
        self._simulator = simulator
        self.period = period
        self.name = name
        self._event = Event(math.nan, 0, -1, callback, name)
        self._event._sim = simulator
        self._cancelled = False

    def cancel(self) -> None:
        """Stop future calls: a queued firing is dropped and none is requeued.

        A callback already running is not interrupted.
        """
        self._cancelled = True
        self._event.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class Process:
    """Base class for simulation actors (devices, patients, supervisors).

    Subclasses override :meth:`start` to schedule their initial activity and
    may use :meth:`after` / :meth:`every` as convenience wrappers around the
    simulator's scheduling API.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._simulator: Optional[Simulator] = None
        self._tasks: List[PeriodicTask] = []

    # ------------------------------------------------------------- lifecycle
    def bind(self, simulator: Simulator) -> None:
        self._simulator = simulator

    def start(self) -> None:  # pragma: no cover - default hook does nothing
        """Hook called when the process is registered with a simulator."""

    # ------------------------------------------------------------ scheduling
    @property
    def simulator(self) -> Simulator:
        if self._simulator is None:
            raise SimulationError(f"process {self.name!r} is not bound to a simulator")
        return self._simulator

    @property
    def now(self) -> float:
        # One read of the bound simulator's clock; unbound, the property raises.
        return (self._simulator or self.simulator).now

    def after(self, delay: float, callback: Callable[[], None], **kwargs: Any) -> Event:
        return self.simulator.schedule(delay, callback, name=f"{self.name}:{callback.__name__}", **kwargs)

    def every(self, period: float, callback: Callable[[], None], **kwargs: Any) -> PeriodicTask:
        task = self.simulator.call_every(period, callback, name=f"{self.name}:{callback.__name__}", **kwargs)
        self._tasks.append(task)
        return task

    def cancel_all(self) -> None:
        """Cancel every periodic task this process started."""
        for task in self._tasks:
            task.cancel()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<{type(self).__name__} {self.name!r}>"


def build_simulator(config: Optional[Dict[str, Any]] = None) -> Simulator:
    """Convenience factory used by scenario builders.

    ``config`` may carry a ``start_time`` key; everything else is ignored so
    callers can pass their full scenario configuration dict straight through.
    """
    config = config or {}
    return Simulator(start_time=float(config.get("start_time", 0.0)))
