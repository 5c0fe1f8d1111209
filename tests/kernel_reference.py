"""Per-event periodic tasks, kept only as a test oracle.

:class:`ReferenceSimulator` is :class:`~repro.sim.kernel.Simulator` with the
naive ``call_every``: every tick of a periodic task is its own kernel event,
and the tick's last act is a ``schedule(period)`` of the next one.  The
production kernel keeps one reusable event per task and one heap entry per
sampling instant, and requeues each task itself;
``tests/test_periodic_instants.py`` checks that the two fire the same
callbacks at the same times in the same order, and report the same
``event_count``, ``pending()`` and ``peek()``.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.sim.kernel import Event, SimulationError, Simulator


class ReferencePeriodicTask:
    """A recurring callback that reschedules itself after every call."""

    def __init__(self, simulator: Simulator, period: float,
                 callback: Callable[[], None], name: str = "") -> None:
        self._simulator = simulator
        self.period = period
        self._callback = callback
        self.name = name
        self._event: Optional[Event] = None
        self._cancelled = False

    def start(self, first_time: float) -> None:
        self._event = self._simulator.schedule_at(first_time, self._tick, name=self.name)

    def _tick(self) -> None:
        if self._cancelled:
            return
        self._callback()
        if not self._cancelled:
            self._event = self._simulator.schedule(self.period, self._tick, name=self.name)

    def cancel(self) -> None:
        self._cancelled = True
        if self._event is not None:
            self._event.cancel()

    @property
    def cancelled(self) -> bool:
        return self._cancelled


class ReferenceSimulator(Simulator):
    """Simulator spending one scheduled event per periodic tick."""

    def call_every(self, period: float, callback: Callable[[], None], *,
                   start: Optional[float] = None, name: str = "") -> ReferencePeriodicTask:
        if period <= 0:
            raise SimulationError(f"period must be positive, got {period!r}")
        task = ReferencePeriodicTask(self, period, callback, name=name)
        task.start(self.now + period if start is None else start)
        return task
