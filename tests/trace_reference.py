"""Event log that stores one ``TracePoint`` per event, kept only as a test oracle.

:class:`ReferenceTraceRecorder` is :class:`~repro.sim.trace.TraceRecorder`
with the original event log: every :meth:`event` builds a frozen
``TracePoint`` and every event query reads those objects.  The production
recorder stores plain ``(time, signal, value, source)`` tuples and builds
``TracePoint`` only when :meth:`events` is called;
``tests/test_trace_event_log.py`` checks that the two answer every event
query the same.
"""

from __future__ import annotations

from repro.readings import Reading
from repro.sim.trace import TracePoint, TraceRecorder


class ReferenceTraceRecorder(TraceRecorder):
    """TraceRecorder whose event log is a list of ``TracePoint`` objects."""

    def event(self, time, signal, value=None, source=""):
        self._events.append(TracePoint(time=float(time), signal=signal, value=value, source=source))

    def events(self, signal=None):
        if signal is None:
            return list(self._events)
        return [e for e in self._events if e.signal == signal]

    def count_events(self, signal):
        return sum(1 for e in self._events if e.signal == signal)

    def first_event_time(self, signal):
        for e in self._events:
            if e.signal == signal:
                return e.time
        return None

    def to_dict(self):
        # The production snapshot of the signals, with the TracePoint log set
        # aside, then the events serialised the original way.
        mine, self._events = self._events, []
        try:
            snapshot = super().to_dict()
        finally:
            self._events = mine
        snapshot["events"] = [
            {
                "time": e.time,
                "signal": e.signal,
                "value": e.value.as_dict() if type(e.value) is Reading else e.value,
                "source": e.source,
            }
            for e in self._events
        ]
        return snapshot

    def merge(self, other):
        # Merge the signals through the production path with the event logs
        # set aside, then fold the TracePoint logs the original way.
        mine, theirs = self._events, other._events
        self._events, other._events = [], []
        try:
            super().merge(other)
        finally:
            self._events, other._events = mine, theirs
        self._events.extend(other._events)
        self._events.sort(key=lambda e: e.time)
