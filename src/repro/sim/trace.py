"""Time-stamped signal and event traces.

Traces are the raw material for every experiment metric in this repository:
drug concentration curves, SpO2 series, alarm events, pump commands, and so
on are all recorded here and post-processed by :mod:`repro.analysis`.

Hot-path layout: each signal is a pair of growable parallel lists (times,
values) held in a ``__slots__`` buffer, so :meth:`TraceRecorder.record` is
two list appends.  The numpy conversions behind :meth:`times` /
:meth:`values` are cached per signal and invalidated on write — analysis
code calls them repeatedly per run, and rebuilding the arrays each call
dominated metric collection on large traces.

Discrete events are a plain list of ``(time, signal, value, source)``
tuples, so :meth:`TraceRecorder.event` is one tuple append.  Each sample
is recorded once, as a signal of the device that took it: the bus logs
nothing here.  :meth:`TraceRecorder.events` builds the
:class:`TracePoint` read type only when it is asked for, and the counting
and serialising queries read the tuples directly.

Batched producers (the :mod:`repro.sim.sampler` backbone) register a flush
hook via :meth:`TraceRecorder.register_pending` and hold their samples until
a read: every signal query drains those hooks first (the read barrier), so
readers always observe a complete trace.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from operator import itemgetter
from typing import Any, Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class TracePoint:
    """A single ``(time, value)`` sample of a named signal."""

    time: float
    signal: str
    value: Any
    source: str = ""


class _SignalBuffer:
    """Growable per-signal sample storage with cached array conversions."""

    __slots__ = ("times", "values", "_times_arr", "_values_arr")

    def __init__(self) -> None:
        self.times: List[float] = []
        self.values: List[Any] = []
        self._times_arr: Optional[np.ndarray] = None
        self._values_arr: Optional[np.ndarray] = None

    def invalidate(self) -> None:
        self._times_arr = None
        self._values_arr = None

    def times_array(self) -> np.ndarray:
        arr = self._times_arr
        if arr is None:
            arr = np.asarray(self.times, dtype=float)
            arr.flags.writeable = False  # shared cache: mutation would corrupt it
            self._times_arr = arr
        return arr

    def values_array(self) -> np.ndarray:
        arr = self._values_arr
        if arr is None:
            arr = np.asarray(self.values, dtype=float)
            arr.flags.writeable = False
            self._values_arr = arr
        return arr


_EMPTY = np.array([], dtype=float)
_EMPTY.flags.writeable = False


class TraceRecorder:
    """Collects samples and discrete events emitted during a simulation run."""

    def __init__(self) -> None:
        self._signals: Dict[str, _SignalBuffer] = {}
        # One (time, signal, value, source) tuple per event.
        self._events: List[Tuple[float, str, Any, str]] = []
        self._pending_flushes: List[Callable[[], None]] = []

    # --------------------------------------------------------- batched writers
    def register_pending(self, flush: Callable[[], None]) -> None:
        """Register a batched producer's flush hook (the read barrier).

        Queries call every registered hook before touching signal data, so a
        producer may hold samples in local batches arbitrarily long without
        readers ever seeing a stale trace.
        """
        self._pending_flushes.append(flush)

    def unregister_pending(self, flush: Callable[[], None]) -> None:
        """Remove a previously registered flush hook (writer replacement)."""
        try:
            self._pending_flushes.remove(flush)
        except ValueError:
            pass

    def _drain(self) -> None:
        for flush in self._pending_flushes:
            flush()

    # -------------------------------------------------------------- recording
    def record(self, time: float, signal: str, value: Any, source: str = "") -> None:  # repro-lint: hot
        """Append a sample of ``signal`` at ``time``."""
        buffer = self._signals.get(signal)
        if buffer is None:
            buffer = self._signals[signal] = _SignalBuffer()
        buffer.times.append(float(time))
        buffer.values.append(value)
        buffer._times_arr = None
        buffer._values_arr = None

    # repro-lint: hot
    def record_many(
        self,
        signal: str,
        times: Sequence[float],
        values: Sequence[Any],
        source: str = "",
    ) -> None:
        """Bulk-append samples of ``signal`` (periodic samplers, resamplers)."""
        if len(times) != len(values):
            raise ValueError(
                f"record_many needs equal-length sequences, got "
                f"{len(times)} times and {len(values)} values"
            )
        if len(times) == 0:  # not `not times`: numpy arrays reject bool()
            return
        if isinstance(values, np.ndarray):
            values = values.tolist()  # np scalars would break to_dict() JSON
        buffer = self._signals.get(signal)
        if buffer is None:
            buffer = self._signals[signal] = _SignalBuffer()
        # map(float, ...) returns the identical objects for exact floats, so
        # batched and unbatched recording produce the same trace bytes.
        buffer.times.extend(map(float, times))
        buffer.values.extend(values)
        buffer.invalidate()

    def event(self, time: float, signal: str, value: Any = None, source: str = "") -> None:  # repro-lint: hot
        """Record a discrete event (alarm raised, pump stopped, ...)."""
        self._events.append((float(time), signal, value, source))

    # ---------------------------------------------------------------- queries
    def signals(self) -> List[str]:
        self._drain()
        return sorted(self._signals)

    def samples(self, signal: str) -> List[Tuple[float, Any]]:
        """All samples of ``signal`` in recording order."""
        self._drain()
        buffer = self._signals.get(signal)
        if buffer is None:
            return []
        return list(zip(buffer.times, buffer.values))

    def times(self, signal: str) -> np.ndarray:
        """Sample times as a float array (cached; treat as read-only)."""
        self._drain()
        buffer = self._signals.get(signal)
        if buffer is None:
            return _EMPTY
        return buffer.times_array()

    def values(self, signal: str) -> np.ndarray:
        """Sample values as a float array (cached; treat as read-only)."""
        self._drain()
        buffer = self._signals.get(signal)
        if buffer is None:
            return _EMPTY
        return buffer.values_array()

    def last(self, signal: str) -> Optional[Tuple[float, Any]]:
        self._drain()
        buffer = self._signals.get(signal)
        if buffer is None or not buffer.times:
            return None
        return (buffer.times[-1], buffer.values[-1])

    def value_at(self, signal: str, time: float) -> Optional[Any]:
        """Most recent sample of ``signal`` at or before ``time``.

        Samples are recorded in nondecreasing time order (the simulator clock
        never goes backwards and :meth:`merge` re-sorts), so this is a binary
        search rather than a scan.
        """
        self._drain()
        buffer = self._signals.get(signal)
        if buffer is None:
            return None
        index = bisect.bisect_right(buffer.times, time) - 1
        if index < 0:
            return None
        return buffer.values[index]

    def events(self, signal: Optional[str] = None) -> List[TracePoint]:
        if signal is None:
            return [TracePoint(*e) for e in self._events]
        return [TracePoint(*e) for e in self._events if e[1] == signal]

    def count_events(self, signal: str) -> int:
        return sum(1 for e in self._events if e[1] == signal)

    def first_event_time(self, signal: str) -> Optional[float]:
        for e in self._events:
            if e[1] == signal:
                return e[0]
        return None

    # -------------------------------------------------------------- summaries
    def duration_above(self, signal: str, threshold: float) -> float:
        """Total simulated time the (step-interpolated) signal exceeds ``threshold``."""
        return self._duration_where(signal, lambda v: v > threshold)

    def duration_below(self, signal: str, threshold: float) -> float:
        """Total simulated time the (step-interpolated) signal is below ``threshold``."""
        return self._duration_where(signal, lambda v: v < threshold)

    def _duration_where(self, signal: str, predicate) -> float:
        self._drain()
        buffer = self._signals.get(signal)
        if buffer is None or len(buffer.times) < 2:
            return 0.0
        times = buffer.times
        values = buffer.values
        total = 0.0
        # Sequential accumulation on purpose: a vectorised sum would change
        # rounding and break byte-identical run records across versions.
        for i in range(len(times) - 1):
            if predicate(values[i]):
                total += times[i + 1] - times[i]
        return total

    def max(self, signal: str) -> float:
        values = self.values(signal)
        if values.size == 0:
            raise KeyError(f"no samples recorded for signal {signal!r}")
        return float(values.max())

    def min(self, signal: str) -> float:
        values = self.values(signal)
        if values.size == 0:
            raise KeyError(f"no samples recorded for signal {signal!r}")
        return float(values.min())

    def mean(self, signal: str) -> float:
        values = self.values(signal)
        if values.size == 0:
            raise KeyError(f"no samples recorded for signal {signal!r}")
        return float(values.mean())

    def to_dict(self) -> Dict[str, Any]:
        """Serialisable snapshot (used by EXPERIMENTS.md generation and tests)."""
        from repro.readings import Reading  # local: trace is below readings' consumers

        self._drain()
        return {
            "signals": {
                name: list(zip(buffer.times, buffer.values))
                for name, buffer in self._signals.items()
            },
            "events": [
                {
                    "time": time,
                    "signal": signal,
                    # Readings serialise as their legacy dict payload form, so
                    # trace snapshots stay plain-JSON (and byte-identical to
                    # the dict-payload era for unchanged runs).
                    "value": value.as_dict() if type(value) is Reading else value,
                    "source": source,
                }
                for time, signal, value, source in self._events
            ],
        }

    def merge(self, other: "TraceRecorder") -> None:
        """Fold another recorder's data into this one (used by scenario composition)."""
        self._drain()
        other._drain()
        for name, other_buffer in other._signals.items():
            buffer = self._signals.get(name)
            if buffer is None:
                buffer = self._signals[name] = _SignalBuffer()
            combined = list(zip(buffer.times, buffer.values))
            combined.extend(zip(other_buffer.times, other_buffer.values))
            combined.sort(key=lambda sample: sample[0])
            buffer.times = [t for t, _ in combined]
            buffer.values = [v for _, v in combined]
            buffer.invalidate()
        self._events.extend(other._events)
        self._events.sort(key=itemgetter(0))

    def __len__(self) -> int:
        self._drain()
        return sum(len(buffer.times) for buffer in self._signals.values()) + len(self._events)


def resample(samples: Iterable[Tuple[float, float]], times: np.ndarray) -> np.ndarray:
    """Step-interpolate ``samples`` onto ``times`` (last value carried forward)."""
    samples = list(samples)
    out = np.empty(len(times), dtype=float)
    if not samples:
        out.fill(np.nan)
        return out
    sample_times = np.array([t for t, _ in samples])
    sample_values = np.array([v for _, v in samples], dtype=float)
    idx = np.searchsorted(sample_times, times, side="right") - 1
    out = np.where(idx >= 0, sample_values[np.clip(idx, 0, None)], np.nan)
    return out
