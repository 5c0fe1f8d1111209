"""Opt-in sampling profiler for the kernel's event dispatch loop.

Attach a :class:`SamplingProfiler` to a simulator and every ``every``-th
executed event is timed with ``time.perf_counter`` and attributed to its
*callback owner* — the device, channel, or middleware component named in
the event's ``name`` (the kernel already stamps ``"<process>:<method>"``
and ``"channel:<link>:deliver"`` names on the hot paths; a bus adds
``"bus:forward"`` for copies to a downlink with jitter, loss, a bandwidth
cap or an outage).  Sampling bounds the overhead:
the other ``every - 1`` events pay one decrement and one comparison.

The profiler is independent of the metrics enable switch — it is opt-in
per simulator — but its results export through the same NDJSON snapshot
(``type: "profile"`` lines) so one file carries metrics, spans, and
profiles.

Typical use::

    profiler = SamplingProfiler(every=64)
    simulator.attach_profiler(profiler)
    simulator.run(until=...)
    for owner, stats in profiler.report().items():
        print(owner, stats["est_total_wall_s"])
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, List


def owner_of(name: str) -> str:
    """Map an event name to the component that owns its callback.

    ``"channel:uplink:dev-a:deliver"`` -> ``"channel:uplink:dev-a"`` (the
    link), ``"bus:forward"`` -> ``"bus"``, ``"pump-1:_tick"`` ->
    ``"pump-1"`` (the process), unnamed events -> ``"<anonymous>"``.
    """
    if not name:
        return "<anonymous>"
    if name.startswith("channel:"):
        cut = name.rfind(":")
        return name[:cut] if cut > len("channel:") else name
    if name.startswith("bus:"):
        return "bus"
    return name.split(":", 1)[0]


class SamplingProfiler:
    """Times every ``every``-th dispatched event, keyed by callback owner."""

    __slots__ = ("every", "_countdown", "_stats", "events_seen")

    def __init__(self, every: int = 64) -> None:
        if every < 1:
            raise ValueError(f"sampling interval must be >= 1, got {every!r}")
        self.every = every
        self._countdown = every
        # owner -> [samples, sampled wall seconds]; plain lists keep the
        # sampled-path update to two item assignments.
        self._stats: Dict[str, List[float]] = {}
        self.events_seen = 0

    # ------------------------------------------------------------- hot path
    def dispatch(self, event) -> None:
        """Run ``event.callback`` and, on sampled events, time and attribute it.

        Called by :meth:`Simulator.run` in place of a bare callback
        invocation whenever a profiler is attached.
        """
        self.events_seen += 1
        self._countdown -= 1
        if self._countdown:
            event.callback()
            return
        self._countdown = self.every
        started = perf_counter()
        event.callback()
        elapsed = perf_counter() - started
        owner = owner_of(event.name)
        record = self._stats.get(owner)
        if record is None:
            self._stats[owner] = record = [0, 0.0]
        record[0] += 1
        record[1] += elapsed

    # -------------------------------------------------------------- results
    def report(self) -> Dict[str, Dict[str, float]]:
        """Per-owner sample counts, sampled wall time, and a scaled estimate.

        ``est_total_wall_s`` extrapolates sampled time by the sampling
        interval — a statistical attribution, not an exact measurement.
        Owners are returned sorted by name for deterministic iteration.
        """
        return {
            owner: {
                "samples": float(samples),
                "sampled_wall_s": sampled,
                "est_total_wall_s": sampled * self.every,
            }
            for owner, (samples, sampled) in sorted(self._stats.items())
        }

    def lines(self) -> List[Dict[str, Any]]:
        """NDJSON export lines (``type: "profile"``), sorted by owner."""
        return [
            {"type": "profile", "owner": owner, "samples": int(samples),
             "sampled_wall_s": sampled, "every": self.every}
            for owner, (samples, sampled) in sorted(self._stats.items())
        ]

    def reset(self) -> None:
        self._stats = {}
        self._countdown = self.every
        self.events_seen = 0
