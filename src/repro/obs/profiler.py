"""Attribute kernel events to the component that owns their callback.

The kernel stamps ``"<process>:<method>"`` and ``"channel:<link>:deliver"``
names on its hot paths, and a bus adds ``"bus:forward"`` for copies to a
downlink with jitter, loss or an outage.  :func:`owner_of`
maps such a name to its owner; a dispatcher attached with
:meth:`~repro.sim.kernel.Simulator.attach_profiler` uses it to charge each
event to a device, channel or middleware component.
"""

from __future__ import annotations


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
