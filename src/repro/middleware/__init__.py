"""ICE-style medical device interoperability middleware.

The paper (Sections II(b) and III(k)) argues that open interoperability
between medical devices -- along the lines of the MD PnP initiative's ICE
standard (ASTM F2761) -- is the foundation for closed-loop clinical
scenarios.  This package implements the ICE conceptual model in simulation:

* :class:`~repro.middleware.bus.DeviceBus` -- the network controller: a
  topic-based publish/subscribe bus built on lossy, delaying channels.
* :class:`~repro.middleware.registry.DeviceRegistry` -- plug-and-play device
  registration and capability matching against scenario requirements.
* :class:`~repro.middleware.supervisor_host.SupervisorHost` -- hosts supervisor
  applications (the "supervisor" box of ICE / Figure 1), routing subscriptions
  and commands with authorisation checks from :mod:`repro.security`.  An app
  detects a communication failure in its control loop from its own
  deliveries (see :class:`repro.core.pca.PCASafetySupervisor`).
* :class:`~repro.middleware.clock_sync.ClockSync` -- bounded-skew clock
  synchronisation between devices, needed by timing-sensitive coordination
  such as the X-ray/ventilator scenario.
"""

from repro.middleware.bus import BusConfig, DeviceBus
from repro.middleware.registry import DeviceRegistry, RegistrationError
from repro.middleware.supervisor_host import SupervisorApp, SupervisorHost
from repro.middleware.clock_sync import ClockSync, DeviceClock

__all__ = [
    "BusConfig",
    "DeviceBus",
    "DeviceRegistry",
    "RegistrationError",
    "SupervisorApp",
    "SupervisorHost",
    "ClockSync",
    "DeviceClock",
]
