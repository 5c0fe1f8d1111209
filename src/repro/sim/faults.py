"""Fault injection for MCPS experiments.

The paper requires the supervisor to be "tolerant to faults that interfere
with the control loop, in particular communication failures between the
devices" (Section II(c)).  :class:`FaultInjector` schedules scripted or
stochastic faults against channels and devices so the experiments in
``benchmarks/`` can quantify how the closed-loop system degrades.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.obs import metrics as obs_metrics
from repro.sim.channel import Channel
from repro.sim.kernel import Simulator


FAULT_KINDS = (
    "channel_outage",       # drop all messages on a channel for a duration
    "device_crash",         # call the device's crash() hook
    "device_restart",       # call the device's restart() hook
    "value_corruption",     # call a corruption hook with a multiplier
    "stuck_sensor",         # freeze sensor output for a duration
    "misprogramming",       # reprogram a pump with wrong parameters
    "pca_by_proxy",         # extra bolus requests not from the patient
    "custom",               # arbitrary callable
)

#: Kinds that last ``duration`` seconds.  A zero extent is rejected: an
#: outage needs an end after its start, and a stuck sensor with no end
#: would stay frozen for the rest of the run.
EXTENT_KINDS = ("channel_outage", "stuck_sensor")


@dataclass
class FaultSpec:
    """Declarative description of one fault to inject.

    kind:
        One of :data:`FAULT_KINDS`.
    start:
        Simulated time at which the fault begins.
    duration:
        For faults with an extent (:data:`EXTENT_KINDS`) it must be
        positive; 0 for point faults.
    target:
        Name of the channel/device the fault applies to.
    parameters:
        Kind-specific parameters (e.g. ``{"rate_multiplier": 4.0}`` for
        misprogramming).
    """

    kind: str
    start: float
    duration: float = 0.0
    target: str = ""
    parameters: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        # "finite and non-negative" also rejects NaN, which passes "< 0".
        for name in ("start", "duration"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"fault {name} must be finite and non-negative, got {value!r}")
        if self.kind in EXTENT_KINDS and self.duration == 0:
            raise ValueError(
                f"fault duration must be positive for a {self.kind} fault, got 0")

    @property
    def end(self) -> float:
        return self.start + self.duration

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "start": self.start,
            "duration": self.duration,
            "target": self.target,
            "parameters": dict(self.parameters),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        unknown = sorted(set(data) - {"kind", "start", "duration", "target",
                                      "parameters"})
        if unknown:
            raise ValueError(f"unknown fault spec fields: {unknown}")
        if "kind" not in data or "start" not in data:
            raise ValueError("fault spec requires 'kind' and 'start'")
        parameters = data.get("parameters", {})
        if not isinstance(parameters, Mapping):
            raise ValueError(
                f"fault parameters must be an object, got {type(parameters).__name__}")
        return cls(
            kind=data["kind"],
            start=_seconds("start", data["start"]),
            duration=_seconds("duration", data.get("duration", 0.0)),
            target=str(data.get("target", "")),
            parameters=dict(parameters),
        )


def _seconds(name: str, value: Any) -> float:
    """A fault spec time field as a float, or ValueError naming ``name``."""
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ValueError(f"fault {name} must be a number, got {value!r}")


def fault_plan_specs(plan: Sequence[Mapping[str, Any]]) -> List[FaultSpec]:
    """Compile a declarative campaign ``fault_plan`` into fault specs.

    This is the bridge a scenario runner uses to honour the ``faults``
    block of a :class:`~repro.campaign.spec.CampaignSpec`: each entry of the
    resolved plan (a plain JSON dict, so it survives manifests and worker
    boundaries) becomes one :class:`FaultSpec` to arm on the injector.
    """
    return [FaultSpec.from_dict(entry) for entry in plan]


class FaultInjector:
    """Applies :class:`FaultSpec` records to a running simulation.

    Channels are registered by name with :meth:`register_channel`; devices
    (or any object exposing the hooks named in the fault kinds) with
    :meth:`register_device`.  Calling :meth:`arm` schedules all faults
    exactly once; faults :meth:`add`-ed afterwards are scheduled
    immediately, so nothing added to a live injector can silently never
    fire.
    """

    def __init__(self, simulator: Simulator) -> None:
        self.simulator = simulator
        self._channels: Dict[str, Channel] = {}
        self._devices: Dict[str, Any] = {}
        self._specs: List[FaultSpec] = []
        self._custom_handlers: Dict[str, Callable[[FaultSpec], None]] = {}
        self.injected: List[FaultSpec] = []
        self._armed = False
        self._instruments = obs_metrics.campaign_instruments()

    # ---------------------------------------------------------- registration
    def register_channel(self, channel: Channel) -> None:
        """Register ``channel`` by name; marks it if an outage targets it (see :meth:`add`)."""
        self._channels[channel.name] = channel
        if any(spec.kind == "channel_outage" and spec.target == channel.name
               for spec in self._specs):
            channel.arm_outage()

    def register_device(self, name: str, device: Any) -> None:
        self._devices[name] = device

    def register_custom(self, name: str, handler: Callable[[FaultSpec], None]) -> None:
        """Register a handler for ``kind='custom'`` faults targeting ``name``."""
        self._custom_handlers[name] = handler

    def add(self, spec: FaultSpec) -> None:
        """Register one fault; scheduled now if the injector is already armed.

        A ``channel_outage`` marks its target channel
        (:meth:`~repro.sim.channel.Channel.arm_outage`) at once, or when
        the channel is registered: a device bus then stops queueing copies
        on a marked downlink at publish, and takes back those it queued
        there before, so the outage applies to them.
        Before :meth:`arm` this otherwise only records the spec.  After
        :meth:`arm` the spec is scheduled immediately — previously it was
        silently dropped, the worst possible failure mode for a fault
        campaign that believes it injected something.
        """
        self._specs.append(spec)
        if spec.kind == "channel_outage" and spec.target in self._channels:
            self._channels[spec.target].arm_outage()
        if self._armed:
            self._schedule(spec)

    def extend(self, specs: List[FaultSpec]) -> None:
        for spec in specs:
            self.add(spec)

    @property
    def specs(self) -> List[FaultSpec]:
        return list(self._specs)

    @property
    def armed(self) -> bool:
        return self._armed

    # --------------------------------------------------------------- arming
    def arm(self) -> None:
        """Schedule every added fault on the simulator (once only).

        Calling :meth:`arm` twice used to double-schedule every fault —
        outages applied twice, twice the proxy boluses — so a second call
        is a hard error rather than a silent corruption of the experiment.
        """
        if self._armed:
            raise RuntimeError(
                "FaultInjector.arm() called twice; faults are scheduled once "
                "(add() after arm() schedules the new fault immediately)"
            )
        self._armed = True
        for spec in self._specs:
            self._schedule(spec)

    def _schedule(self, spec: FaultSpec) -> None:
        # add()-after-arm() may carry a start already in the past (generated
        # fault plans are laid out against t=0, not against when the injector
        # learns about them).  The kernel rejects stale times, so clamp to
        # ``now``: the fault still fires, with its extent measured from the
        # original spec (``spec.end`` is unchanged).
        start = spec.start
        if start < self.simulator.now:
            start = self.simulator.now
        self.simulator.schedule_at(
            start,
            lambda s=spec: self._apply(s),
            name=f"fault:{spec.kind}:{spec.target}",
        )

    # ------------------------------------------------------------- appliers
    def _apply(self, spec: FaultSpec) -> None:
        self.injected.append(spec)
        if self._instruments is not None:
            self._instruments.faults_injected.value += 1
        if spec.kind == "channel_outage":
            self._apply_channel_outage(spec)
        elif spec.kind == "device_crash":
            self._call_device(spec, "crash")
        elif spec.kind == "device_restart":
            self._call_device(spec, "restart")
        elif spec.kind == "value_corruption":
            self._call_device(spec, "corrupt", spec.parameters)
        elif spec.kind == "stuck_sensor":
            self._apply_stuck_sensor(spec)
        elif spec.kind == "misprogramming":
            self._call_device(spec, "reprogram", spec.parameters)
        elif spec.kind == "pca_by_proxy":
            self._call_device(spec, "proxy_request", spec.parameters)
        elif spec.kind == "custom":
            handler = self._custom_handlers.get(spec.target)
            if handler is None:
                raise KeyError(f"no custom fault handler registered for {spec.target!r}")
            handler(spec)

    def _apply_channel_outage(self, spec: FaultSpec) -> None:
        channel = self._channels.get(spec.target)
        if channel is None:
            raise KeyError(f"fault targets unknown channel {spec.target!r}")
        channel.add_outage(spec.start, spec.end)

    def _apply_stuck_sensor(self, spec: FaultSpec) -> None:
        device = self._require_device(spec)
        freeze = getattr(device, "freeze", None)
        unfreeze = getattr(device, "unfreeze", None)
        if freeze is None or unfreeze is None:
            raise AttributeError(
                f"device {spec.target!r} does not support stuck_sensor faults "
                "(missing freeze/unfreeze hooks)"
            )
        freeze()
        self.simulator.schedule_at(spec.end, unfreeze, name=f"fault:unfreeze:{spec.target}")

    def _call_device(self, spec: FaultSpec, hook: str, parameters: Optional[Dict[str, Any]] = None) -> None:
        device = self._require_device(spec)
        method = getattr(device, hook, None)
        if method is None:
            raise AttributeError(f"device {spec.target!r} has no {hook}() hook for fault {spec.kind!r}")
        if parameters:
            method(**parameters)
        else:
            method()

    def _require_device(self, spec: FaultSpec) -> Any:
        device = self._devices.get(spec.target)
        if device is None:
            raise KeyError(f"fault targets unknown device {spec.target!r}")
        return device
