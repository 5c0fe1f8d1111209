"""Plug-and-play device registry and capability matching.

Section III(e) of the paper asks for a clinical-scenario language that names
the "devices necessary for the implementation of the scenario"; Section
III(f) asks that requirements generated from scenario models "be checked
during deployment, ensuring safety of the implementation".  The registry is
that deployment-time check: devices register their descriptors, scenarios
express :class:`DeviceRequirement` lists, and :meth:`DeviceRegistry.match`
either produces a concrete assignment of devices to scenario roles or
reports which requirements cannot be satisfied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.devices.base import DeviceDescriptor


class RegistrationError(ValueError):
    """Raised for invalid registrations (duplicate IDs, malformed descriptors)."""


@dataclass(frozen=True)
class DeviceRequirement:
    """What a scenario role needs from a device.

    role:
        The scenario-local name, e.g. ``"spo2_source"`` or ``"analgesia_pump"``.
    device_type:
        Required device type, or None to accept any type.
    required_topics:
        Topics the device must publish.
    required_commands:
        Commands the device must accept (remote control needs).
    required_capabilities:
        Capability flags the device must advertise.
    max_risk_class:
        Highest acceptable FDA class ("III" accepts everything).
    """

    role: str
    device_type: Optional[str] = None
    required_topics: Tuple[str, ...] = ()
    required_commands: Tuple[str, ...] = ()
    required_capabilities: Tuple[str, ...] = ()
    max_risk_class: str = "III"

    def is_satisfied_by(self, descriptor: DeviceDescriptor) -> bool:
        return not self.unmet_reasons(descriptor)

    def unmet_reasons(self, descriptor: DeviceDescriptor) -> List[str]:
        """Human-readable reasons this descriptor fails the requirement."""
        reasons = []
        if self.device_type is not None and descriptor.device_type != self.device_type:
            reasons.append(f"type {descriptor.device_type!r} != required {self.device_type!r}")
        for topic in self.required_topics:
            if topic not in descriptor.published_topics:
                reasons.append(f"missing published topic {topic!r}")
        for cmd in self.required_commands:
            if cmd not in descriptor.accepted_commands:
                reasons.append(f"missing accepted command {cmd!r}")
        for cap in self.required_capabilities:
            if cap not in descriptor.capabilities:
                reasons.append(f"missing capability {cap!r}")
        risk_order = {"I": 1, "II": 2, "III": 3}
        if risk_order[descriptor.risk_class] > risk_order[self.max_risk_class]:
            reasons.append(f"risk class {descriptor.risk_class} exceeds {self.max_risk_class}")
        return reasons


@dataclass
class MatchResult:
    """Outcome of matching scenario requirements against registered devices."""

    assignments: Dict[str, str] = field(default_factory=dict)  # role -> device_id
    unsatisfied: Dict[str, List[str]] = field(default_factory=dict)  # role -> reasons

    @property
    def complete(self) -> bool:
        return not self.unsatisfied


class DeviceRegistry:
    """Registry of connected devices with capability matching."""

    def __init__(self) -> None:
        self._descriptors: Dict[str, DeviceDescriptor] = {}
        self.registration_log: List[Tuple[str, str]] = []  # (action, device_id)

    # ----------------------------------------------------------- registration
    def register(self, descriptor: DeviceDescriptor) -> None:
        if descriptor.device_id in self._descriptors:
            raise RegistrationError(f"device {descriptor.device_id!r} is already registered")
        self._descriptors[descriptor.device_id] = descriptor
        self.registration_log.append(("register", descriptor.device_id))

    def deregister(self, device_id: str) -> None:
        if device_id not in self._descriptors:
            raise RegistrationError(f"device {device_id!r} is not registered")
        del self._descriptors[device_id]
        self.registration_log.append(("deregister", device_id))

    def get(self, device_id: str) -> DeviceDescriptor:
        if device_id not in self._descriptors:
            raise KeyError(f"device {device_id!r} is not registered")
        return self._descriptors[device_id]

    def __contains__(self, device_id: str) -> bool:
        return device_id in self._descriptors

    def __len__(self) -> int:
        return len(self._descriptors)

    @property
    def descriptors(self) -> List[DeviceDescriptor]:
        return list(self._descriptors.values())

    # --------------------------------------------------------------- queries
    def find_by_type(self, device_type: str) -> List[DeviceDescriptor]:
        return [d for d in self._descriptors.values() if d.device_type == device_type]

    def find_publishing(self, topic: str) -> List[DeviceDescriptor]:
        return [d for d in self._descriptors.values() if d.publishes(topic)]

    def find_accepting(self, command: str) -> List[DeviceDescriptor]:
        return [d for d in self._descriptors.values() if d.accepts(command)]

    def candidates(self, requirement: DeviceRequirement) -> List[DeviceDescriptor]:
        return [d for d in self._descriptors.values() if requirement.is_satisfied_by(d)]

    # -------------------------------------------------------------- matching
    def match(self, requirements: List[DeviceRequirement]) -> MatchResult:
        """Assign a distinct registered device to each requirement.

        Uses a greedy assignment over requirements ordered by how constrained
        they are (fewest candidates first), which is sufficient for realistic
        clinical scenario sizes; if a requirement cannot be satisfied the
        reasons against each candidate are reported.
        """
        result = MatchResult()
        used: set = set()
        ordered = sorted(requirements, key=lambda r: len(self.candidates(r)))
        for requirement in ordered:
            available = [d for d in self.candidates(requirement) if d.device_id not in used]
            if available:
                chosen = available[0]
                result.assignments[requirement.role] = chosen.device_id
                used.add(chosen.device_id)
            else:
                reasons: List[str] = []
                for descriptor in self._descriptors.values():
                    if descriptor.device_id in used:
                        reasons.append(f"{descriptor.device_id}: already assigned to another role")
                    else:
                        unmet = requirement.unmet_reasons(descriptor)
                        reasons.append(f"{descriptor.device_id}: " + "; ".join(unmet))
                if not reasons:
                    reasons.append("no devices registered")
                result.unsatisfied[requirement.role] = reasons
        # Restore the caller's requirement order in the assignment dict.
        result.assignments = {
            r.role: result.assignments[r.role] for r in requirements if r.role in result.assignments
        }
        return result
