"""Clinical scenario description language.

A :class:`ClinicalScenario` captures exactly the five elements Section III(e)
of the paper lists:

* devices necessary for the implementation of the scenario
  (:class:`DeviceRole`),
* requirements for data flows between the devices and the patient
  (:class:`DataFlow`),
* caregiver roles required for the scenario (:class:`CaregiverRole`),
* operational procedures for each caregiver role (:class:`ProcedureStep`
  graphs), and
* decision logic for the closed-loop control between devices
  (:class:`DecisionRule`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class DeviceRole:
    """A device needed by the scenario, described by capability not identity."""

    role: str
    device_type: str
    required_topics: Tuple[str, ...] = ()
    required_commands: Tuple[str, ...] = ()
    description: str = ""


@dataclass(frozen=True)
class DataFlow:
    """A required data flow from a source role to a destination role.

    max_latency_s / max_period_s:
        The timing requirement the implementation must meet (used to generate
        the timed-interface checks of Section III(f)).
    """

    source_role: str
    topic: str
    destination_role: str
    max_latency_s: float = 1.0
    max_period_s: float = 10.0

    def __post_init__(self) -> None:
        if self.max_latency_s <= 0 or self.max_period_s <= 0:
            raise ValueError("data flow timing bounds must be positive")


@dataclass(frozen=True)
class CaregiverRole:
    """A human role the scenario requires (and what it is responsible for)."""

    role: str
    description: str = ""
    responsibilities: Tuple[str, ...] = ()


@dataclass(frozen=True)
class ProcedureStep:
    """One step of a caregiver's operational procedure.

    next_steps:
        Mapping of outcome label -> next step id.  An empty mapping marks a
        terminal step.  The analysis flags outcomes that no step handles and
        steps that are unreachable.
    """

    step_id: str
    role: str
    action: str
    next_steps: Dict[str, str] = field(default_factory=dict)
    is_initial: bool = False
    expected_duration_s: float = 60.0


@dataclass(frozen=True)
class DecisionRule:
    """A closed-loop decision rule: when ``condition`` holds, send ``command``.

    condition:
        Predicate over the latest observations dict (topic -> value).
    target_role:
        The device role receiving the command.
    priority:
        Rules are evaluated highest priority first; the first rule whose
        condition holds fires (so safety rules can pre-empt comfort rules).
    """

    name: str
    condition: Callable[[Dict[str, float]], bool]
    target_role: str
    command: str
    parameters: Dict[str, object] = field(default_factory=dict)
    priority: int = 0
    description: str = ""


@dataclass
class ClinicalScenario:
    """A complete executable clinical scenario specification."""

    name: str
    description: str = ""
    device_roles: List[DeviceRole] = field(default_factory=list)
    data_flows: List[DataFlow] = field(default_factory=list)
    caregiver_roles: List[CaregiverRole] = field(default_factory=list)
    procedure: List[ProcedureStep] = field(default_factory=list)
    decision_rules: List[DecisionRule] = field(default_factory=list)

    # ------------------------------------------------------------- accessors
    def device_role(self, role: str) -> DeviceRole:
        for device_role in self.device_roles:
            if device_role.role == role:
                return device_role
        raise KeyError(f"scenario {self.name!r} has no device role {role!r}")

    def caregiver_role(self, role: str) -> CaregiverRole:
        for caregiver_role in self.caregiver_roles:
            if caregiver_role.role == role:
                return caregiver_role
        raise KeyError(f"scenario {self.name!r} has no caregiver role {role!r}")

    def step(self, step_id: str) -> ProcedureStep:
        for step in self.procedure:
            if step.step_id == step_id:
                return step
        raise KeyError(f"scenario {self.name!r} has no procedure step {step_id!r}")

    def initial_steps(self) -> List[ProcedureStep]:
        return [step for step in self.procedure if step.is_initial]

    def sorted_decision_rules(self) -> List[DecisionRule]:
        return sorted(self.decision_rules, key=lambda rule: -rule.priority)

    @property
    def topics_consumed(self) -> List[str]:
        return sorted({flow.topic for flow in self.data_flows})
