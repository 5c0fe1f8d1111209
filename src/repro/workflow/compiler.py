"""Compilation of clinical scenarios into runtime components.

"A model of the scenario can be compiled into run-time components that will
provide decision support for caregivers, detect device incompatibilities, and
help recover from faults." (Section III(e))

Two outputs are produced:

* :func:`device_requirements` -- the deployment-time device requirements fed
  to :meth:`repro.middleware.registry.DeviceRegistry.match`, and
* :func:`compile_scenario` -- a :class:`CompiledScenarioApp`, a
  :class:`~repro.middleware.supervisor_host.SupervisorApp` that subscribes to
  the scenario's data-flow topics and evaluates its decision rules each step,
  sending commands to the devices assigned to the target roles.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.middleware.registry import DeviceRequirement
from repro.middleware.supervisor_host import SupervisorApp
from repro.readings import Reading
from repro.sim.channel import Message
from repro.workflow.spec import ClinicalScenario, DecisionRule


def device_requirements(scenario: ClinicalScenario) -> List[DeviceRequirement]:
    """Generate deployment-time device requirements from a scenario."""
    requirements = []
    for role in scenario.device_roles:
        requirements.append(
            DeviceRequirement(
                role=role.role,
                device_type=role.device_type or None,
                required_topics=tuple(role.required_topics),
                required_commands=tuple(role.required_commands),
            )
        )
    return requirements


@dataclass
class FiredRule:
    time: float
    rule: str
    target_device: str
    command: str
    issued: bool


class CompiledScenarioApp(SupervisorApp):
    """A supervisor app generated from a scenario's decision rules."""

    def __init__(
        self,
        scenario: ClinicalScenario,
        role_assignments: Dict[str, str],
        *,
        step_period_s: float = 2.0,
    ) -> None:
        super().__init__(app_id=f"compiled:{scenario.name}")
        missing = {
            rule.target_role for rule in scenario.decision_rules
        } - set(role_assignments)
        if missing:
            raise ValueError(f"no device assigned to decision-rule target roles: {sorted(missing)}")
        self.scenario = scenario
        self.role_assignments = dict(role_assignments)
        self.step_period_s = step_period_s
        self.subscriptions = tuple(scenario.topics_consumed)
        self._latest: Dict[str, float] = {}
        self.fired_rules: List[FiredRule] = []
        self._rule_engaged: Dict[str, bool] = {rule.name: False for rule in scenario.decision_rules}

    # ------------------------------------------------------------------ data
    def on_data(self, topic: str, payload: Reading, message: Message) -> None:
        if not payload.valid:
            return
        self._latest[topic] = float(payload.value)

    @property
    def observations(self) -> Dict[str, float]:
        return dict(self._latest)

    # ------------------------------------------------------------------ step
    def step(self, now: float) -> None:
        for rule in self.scenario.sorted_decision_rules():
            try:
                condition_holds = bool(rule.condition(self._latest))
            except KeyError:
                # Rule references data not yet observed: cannot evaluate.
                continue
            if condition_holds and not self._rule_engaged[rule.name]:
                self._fire(now, rule)
                self._rule_engaged[rule.name] = True
                break
            if not condition_holds:
                self._rule_engaged[rule.name] = False

    def _fire(self, now: float, rule: DecisionRule) -> None:
        device_id = self.role_assignments[rule.target_role]
        issued = self.send_command(device_id, rule.command, dict(rule.parameters))
        self.fired_rules.append(
            FiredRule(time=now, rule=rule.name, target_device=device_id, command=rule.command, issued=issued)
        )


def compile_scenario(
    scenario: ClinicalScenario,
    role_assignments: Dict[str, str],
    *,
    step_period_s: float = 2.0,
) -> CompiledScenarioApp:
    """Compile ``scenario`` into a supervisor app bound to concrete devices.

    ``role_assignments`` maps scenario device roles to registered device ids,
    normally obtained from :meth:`DeviceRegistry.match`.
    """
    return CompiledScenarioApp(scenario, role_assignments, step_period_s=step_period_s)
