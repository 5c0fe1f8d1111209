"""Control-loop delay budget analysis (the timing annotations of Figure 1).

Figure 1 of the paper annotates the PCA control loop with its delay sources:
signal-processing time in the pulse oximeter, algorithm processing time in
the supervisor, network transmission delays, and the pump-stop delay.  The
supervisor "needs to account for" the sum of these delays: between the moment
the patient's physiology crosses the danger threshold and the moment the pump
actually stops, drug keeps flowing.

:func:`loop_delay_budget` composes the individual delay terms into a
worst-case end-to-end reaction time, and
:func:`max_additional_drug_during_reaction` converts that reaction time into
the additional drug a running infusion can deliver before the stop takes
effect -- the quantity a safe threshold choice must absorb.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional


@dataclass(frozen=True)
class DelayComponent:
    """One delay source in the control loop."""

    name: str
    nominal_s: float
    worst_case_s: Optional[float] = None
    description: str = ""

    def __post_init__(self) -> None:
        if self.nominal_s < 0:
            raise ValueError("nominal_s must be non-negative")
        if self.worst_case_s is not None and self.worst_case_s < self.nominal_s:
            raise ValueError("worst_case_s must be >= nominal_s")

    @property
    def worst(self) -> float:
        return self.nominal_s if self.worst_case_s is None else self.worst_case_s


@dataclass
class DelayBudget:
    """A named collection of delay components with derived totals."""

    components: List[DelayComponent] = field(default_factory=list)

    def add(self, component: DelayComponent) -> "DelayBudget":
        if any(existing.name == component.name for existing in self.components):
            raise ValueError(f"duplicate delay component {component.name!r}")
        self.components.append(component)
        return self

    def component(self, name: str) -> DelayComponent:
        for component in self.components:
            if component.name == name:
                return component
        raise KeyError(f"no delay component named {name!r}")

    @property
    def nominal_total_s(self) -> float:
        return sum(component.nominal_s for component in self.components)

    @property
    def worst_case_total_s(self) -> float:
        return sum(component.worst for component in self.components)

    def dominant_component(self) -> Optional[DelayComponent]:
        if not self.components:
            return None
        return max(self.components, key=lambda component: component.worst)

    def as_rows(self) -> List[Dict[str, object]]:
        """Table rows for reporting (one per component plus a total row)."""
        rows: List[Dict[str, object]] = [
            {
                "component": component.name,
                "nominal_s": component.nominal_s,
                "worst_case_s": component.worst,
                "description": component.description,
            }
            for component in self.components
        ]
        rows.append(
            {
                "component": "TOTAL",
                "nominal_s": self.nominal_total_s,
                "worst_case_s": self.worst_case_total_s,
                "description": "end-to-end reaction time",
            }
        )
        return rows


def loop_delay_budget(
    *,
    sensor_sample_period_s: float,
    signal_processing_delay_s: float,
    uplink_latency_s: float,
    supervisor_step_period_s: float,
    algorithm_delay_s: float,
    command_latency_s: float,
    pump_stop_delay_s: float,
    retransmissions: int = 0,
) -> DelayBudget:
    """Assemble the Figure 1 delay budget for the closed-loop PCA system.

    The worst case assumes the physiological event happens just after a
    sensor sample and just after a supervisor step (so a full period of each
    is lost) and that commands need ``retransmissions`` extra attempts.
    """
    if retransmissions < 0:
        raise ValueError("retransmissions must be non-negative")
    budget = DelayBudget()
    budget.add(
        DelayComponent(
            name="sensor_sampling",
            nominal_s=sensor_sample_period_s / 2.0,
            worst_case_s=sensor_sample_period_s,
            description="time until the sensor next samples the patient",
        )
    )
    budget.add(
        DelayComponent(
            name="signal_processing",
            nominal_s=signal_processing_delay_s,
            description="pulse oximeter averaging / signal processing time",
        )
    )
    budget.add(
        DelayComponent(
            name="network_uplink",
            nominal_s=uplink_latency_s,
            worst_case_s=uplink_latency_s * (1 + retransmissions),
            description="sensor-to-supervisor transmission delay",
        )
    )
    budget.add(
        DelayComponent(
            name="supervisor_scheduling",
            nominal_s=supervisor_step_period_s / 2.0,
            worst_case_s=supervisor_step_period_s,
            description="time until the supervisor's next control step",
        )
    )
    budget.add(
        DelayComponent(
            name="algorithm_processing",
            nominal_s=algorithm_delay_s,
            description="supervisor algorithm processing time",
        )
    )
    budget.add(
        DelayComponent(
            name="command_transmission",
            nominal_s=command_latency_s,
            worst_case_s=command_latency_s * (1 + retransmissions),
            description="supervisor-to-pump command transmission delay",
        )
    )
    budget.add(
        DelayComponent(
            name="pump_stop",
            nominal_s=pump_stop_delay_s,
            description="pump command processing / mechanical stop delay",
        )
    )
    return budget


def max_additional_drug_during_reaction(
    budget: DelayBudget,
    *,
    basal_rate_mg_per_hr: float,
    pending_bolus_mg: float = 0.0,
    worst_case: bool = True,
) -> float:
    """Drug delivered between the danger onset and the pump actually stopping."""
    if basal_rate_mg_per_hr < 0 or pending_bolus_mg < 0:
        raise ValueError("drug amounts must be non-negative")
    reaction_s = budget.worst_case_total_s if worst_case else budget.nominal_total_s
    return basal_rate_mg_per_hr * reaction_s / 3600.0 + pending_bolus_mg
