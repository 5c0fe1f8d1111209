"""Fixed-threshold alarms on individual vital signs.

This is the status quo the paper criticises: thresholds "aimed at an
'average' patient" that produce a proliferation of false alarms.  The class
is used both as the baseline in the smart-alarm experiments and as a building
block inside the adaptive and multivariate engines.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.readings import Reading


class AlarmSeverity(enum.Enum):
    ADVISORY = "advisory"
    WARNING = "warning"
    CRITICAL = "critical"


@dataclass(frozen=True)
class AlarmEvent:
    """One raised alarm."""

    time: float
    source: str
    vital: str
    value: float
    severity: AlarmSeverity
    message: str
    suppressed: bool = False

    def with_suppression(self) -> "AlarmEvent":
        return AlarmEvent(
            time=self.time,
            source=self.source,
            vital=self.vital,
            value=self.value,
            severity=self.severity,
            message=self.message,
            suppressed=True,
        )


@dataclass(frozen=True)
class ThresholdRule:
    """A single comparison rule on a vital sign.

    direction:
        ``"below"`` raises when the value drops under the threshold,
        ``"above"`` when it exceeds it.
    persistence_s:
        The condition must hold continuously this long before the alarm is
        raised (0 = raise immediately); filters momentary artefacts.
    """

    vital: str
    threshold: float
    direction: str = "below"
    severity: AlarmSeverity = AlarmSeverity.WARNING
    persistence_s: float = 0.0

    def __post_init__(self) -> None:
        if self.direction not in ("below", "above"):
            raise ValueError(f"direction must be 'below' or 'above', got {self.direction!r}")
        if self.persistence_s < 0:
            raise ValueError("persistence_s must be non-negative")

    def violated_by(self, value: float) -> bool:
        if self.direction == "below":
            return value < self.threshold
        return value > self.threshold


class ThresholdAlarm:
    """Evaluates a set of threshold rules against a stream of observations."""

    def __init__(self, source: str, rules: List[ThresholdRule], *, rearm_time_s: float = 60.0) -> None:
        if rearm_time_s < 0:
            raise ValueError("rearm_time_s must be non-negative")
        self.source = source
        self.rules = list(rules)
        self.rearm_time_s = rearm_time_s
        self.alarms: List[AlarmEvent] = []
        self._violation_start: Dict[int, Optional[float]] = {i: None for i in range(len(self.rules))}
        self._last_alarm_time: Dict[int, float] = {}

    def observe(self, time: float, vital: str, value: float) -> List[AlarmEvent]:
        """Feed one observation; returns any alarms raised by it."""
        raised: List[AlarmEvent] = []
        for index, rule in enumerate(self.rules):
            if rule.vital != vital:
                continue
            if rule.violated_by(value):
                start = self._violation_start.get(index)
                if start is None:
                    self._violation_start[index] = time
                    start = time
                if time - start >= rule.persistence_s:
                    if self._can_raise(index, time):
                        event = AlarmEvent(
                            time=time,
                            source=self.source,
                            vital=vital,
                            value=value,
                            severity=rule.severity,
                            message=(
                                f"{vital} {value:.1f} {rule.direction} threshold {rule.threshold:.1f}"
                            ),
                        )
                        self.alarms.append(event)
                        raised.append(event)
                        self._last_alarm_time[index] = time
            else:
                self._violation_start[index] = None
        return raised

    def observe_reading(self, vital: str, reading: Reading) -> List[AlarmEvent]:
        """Feed a device :class:`Reading` natively.

        The reading's own sample time drives persistence/re-arm windows;
        invalid readings (probe-off, lead-off) are sensor artefacts, not
        observations, and raise nothing.
        """
        if not reading.valid:
            return []
        return self.observe(reading.time, vital, float(reading.value))

    def _can_raise(self, rule_index: int, time: float) -> bool:
        last = self._last_alarm_time.get(rule_index)
        return last is None or time - last >= self.rearm_time_s

    @property
    def alarm_times(self) -> List[float]:
        return [alarm.time for alarm in self.alarms]

    def alarms_for(self, vital: str) -> List[AlarmEvent]:
        return [alarm for alarm in self.alarms if alarm.vital == vital]


def default_adult_rules() -> List[ThresholdRule]:
    """The 'average patient' alarm limits the paper criticises."""
    return [
        ThresholdRule(vital="spo2", threshold=90.0, direction="below", severity=AlarmSeverity.CRITICAL),
        ThresholdRule(vital="heart_rate", threshold=50.0, direction="below", severity=AlarmSeverity.WARNING),
        ThresholdRule(vital="heart_rate", threshold=120.0, direction="above", severity=AlarmSeverity.WARNING),
        ThresholdRule(vital="respiratory_rate", threshold=8.0, direction="below", severity=AlarmSeverity.CRITICAL),
        ThresholdRule(vital="map", threshold=65.0, direction="below", severity=AlarmSeverity.CRITICAL),
        ThresholdRule(vital="map", threshold=110.0, direction="above", severity=AlarmSeverity.WARNING),
    ]
