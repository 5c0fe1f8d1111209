"""PCA safety supervisor: the closed-loop controller of Figure 1.

The supervisor subscribes to pulse-oximeter SpO2 / heart-rate data (and, when
available, capnograph respiratory rate), evaluates a safety policy each
control step, and commands the PCA pump to stop when it detects early signs
of respiratory depression.  Three policies of increasing sophistication are
provided because the supervisor-policy ablation in experiment E1 compares
them:

* ``threshold`` -- stop when SpO2 falls below a fixed threshold (the
  baseline design in Arney et al. [4]).
* ``trend`` -- additionally stop when the SpO2 trend predicts crossing the
  threshold within a configurable horizon (earlier intervention).
* ``fused`` -- combine SpO2 with respiratory rate and heart rate so that the
  supervisor reacts to hypoventilation before desaturation and is robust to
  single-sensor artefacts.

The supervisor is *fail-safe with respect to data staleness*: if its QoS
monitor reports that a required topic has gone stale (communication failure,
sensor crash), it stops the pump rather than keep infusing blind.  It can
also resume the pump once the patient has recovered and data is fresh,
modelling the full control loop rather than a one-shot trip.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.middleware.qos import TopicQoS
from repro.middleware.supervisor_host import SupervisorApp
from repro.readings import Reading
from repro.sim.channel import Message

POLICIES = ("threshold", "trend", "fused")


class SupervisorDecision(enum.Enum):
    """Outcome of one supervisor control step."""

    NO_ACTION = "no_action"
    STOP_PUMP = "stop_pump"
    RESUME_PUMP = "resume_pump"
    ALARM_ONLY = "alarm_only"


@dataclass
class SupervisorConfig:
    """Tuning of the PCA safety supervisor.

    spo2_stop_threshold:
        Stop the pump when measured SpO2 falls below this value.
    spo2_resume_threshold:
        Allow resumption only after SpO2 recovers above this (hysteresis).
    respiratory_rate_stop_threshold:
        Stop if respiratory rate (from a capnograph) falls below this.
    trend_horizon_s:
        For the trend policy, how far ahead to extrapolate SpO2.
    trend_window_samples:
        How many recent samples the trend estimate uses.
    data_staleness_limit_s:
        If required data is older than this, fail safe (stop the pump).
    policy:
        One of :data:`POLICIES`.
    resume_enabled / resume_hold_time_s:
        Whether and how quickly the supervisor resumes a recovered patient.
    """

    spo2_stop_threshold: float = 92.0
    spo2_resume_threshold: float = 95.0
    respiratory_rate_stop_threshold: float = 8.0
    heart_rate_low_threshold: float = 45.0
    trend_horizon_s: float = 120.0
    trend_window_samples: int = 20
    trend_arm_spo2: float = 96.0
    data_staleness_limit_s: float = 15.0
    startup_grace_s: float = 30.0
    policy: str = "fused"
    resume_enabled: bool = True
    resume_hold_time_s: float = 300.0
    use_capnograph: bool = True

    def validate(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if not 0 < self.spo2_stop_threshold < 100:
            raise ValueError("spo2_stop_threshold must be in (0, 100)")
        if self.spo2_resume_threshold < self.spo2_stop_threshold:
            raise ValueError("spo2_resume_threshold must be >= spo2_stop_threshold")
        if self.trend_window_samples < 2:
            raise ValueError("trend_window_samples must be >= 2")
        # NaN compares False with everything, so "age > limit" would never
        # fire and the stale-data fail-safe would be silently disabled.
        if not (math.isfinite(self.data_staleness_limit_s) and self.data_staleness_limit_s > 0):
            raise ValueError(f"data_staleness_limit_s must be finite and positive, got {self.data_staleness_limit_s!r}")
        if self.startup_grace_s < 0:
            raise ValueError("startup_grace_s must be non-negative")
        if self.resume_hold_time_s < 0:
            raise ValueError("resume_hold_time_s must be non-negative")


@dataclass
class SupervisorEvent:
    time: float
    decision: SupervisorDecision
    reason: str
    values: Dict[str, float] = field(default_factory=dict)


class PCASafetySupervisor(SupervisorApp):
    """Closed-loop PCA safety supervisor application."""

    step_period_s = 2.0

    def __init__(
        self,
        app_id: str,
        pump_device_id: str,
        config: Optional[SupervisorConfig] = None,
    ) -> None:
        super().__init__(app_id)
        self.config = config or SupervisorConfig()
        self.config.validate()
        self.pump_device_id = pump_device_id
        self.subscriptions = ("spo2", "heart_rate") + (
            ("respiratory_rate",) if self.config.use_capnograph else ()
        )
        self.qos_contracts = tuple(
            TopicQoS(topic=t, max_age_s=self.config.data_staleness_limit_s)
            for t in self.subscriptions
        )
        self._spo2_history: Deque[Tuple[float, float]] = deque(maxlen=self.config.trend_window_samples)
        self._latest: Dict[str, Tuple[float, float, bool]] = {}  # topic -> (time, value, valid)
        self.pump_stopped = False
        self.stop_count = 0
        self.resume_count = 0
        self.events: List[SupervisorEvent] = []
        self._stop_condition_cleared_at: Optional[float] = None
        self.first_stop_time: Optional[float] = None

    # ----------------------------------------------------------------- data
    def on_data(self, topic: str, payload: Reading, message: Message) -> None:
        time, value, valid = payload.time, float(payload.value), payload.valid
        self._latest[topic] = (time, value, valid)
        if topic == "spo2" and valid:
            self._spo2_history.append((time, value))

    def latest(self, topic: str) -> Optional[Tuple[float, float, bool]]:
        return self._latest.get(topic)

    # ----------------------------------------------------------------- step
    def step(self, now: float) -> None:
        decision, reason, values = self._evaluate(now)
        if decision == SupervisorDecision.STOP_PUMP and not self.pump_stopped:
            issued = self.send_command(self.pump_device_id, "stop")
            if issued:
                self.pump_stopped = True
                self.stop_count += 1
                if self.first_stop_time is None:
                    self.first_stop_time = now
            self.events.append(SupervisorEvent(now, decision, reason, values))
        elif decision == SupervisorDecision.RESUME_PUMP and self.pump_stopped:
            issued = self.send_command(self.pump_device_id, "resume")
            if issued:
                self.pump_stopped = False
                self.resume_count += 1
            self.events.append(SupervisorEvent(now, decision, reason, values))
        elif decision == SupervisorDecision.ALARM_ONLY:
            self.events.append(SupervisorEvent(now, decision, reason, values))

    # ------------------------------------------------------------ evaluation
    def _evaluate(self, now: float) -> Tuple[SupervisorDecision, str, Dict[str, float]]:
        config = self.config
        values: Dict[str, float] = {}

        # Fail safe on stale data for any required topic.  Topics that have
        # never delivered anything are tolerated during the startup grace
        # period so the supervisor does not trip before slow sensors (e.g. a
        # capnograph with a long sample period) produce their first reading.
        stale = []
        for topic in self.subscriptions:
            if self.qos.is_stale(topic):
                never_seen = topic not in self._latest
                if never_seen and now <= config.startup_grace_s:
                    continue
                stale.append(topic)
        if stale:
            if self.pump_stopped:
                return SupervisorDecision.NO_ACTION, "already stopped (stale data)", values
            return SupervisorDecision.STOP_PUMP, f"stale data on {', '.join(sorted(stale))}", values

        spo2 = self._value_if_valid("spo2")
        heart_rate = self._value_if_valid("heart_rate")
        respiratory_rate = self._value_if_valid("respiratory_rate")
        if spo2 is not None:
            values["spo2"] = spo2
        if heart_rate is not None:
            values["heart_rate"] = heart_rate
        if respiratory_rate is not None:
            values["respiratory_rate"] = respiratory_rate

        if spo2 is None:
            # No valid oximetry at all (probe off): treat like stale data,
            # subject to the same startup grace as never-seen topics.
            if "spo2" not in self._latest and now <= config.startup_grace_s:
                return SupervisorDecision.NO_ACTION, "waiting for first SpO2 reading", values
            if self.pump_stopped:
                return SupervisorDecision.NO_ACTION, "already stopped (no valid SpO2)", values
            return SupervisorDecision.STOP_PUMP, "no valid SpO2 reading", values

        danger, reason = self._danger(spo2, heart_rate, respiratory_rate, now)
        if danger:
            self._stop_condition_cleared_at = None
            if self.pump_stopped:
                return SupervisorDecision.NO_ACTION, "already stopped", values
            return SupervisorDecision.STOP_PUMP, reason, values

        # No danger: consider resuming a previously stopped pump.
        if self.pump_stopped and config.resume_enabled:
            if spo2 >= config.spo2_resume_threshold:
                if self._stop_condition_cleared_at is None:
                    self._stop_condition_cleared_at = now
                if now - self._stop_condition_cleared_at >= config.resume_hold_time_s:
                    self._stop_condition_cleared_at = None
                    return SupervisorDecision.RESUME_PUMP, "patient recovered", values
            else:
                self._stop_condition_cleared_at = None
        return SupervisorDecision.NO_ACTION, "within safe envelope", values

    def _danger(
        self,
        spo2: float,
        heart_rate: Optional[float],
        respiratory_rate: Optional[float],
        now: float,
    ) -> Tuple[bool, str]:
        config = self.config
        if spo2 < config.spo2_stop_threshold:
            return True, f"SpO2 {spo2:.1f} below threshold {config.spo2_stop_threshold:.1f}"
        if config.policy in ("trend", "fused") and spo2 < config.trend_arm_spo2:
            # The trend rule only arms once SpO2 shows real depression
            # (below trend_arm_spo2); otherwise noise-driven slopes
            # extrapolated over the horizon would trip the loop spuriously.
            predicted = self._predict_spo2(now + config.trend_horizon_s)
            if predicted is not None and predicted < config.spo2_stop_threshold:
                return True, (
                    f"SpO2 trend predicts {predicted:.1f} below threshold within "
                    f"{config.trend_horizon_s:.0f}s"
                )
        if config.policy == "fused":
            if respiratory_rate is not None and respiratory_rate < config.respiratory_rate_stop_threshold:
                return True, (
                    f"respiratory rate {respiratory_rate:.1f} below threshold "
                    f"{config.respiratory_rate_stop_threshold:.1f}"
                )
            if heart_rate is not None and heart_rate < config.heart_rate_low_threshold:
                return True, f"heart rate {heart_rate:.1f} critically low"
        return False, ""

    def _predict_spo2(self, at_time: float) -> Optional[float]:
        """Linear extrapolation of recent SpO2 samples to ``at_time``."""
        if len(self._spo2_history) < max(4, self.config.trend_window_samples // 2):
            return None
        times = [t for t, _ in self._spo2_history]
        values = [v for _, v in self._spo2_history]
        n = len(times)
        mean_t = sum(times) / n
        mean_v = sum(values) / n
        denom = sum((t - mean_t) ** 2 for t in times)
        if denom == 0:
            return None
        slope = sum((t - mean_t) * (v - mean_v) for t, v in zip(times, values)) / denom
        return mean_v + slope * (at_time - mean_t)

    def _value_if_valid(self, topic: str) -> Optional[float]:
        entry = self._latest.get(topic)
        if entry is None:
            return None
        _, value, valid = entry
        return value if valid else None
