"""Supervisor code kept only as test oracles.

:class:`ReferenceSupervisorHost` is :class:`~repro.middleware.supervisor_host.SupervisorHost`
with the naive step schedule: a periodic tick event every
``step_period_s``, and at each tick a second event ``algorithm_delay_s``
later that calls ``app.step(now)``.  The production host keeps the tick
clock as a float and fires only the step event;
``tests/test_supervisor_step.py`` checks that the two call every step at
the same instants and honour the same cancel semantics.

:class:`ReferencePCASupervisor` is the PCA safety supervisor as it was
before its decision became the pure :func:`repro.core.pca.decide`: one
``_evaluate`` that reads a freshness monitor and updates the resume timer
in place, ``_danger``, and a ``step`` that checks the believed pump state
again, at the old ``SupervisorConfig`` defaults (written out below, so a
changed constant in ``repro.core.pca`` shows).

:class:`ReferenceFreshness` is the freshness rule the supervisor host kept
for its apps before each app judged its own: the last delivery instant of
each topic, and a contracted topic is stale once ``now`` minus that instant
exceeds its limit (always, before its first delivery).
``tests/test_pca_decide.py`` drives the reference and the production
supervisor with the same random deliveries, delivery instants, step times
and command outcomes.
"""

from __future__ import annotations

import enum
import math
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional, Tuple

from repro.middleware.supervisor_host import SupervisorApp, SupervisorHost


class ReferenceSupervisorHost(SupervisorHost):
    """SupervisorHost spending a tick event and a step event per step."""

    def _schedule_app(self, app: SupervisorApp) -> None:
        if app.step_period_s is None:
            return
        self.every(app.step_period_s, lambda app=app: self._run_step(app))

    def _run_step(self, app: SupervisorApp) -> None:
        self.after(self.algorithm_delay_s, lambda: app.step(self.now))


class ReferenceFreshness:
    """Per-topic freshness from delivery instants, against per-topic limits."""

    def __init__(self, max_age_s: Dict[str, float]) -> None:
        self.max_age_s = dict(max_age_s)
        self.last_delivery: Dict[str, float] = {}

    def record_delivery(self, topic: str, delivered_at: float) -> None:
        self.last_delivery[topic] = delivered_at

    def age(self, topic: str, now: float) -> float:
        last = self.last_delivery.get(topic)
        return math.inf if last is None else now - last

    def is_stale(self, topic: str, now: float) -> bool:
        limit = self.max_age_s.get(topic)
        return limit is not None and self.age(topic, now) > limit


class SupervisorDecision(enum.Enum):
    NO_ACTION = "no_action"
    STOP_PUMP = "stop_pump"
    RESUME_PUMP = "resume_pump"
    ALARM_ONLY = "alarm_only"


@dataclass
class ReferenceEvent:
    time: float
    decision: SupervisorDecision
    reason: str
    values: Dict[str, float] = field(default_factory=dict)


class ReferencePCASupervisor(SupervisorApp):
    """The PCA safety supervisor with ``SupervisorConfig()`` defaults."""

    step_period_s = 2.0
    spo2_stop_threshold = 92.0
    spo2_resume_threshold = 95.0
    respiratory_rate_stop_threshold = 8.0
    heart_rate_low_threshold = 45.0
    trend_horizon_s = 120.0
    trend_window_samples = 20
    trend_arm_spo2 = 96.0
    data_staleness_limit_s = 15.0
    startup_grace_s = 30.0
    resume_enabled = True
    resume_hold_time_s = 300.0

    def __init__(self, app_id: str, pump_device_id: str, policy: str = "fused",
                 use_capnograph: bool = True) -> None:
        super().__init__(app_id)
        self.policy = policy
        self.pump_device_id = pump_device_id
        self.subscriptions = ("spo2", "heart_rate") + (
            ("respiratory_rate",) if use_capnograph else ()
        )
        self.freshness = ReferenceFreshness(
            {topic: self.data_staleness_limit_s for topic in self.subscriptions})
        self._spo2_history: Deque[Tuple[float, float]] = deque(maxlen=self.trend_window_samples)
        self._latest: Dict[str, Tuple[float, float, bool]] = {}
        self.pump_stopped = False
        self.stop_count = 0
        self.resume_count = 0
        self.events: List[ReferenceEvent] = []
        self._stop_condition_cleared_at: Optional[float] = None
        self.first_stop_time: Optional[float] = None

    def on_data(self, topic, payload, message) -> None:
        # The host recorded every delivery before it called the app.
        self.freshness.record_delivery(topic, message.delivered_at)
        time, value, valid = payload.time, float(payload.value), payload.valid
        self._latest[topic] = (time, value, valid)
        if topic == "spo2" and valid:
            self._spo2_history.append((time, value))

    def step(self, now: float) -> None:
        decision, reason, values = self._evaluate(now)
        if decision == SupervisorDecision.STOP_PUMP and not self.pump_stopped:
            issued = self.send_command(self.pump_device_id, "stop")
            if issued:
                self.pump_stopped = True
                self.stop_count += 1
                if self.first_stop_time is None:
                    self.first_stop_time = now
            self.events.append(ReferenceEvent(now, decision, reason, values))
        elif decision == SupervisorDecision.RESUME_PUMP and self.pump_stopped:
            issued = self.send_command(self.pump_device_id, "resume")
            if issued:
                self.pump_stopped = False
                self.resume_count += 1
            self.events.append(ReferenceEvent(now, decision, reason, values))
        elif decision == SupervisorDecision.ALARM_ONLY:
            self.events.append(ReferenceEvent(now, decision, reason, values))

    def _evaluate(self, now: float) -> Tuple[SupervisorDecision, str, Dict[str, float]]:
        values: Dict[str, float] = {}
        stale = []
        for topic in self.subscriptions:
            if self.freshness.is_stale(topic, now):
                never_seen = topic not in self._latest
                if never_seen and now <= self.startup_grace_s:
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
            if "spo2" not in self._latest and now <= self.startup_grace_s:
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

        if self.pump_stopped and self.resume_enabled:
            if spo2 >= self.spo2_resume_threshold:
                if self._stop_condition_cleared_at is None:
                    self._stop_condition_cleared_at = now
                if now - self._stop_condition_cleared_at >= self.resume_hold_time_s:
                    self._stop_condition_cleared_at = None
                    return SupervisorDecision.RESUME_PUMP, "patient recovered", values
            else:
                self._stop_condition_cleared_at = None
        return SupervisorDecision.NO_ACTION, "within safe envelope", values

    def _danger(self, spo2, heart_rate, respiratory_rate, now) -> Tuple[bool, str]:
        if spo2 < self.spo2_stop_threshold:
            return True, f"SpO2 {spo2:.1f} below threshold {self.spo2_stop_threshold:.1f}"
        if self.policy in ("trend", "fused") and spo2 < self.trend_arm_spo2:
            predicted = self._predict_spo2(now + self.trend_horizon_s)
            if predicted is not None and predicted < self.spo2_stop_threshold:
                return True, (
                    f"SpO2 trend predicts {predicted:.1f} below threshold within "
                    f"{self.trend_horizon_s:.0f}s"
                )
        if self.policy == "fused":
            if respiratory_rate is not None and respiratory_rate < self.respiratory_rate_stop_threshold:
                return True, (
                    f"respiratory rate {respiratory_rate:.1f} below threshold "
                    f"{self.respiratory_rate_stop_threshold:.1f}"
                )
            if heart_rate is not None and heart_rate < self.heart_rate_low_threshold:
                return True, f"heart rate {heart_rate:.1f} critically low"
        return False, ""

    def _predict_spo2(self, at_time: float) -> Optional[float]:
        if len(self._spo2_history) < max(4, self.trend_window_samples // 2):
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
