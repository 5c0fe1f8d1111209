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
  threshold within :data:`TREND_HORIZON_S` (earlier intervention).
* ``fused`` -- combine SpO2 with respiratory rate and heart rate so that the
  supervisor reacts to hypoventilation before desaturation and is robust to
  single-sensor artefacts.

The policy is the supervisor's one setting.  Its tuning -- thresholds,
trend window, staleness limit, start-up grace, resume hold -- is the module
constants below.

Each step's decision is the pure function :func:`decide`;
:meth:`PCASafetySupervisor.step` builds its :class:`Observation` and applies
the command it returns.

The supervisor is *fail-safe with respect to data staleness*: it records
when each subscribed topic last reached it, and if a required topic has gone
stale (communication failure, sensor crash), it stops the pump rather than
keep infusing blind.  It also resumes the pump once the patient has
recovered and data is fresh, modelling the full control loop rather than a
one-shot trip.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Dict, List, NamedTuple, Optional, Sequence, Tuple

from repro.middleware.supervisor_host import SupervisorApp
from repro.readings import Reading
from repro.sim.channel import Message

POLICIES = ("threshold", "trend", "fused")

#: Stop the pump when measured SpO2 falls below this.
SPO2_STOP_THRESHOLD = 92.0
#: Resume only after SpO2 recovers to at least this (hysteresis) ...
SPO2_RESUME_THRESHOLD = 95.0
#: ... and has stayed there, with no danger, for this long.
RESUME_HOLD_TIME_S = 300.0
#: ``fused``: stop when the capnograph's respiratory rate falls below this.
RESPIRATORY_RATE_STOP_THRESHOLD = 8.0
#: ``fused``: stop when heart rate falls below this.
HEART_RATE_LOW_THRESHOLD = 45.0
#: ``trend``/``fused``: how far ahead the SpO2 trend is extrapolated.
TREND_HORIZON_S = 120.0
#: How many recent valid SpO2 samples the trend estimate uses.
TREND_WINDOW_SAMPLES = 20
#: The trend rule arms only below this SpO2; above it, noise-driven slopes
#: extrapolated over the horizon would trip the loop spuriously.
TREND_ARM_SPO2 = 96.0
#: A required topic last delivered longer ago than this is stale: fail safe
#: (stop the pump).
DATA_STALENESS_LIMIT_S = 15.0
#: Until this time, topics that never delivered are not yet stale, so slow
#: sensors (a capnograph with a long sample period) do not trip the loop.
STARTUP_GRACE_S = 30.0


class Observation(NamedTuple):
    """What one control step knows."""

    now: float
    #: Required topics, in subscription order, last delivered more than
    #: :data:`DATA_STALENESS_LIMIT_S` ago, or never delivered once the
    #: start-up grace is over.
    stale: Sequence[str]
    #: Latest value of each topic, None if absent or invalid.
    spo2: Optional[float]
    heart_rate: Optional[float]
    respiratory_rate: Optional[float]
    #: Whether any SpO2 reading, valid or not, has arrived.
    spo2_seen: bool
    #: Recent valid SpO2 samples as ``(time, value)``, oldest first.
    spo2_window: Sequence[Tuple[float, float]]


def decide(
    policy: str, obs: Observation, stopped: bool, cleared_at: Optional[float]
) -> Tuple[Optional[str], str, Optional[float]]:
    """One control decision: ``(command or None, reason, cleared_at')``.

    ``stopped`` is the believed pump state; ``cleared_at`` is when the
    stopped patient last started to look recovered (None if not).  The
    command is ``"stop"`` or ``"resume"``; a danger the stopped pump already
    answers gives no command, with its reason.
    """
    now, spo2 = obs.now, obs.spo2
    if obs.stale:
        # Only a stop reports which topics (the pump may stay stopped for a
        # whole outage, and the names cost a sort and a join per step).
        reason = "stale data" if stopped else f"stale data on {', '.join(sorted(obs.stale))}"
    elif spo2 is None:
        # No valid oximetry at all (probe off): treat like stale data,
        # subject to the same start-up grace as never-seen topics.
        if not obs.spo2_seen and now <= STARTUP_GRACE_S:
            return None, "waiting for first SpO2 reading", cleared_at
        reason = "no valid SpO2 reading"
    else:
        reason = _danger(policy, spo2, obs)
        if not reason and stopped and spo2 >= SPO2_RESUME_THRESHOLD:
            if cleared_at is None:
                cleared_at = now
            if now - cleared_at >= RESUME_HOLD_TIME_S:
                return "resume", "patient recovered", None
        else:
            cleared_at = None
    if reason and not stopped:
        return "stop", reason, cleared_at
    return None, reason, cleared_at


def _danger(policy: str, spo2: float, obs: Observation) -> str:
    """Why ``obs``, whose valid SpO2 is ``spo2``, calls for a stop; "" if it does not."""
    if spo2 < SPO2_STOP_THRESHOLD:
        return f"SpO2 {spo2:.1f} below threshold {SPO2_STOP_THRESHOLD:.1f}"
    if policy != "threshold" and spo2 < TREND_ARM_SPO2:
        predicted = predict_spo2(obs.spo2_window, obs.now + TREND_HORIZON_S)
        if predicted is not None and predicted < SPO2_STOP_THRESHOLD:
            return (f"SpO2 trend predicts {predicted:.1f} below threshold within "
                    f"{TREND_HORIZON_S:.0f}s")
    if policy == "fused":
        respiratory_rate = obs.respiratory_rate
        if respiratory_rate is not None and respiratory_rate < RESPIRATORY_RATE_STOP_THRESHOLD:
            return (f"respiratory rate {respiratory_rate:.1f} below threshold "
                    f"{RESPIRATORY_RATE_STOP_THRESHOLD:.1f}")
        heart_rate = obs.heart_rate
        if heart_rate is not None and heart_rate < HEART_RATE_LOW_THRESHOLD:
            return f"heart rate {heart_rate:.1f} critically low"
    return ""


def predict_spo2(window: Sequence[Tuple[float, float]], at_time: float) -> Optional[float]:
    """Least-squares line through ``window`` evaluated at ``at_time``.

    None until the window holds half of :data:`TREND_WINDOW_SAMPLES` (at
    least 4), or when every sample has the same time.
    """
    if len(window) < max(4, TREND_WINDOW_SAMPLES // 2):
        return None
    times = [t for t, _ in window]
    values = [v for _, v in window]
    n = len(times)
    mean_t = sum(times) / n
    mean_v = sum(values) / n
    denom = sum((t - mean_t) ** 2 for t in times)
    if denom == 0:
        return None
    slope = sum((t - mean_t) * (v - mean_v) for t, v in zip(times, values)) / denom
    return mean_v + slope * (at_time - mean_t)


@dataclass
class SupervisorEvent:
    """A command the supervisor sent, whether or not the host issued it."""

    time: float
    command: str
    reason: str


class PCASafetySupervisor(SupervisorApp):
    """Closed-loop PCA safety supervisor application."""

    step_period_s = 2.0

    def __init__(
        self, app_id: str, pump_device_id: str, *, policy: str = "fused", use_capnograph: bool = True
    ) -> None:
        super().__init__(app_id)
        if policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {policy!r}")
        self.policy = policy
        self.pump_device_id = pump_device_id
        self.subscriptions = ("spo2", "heart_rate") + (("respiratory_rate",) if use_capnograph else ())
        self._spo2_window: Deque[Tuple[float, float]] = deque(maxlen=TREND_WINDOW_SAMPLES)
        self._values: Dict[str, Optional[float]] = {}  # topic -> latest value, None if invalid
        self._delivered_at: Dict[str, float] = {}  # topic -> its latest delivery instant
        self.pump_stopped = False
        self.stop_count = 0
        self.resume_count = 0
        self.events: List[SupervisorEvent] = []
        self._cleared_at: Optional[float] = None
        self.first_stop_time: Optional[float] = None

    def on_data(self, topic: str, payload: Reading, message: Message) -> None:
        value = float(payload.value) if payload.valid else None
        self._values[topic] = value
        self._delivered_at[topic] = message.delivered_at
        if value is not None and topic == "spo2":
            self._spo2_window.append((payload.time, value))

    def step(self, now: float) -> None:
        values = self._values
        delivered_at = self._delivered_at
        stale = [topic for topic in self.subscriptions
                 if (now - delivered_at[topic] > DATA_STALENESS_LIMIT_S if topic in delivered_at
                     else now > STARTUP_GRACE_S)]
        obs = Observation(now, stale, values.get("spo2"), values.get("heart_rate"),
                          values.get("respiratory_rate"), "spo2" in values, self._spo2_window)
        command, reason, self._cleared_at = decide(self.policy, obs, self.pump_stopped, self._cleared_at)
        if command is None:
            return
        if self.send_command(self.pump_device_id, command):
            if command == "stop":
                self.pump_stopped = True
                self.stop_count += 1
                if self.first_stop_time is None:
                    self.first_stop_time = now
            else:
                self.pump_stopped = False
                self.resume_count += 1
        self.events.append(SupervisorEvent(now, command, reason))
