"""Mechanical ventilator with breathing-cycle state broadcasting.

The X-ray/ventilator synchronisation case study (Section II(b) of the paper,
following Arney et al. [3] and Lofsky [15]) needs two behaviours from the
ventilator:

* *pause/restart mode*: an external device (the X-ray machine) can pause the
  ventilator and restart it; the hazard is that the restart never arrives.
* *state-broadcast mode*: the ventilator continuously transmits its internal
  breathing-cycle state so the X-ray machine can choose the end-of-exhalation
  window on its own; the ventilator is never paused, removing the hazard but
  tightening the timing constraints.

The breathing cycle is modelled as inhale -> exhale -> pause(end-expiratory)
phases with configurable durations.  Air-flow rate is positive during
inhalation, negative during exhalation, and (near) zero during the
end-expiratory pause -- the window in which a blur-free X-ray can be taken.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from repro.devices.base import DeviceDescriptor, DeviceState, MedicalDevice
from repro.sim.trace import TraceRecorder


class BreathPhase(enum.Enum):
    INHALE = "inhale"
    EXHALE = "exhale"
    END_EXPIRATORY_PAUSE = "end_expiratory_pause"
    HELD = "held"  # ventilator paused by an external command


@dataclass
class VentilatorSettings:
    """Breathing-cycle timing.

    The defaults give a 5-second cycle (12 breaths/min): 1.5 s inhale,
    2.0 s exhale, 1.5 s end-expiratory pause.
    """

    inhale_duration_s: float = 1.5
    exhale_duration_s: float = 2.0
    pause_duration_s: float = 1.5
    tidal_volume_ml: float = 500.0
    max_safe_apnea_s: float = 60.0

    def validate(self) -> None:
        for name in ("inhale_duration_s", "exhale_duration_s", "pause_duration_s"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.tidal_volume_ml <= 0:
            raise ValueError("tidal_volume_ml must be positive")
        if self.max_safe_apnea_s <= 0:
            raise ValueError("max_safe_apnea_s must be positive")

    @property
    def cycle_duration_s(self) -> float:
        return self.inhale_duration_s + self.exhale_duration_s + self.pause_duration_s

    @property
    def breaths_per_minute(self) -> float:
        return 60.0 / self.cycle_duration_s


class Ventilator(MedicalDevice):
    """Anaesthesia ventilator driving a fixed breathing cycle."""

    def __init__(
        self,
        device_id: str,
        settings: Optional[VentilatorSettings] = None,
        *,
        broadcast_state: bool = False,
        state_broadcast_period_s: float = 0.25,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        descriptor = DeviceDescriptor(
            device_id=device_id,
            device_type="ventilator",
            risk_class="III",
            published_topics=("breath_phase", "air_flow", "ventilation_status"),
            accepted_commands=("pause", "resume"),
            capabilities=("ventilation", "breath_state_broadcast"),
        )
        super().__init__(descriptor, trace=trace)
        self.settings = settings or VentilatorSettings()
        self.settings.validate()
        if state_broadcast_period_s <= 0:
            raise ValueError("state_broadcast_period_s must be positive")
        self.broadcast_state = broadcast_state
        self.state_broadcast_period_s = state_broadcast_period_s
        self.phase = BreathPhase.INHALE
        self.phase_started_at = 0.0
        self.held_since: Optional[float] = None
        self.breaths_delivered = 0
        self.hold_history: List[Tuple[float, Optional[float]]] = []  # (pause_time, resume_time)
        self._declare_signals("breath_phase")
        self._declare_events("held")
        self.register_command("pause", self._command_pause)
        self.register_command("resume", self._command_resume)

    # --------------------------------------------------------------- process
    def start(self) -> None:
        self.transition(DeviceState.RUNNING)
        self.phase = BreathPhase.INHALE
        self.phase_started_at = self.now
        self.after(self.settings.inhale_duration_s, self._next_phase)
        if self.broadcast_state:
            self.sample_every(self.state_broadcast_period_s, self._broadcast)

    def _next_phase(self) -> None:
        if self.crashed or self.phase == BreathPhase.HELD:
            return
        if self.phase == BreathPhase.INHALE:
            self._enter_phase(BreathPhase.EXHALE, self.settings.exhale_duration_s)
        elif self.phase == BreathPhase.EXHALE:
            self._enter_phase(BreathPhase.END_EXPIRATORY_PAUSE, self.settings.pause_duration_s)
        elif self.phase == BreathPhase.END_EXPIRATORY_PAUSE:
            self.breaths_delivered += 1
            self._enter_phase(BreathPhase.INHALE, self.settings.inhale_duration_s)

    def _enter_phase(self, phase: BreathPhase, duration: float) -> None:
        self.phase = phase
        self.phase_started_at = self.now
        self._record("breath_phase", phase.value)
        self.after(duration, self._next_phase)

    def _broadcast(self) -> None:
        # The breathing-cycle state as one sample: seconds to the next
        # inhalation, valid only inside the end-expiratory (imaging) window.
        if not self.is_operational:
            return
        self.publish_reading("breath_phase", self.time_to_next_inhalation(),
                             valid=self.phase is BreathPhase.END_EXPIRATORY_PAUSE)

    # ------------------------------------------------------------ physiology
    def air_flow_lpm(self) -> float:
        """Current air flow in litres per minute (signed; ~0 during the pause)."""
        if self.phase in (BreathPhase.END_EXPIRATORY_PAUSE, BreathPhase.HELD):
            return 0.0
        volume_l = self.settings.tidal_volume_ml / 1000.0
        if self.phase == BreathPhase.INHALE:
            return volume_l / (self.settings.inhale_duration_s / 60.0)
        return -volume_l / (self.settings.exhale_duration_s / 60.0)

    def in_imaging_window(self) -> bool:
        """True when flow is near zero and an X-ray would not be blurred."""
        return self.phase in (BreathPhase.END_EXPIRATORY_PAUSE, BreathPhase.HELD)

    def time_to_next_inhalation(self) -> float:
        """Seconds until the next inhalation starts (infinity while held)."""
        if self.phase == BreathPhase.HELD:
            return float("inf")
        elapsed = self.now - self.phase_started_at
        if self.phase == BreathPhase.INHALE:
            remaining = (
                (self.settings.inhale_duration_s - elapsed)
                + self.settings.exhale_duration_s
                + self.settings.pause_duration_s
            )
        elif self.phase == BreathPhase.EXHALE:
            remaining = (self.settings.exhale_duration_s - elapsed) + self.settings.pause_duration_s
        else:
            remaining = self.settings.pause_duration_s - elapsed
        return max(0.0, remaining)

    def remaining_imaging_window_s(self) -> float:
        """Seconds of zero-flow window left (0 if not currently in the window)."""
        if self.phase == BreathPhase.HELD:
            return float("inf")
        if self.phase != BreathPhase.END_EXPIRATORY_PAUSE:
            return 0.0
        return max(0.0, self.settings.pause_duration_s - (self.now - self.phase_started_at))

    # ----------------------------------------------------------- hold / resume
    def hold(self) -> bool:
        """Pause ventilation (external hold).  Returns True if now held."""
        if not self.is_operational:
            return False
        if self.phase == BreathPhase.HELD:
            return True
        self.phase = BreathPhase.HELD
        self.phase_started_at = self.now
        self.held_since = self.now
        self.hold_history.append((self.now, None))
        self.transition(DeviceState.PAUSED)
        self._log_event("held", True)
        return True

    def resume(self) -> bool:
        """Resume ventilation after a hold."""
        if self.crashed:
            return False
        if self.phase != BreathPhase.HELD:
            return True
        self.transition(DeviceState.RUNNING)
        if self.hold_history and self.hold_history[-1][1] is None:
            start, _ = self.hold_history[-1]
            self.hold_history[-1] = (start, self.now)
        self.held_since = None
        self._log_event("held", False)
        self._enter_phase(BreathPhase.INHALE, self.settings.inhale_duration_s)
        return True

    def apnea_duration(self) -> float:
        """How long the patient has currently been without ventilation."""
        if self.held_since is None:
            return 0.0
        return self.now - self.held_since

    def apnea_exceeded(self) -> bool:
        return self.apnea_duration() > self.settings.max_safe_apnea_s

    # --------------------------------------------------------------- commands
    def _command_pause(self, _parameters: Dict[str, Any]) -> bool:
        return self.hold()

    def _command_resume(self, _parameters: Dict[str, Any]) -> bool:
        return self.resume()
