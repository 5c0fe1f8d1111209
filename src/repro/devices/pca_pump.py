"""Patient-controlled analgesia (PCA) infusion pump.

Models the pump of Figure 1 and the safety mechanisms discussed in
Section II(c) of the paper:

* programmable prescription (bolus dose, lockout interval, hourly limit,
  basal rate) -- the *programmable limits* that the paper notes are "not
  sufficient to protect all patients";
* a patient demand button, plus a proxy-request hook so fault injection can
  model *PCA-by-proxy*;
* a misprogramming hook (wrong concentration / rate multiplier), the leading
  cause of PCA adverse events per references [18] and [23] of the paper;
* a remote ``stop``/``resume`` command interface used by the closed-loop
  supervisor, with a configurable command-processing delay (the "pump stop
  delay" term in Figure 1's delay budget).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Any, Dict, List, Optional, Tuple

from repro.devices.base import DeviceDescriptor, DeviceState, MedicalDevice
from repro.patient.model import PatientModel
from repro.sim.trace import TraceRecorder

SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0


@dataclass(frozen=True)
class PCAPrescription:
    """A PCA prescription as programmed into the pump.

    bolus_dose_mg:
        Drug delivered per successful button press.
    lockout_interval_s:
        Minimum time between delivered boluses.
    hourly_limit_mg:
        Maximum drug the pump will deliver in any rolling hour.
    basal_rate_mg_per_hr:
        Continuous background infusion (0 for demand-only PCA).
    concentration_mg_per_ml:
        Drug concentration loaded in the syringe; a wrong-concentration
        loading error scales delivered doses without changing the programme.
    """

    bolus_dose_mg: float = 1.0
    lockout_interval_s: float = 360.0
    hourly_limit_mg: float = 10.0
    basal_rate_mg_per_hr: float = 0.0
    concentration_mg_per_ml: float = 1.0

    def validate(self) -> None:
        for name in ("bolus_dose_mg", "lockout_interval_s", "hourly_limit_mg",
                     "basal_rate_mg_per_hr", "concentration_mg_per_ml"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.bolus_dose_mg < 0:
            raise ValueError("bolus_dose_mg must be non-negative")
        if self.lockout_interval_s < 0:
            raise ValueError("lockout_interval_s must be non-negative")
        if self.hourly_limit_mg <= 0:
            raise ValueError("hourly_limit_mg must be positive")
        if self.basal_rate_mg_per_hr < 0:
            raise ValueError("basal_rate_mg_per_hr must be non-negative")
        if self.concentration_mg_per_ml <= 0:
            raise ValueError("concentration_mg_per_ml must be positive")


class PCAPump(MedicalDevice):
    """Simulated PCA pump attached to a :class:`~repro.patient.model.PatientModel`."""

    def __init__(
        self,
        device_id: str,
        patient: PatientModel,
        prescription: Optional[PCAPrescription] = None,
        *,
        command_delay_s: float = 1.0,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        descriptor = DeviceDescriptor(
            device_id=device_id,
            device_type="pca_pump",
            risk_class="II",
            published_topics=("pump_status", "dose_delivered"),
            accepted_commands=("stop", "resume", "set_prescription"),
            capabilities=("infusion", "bolus", "remote_stop"),
        )
        super().__init__(descriptor, trace=trace)
        prescription = prescription or PCAPrescription()
        prescription.validate()
        if not (math.isfinite(command_delay_s) and command_delay_s >= 0):
            raise ValueError(f"command_delay_s must be finite and non-negative, got {command_delay_s!r}")
        self.patient = patient
        self.prescription = prescription
        self.programmed_prescription = prescription
        self.command_delay_s = command_delay_s
        self.stopped_by_supervisor = False
        self.delivered_boluses: List[Tuple[float, float]] = []
        self.denied_requests: List[Tuple[float, str]] = []
        self.proxy_requests = 0
        self._last_bolus_time: Optional[float] = None
        self._concentration_error = 1.0
        self._declare_signals("stopped")
        self._declare_events("bolus_delivered", "stopped_by_supervisor",
                             "resumed_by_supervisor", "misprogrammed")
        self.register_command("stop", self._command_stop)
        self.register_command("resume", self._command_resume)
        self.register_command("set_prescription", self._command_set_prescription)

    # --------------------------------------------------------------- process
    def start(self) -> None:
        self.transition(DeviceState.RUNNING)
        self._apply_basal_rate()
        self.sample_every(10.0, self._publish_status)

    def _publish_status(self) -> None:
        if not self.is_operational:
            return
        # The actuation state: 1.0 while stopped by the supervisor, else 0.0.
        self.publish_reading("pump_status", 1.0 if self.stopped_by_supervisor else 0.0,
                             record="stopped")

    # --------------------------------------------------------------- dosing
    @property
    def effective_prescription(self) -> PCAPrescription:
        """The prescription as the pump will actually execute it.

        Misprogramming and wrong-concentration loading are reflected here,
        while :attr:`programmed_prescription` keeps what the clinician
        intended -- the gap between the two is what the supervisor has to
        catch.
        """
        rx = self.prescription
        if self._concentration_error != 1.0:
            rx = replace(
                rx,
                bolus_dose_mg=rx.bolus_dose_mg * self._concentration_error,
                basal_rate_mg_per_hr=rx.basal_rate_mg_per_hr * self._concentration_error,
            )
        return rx

    def request_bolus(self, by_proxy: bool = False) -> bool:
        """Patient (or proxy) presses the demand button; returns True if delivered."""
        now = self.now
        if by_proxy:
            self.proxy_requests += 1
        if not self.is_operational or self.state != DeviceState.RUNNING:
            self.denied_requests.append((now, "pump not running"))
            return False
        if self.stopped_by_supervisor:
            self.denied_requests.append((now, "stopped by supervisor"))
            return False
        rx = self.effective_prescription
        if self._last_bolus_time is not None and now - self._last_bolus_time < rx.lockout_interval_s:
            self.denied_requests.append((now, "lockout"))
            return False
        if self.delivered_in_window(SECONDS_PER_HOUR) + rx.bolus_dose_mg > self.prescription.hourly_limit_mg:
            # The hourly limit check uses the *programmed* limit: the pump
            # enforces what it was told, even if the effective dose per bolus
            # is wrong, which is exactly how misprogramming defeats it.
            self.denied_requests.append((now, "hourly limit"))
            return False
        self._deliver_bolus(rx.bolus_dose_mg)
        return True

    def proxy_request(self, count: int = 1, **_ignored: Any) -> int:
        """Fault-injection hook: someone other than the patient presses the button."""
        delivered = 0
        for _ in range(int(count)):
            if self.request_bolus(by_proxy=True):
                delivered += 1
        return delivered

    def _deliver_bolus(self, dose_mg: float) -> None:
        now = self.now
        self._last_bolus_time = now
        self.delivered_boluses.append((now, dose_mg))
        self.patient.infuse_bolus(dose_mg)
        self._log_event("bolus_delivered", dose_mg)
        self.publish_reading("dose_delivered", dose_mg)

    def delivered_in_window(self, window_s: float) -> float:
        """Total bolus drug delivered in the trailing ``window_s`` seconds."""
        cutoff = self.now - window_s
        return sum(dose for time, dose in self.delivered_boluses if time >= cutoff)

    @property
    def total_delivered_mg(self) -> float:
        return sum(dose for _, dose in self.delivered_boluses)

    def _apply_basal_rate(self) -> None:
        rate = 0.0
        if self.state == DeviceState.RUNNING and not self.stopped_by_supervisor and not self.crashed:
            rate = self.effective_prescription.basal_rate_mg_per_hr / 60.0
        self.patient.set_infusion_rate(rate)

    # ----------------------------------------------------------- fault hooks
    def reprogram(self, rate_multiplier: float = 1.0, concentration_multiplier: float = 1.0,
                  hourly_limit_mg: Optional[float] = None, **_ignored: Any) -> None:
        """Fault-injection hook modelling misprogramming / wrong drug loading."""
        if rate_multiplier <= 0 or concentration_multiplier <= 0:
            raise ValueError("multipliers must be positive")
        new_limit = self.prescription.hourly_limit_mg if hourly_limit_mg is None else hourly_limit_mg
        self.prescription = replace(
            self.prescription,
            bolus_dose_mg=self.prescription.bolus_dose_mg * rate_multiplier,
            basal_rate_mg_per_hr=self.prescription.basal_rate_mg_per_hr * rate_multiplier,
            hourly_limit_mg=new_limit,
        )
        self._concentration_error *= concentration_multiplier
        self._log_event("misprogrammed", {
            "rate_multiplier": rate_multiplier,
            "concentration_multiplier": concentration_multiplier,
        })
        self._apply_basal_rate()

    def crash(self) -> None:
        super().crash()
        self.patient.set_infusion_rate(0.0)

    # -------------------------------------------------------------- commands
    def _command_stop(self, _parameters: Dict[str, Any]) -> bool:
        """Supervisor stop command, applied after the pump's processing delay."""
        self.after(self.command_delay_s, self._do_stop)
        return True

    def _do_stop(self) -> None:
        if self.crashed:
            return
        self.stopped_by_supervisor = True
        self.transition(DeviceState.PAUSED)
        self._apply_basal_rate()
        self._log_event("stopped_by_supervisor", True)

    def _command_resume(self, _parameters: Dict[str, Any]) -> bool:
        self.after(self.command_delay_s, self._do_resume)
        return True

    def _do_resume(self) -> None:
        if self.crashed:
            return
        self.stopped_by_supervisor = False
        self.transition(DeviceState.RUNNING)
        self._apply_basal_rate()
        self._log_event("resumed_by_supervisor", True)

    def _command_set_prescription(self, parameters: Dict[str, Any]) -> bool:
        prescription = parameters.get("prescription")
        if not isinstance(prescription, PCAPrescription):
            self.rejected_commands.append(("set_prescription", "missing prescription"))
            return False
        prescription.validate()
        self.prescription = prescription
        self.programmed_prescription = prescription
        self._apply_basal_rate()
        return True
