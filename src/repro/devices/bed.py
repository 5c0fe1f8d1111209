"""Hospital bed: the Class I device of the mixed-criticality scenario.

Raising or lowering the bed changes the height of the patient relative to the
arterial-line transducer, shifting the measured MAP without any physiological
change (Section III(l) of the paper).  When connected to the middleware the
bed publishes ``bed_height`` context events that a context-aware alarm system
can correlate with MAP steps to suppress false alarms.
"""

from __future__ import annotations

from typing import Optional

from repro.devices.base import DeviceDescriptor, DeviceState, MedicalDevice
from repro.patient.model import PatientModel
from repro.sim.trace import TraceRecorder


class HospitalBed(MedicalDevice):
    """Adjustable-height hospital bed (FDA Class I)."""

    def __init__(
        self,
        device_id: str,
        patient: PatientModel,
        *,
        publish_context_events: bool = True,
        motion_duration_s: float = 10.0,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        descriptor = DeviceDescriptor(
            device_id=device_id,
            device_type="hospital_bed",
            risk_class="I",
            published_topics=("bed_height",),
            accepted_commands=("set_height",),
            capabilities=("bed_positioning", "context_events"),
        )
        super().__init__(descriptor, trace=trace)
        if motion_duration_s < 0:
            raise ValueError("motion_duration_s must be non-negative")
        self.patient = patient
        self.publish_context_events = publish_context_events
        self.motion_duration_s = motion_duration_s
        self.height_cm = 0.0
        self.moves = 0
        self._declare_signals("height_cm")
        self._declare_events("bed_move")
        self.register_command("set_height", self._command_set_height)

    def start(self) -> None:
        self.transition(DeviceState.RUNNING)

    def set_height(self, height_cm: float) -> None:
        """Move the bed (head height offset from calibration, in cm)."""
        if not self.is_operational:
            return
        self.moves += 1
        previous = self.height_cm
        self.height_cm = float(height_cm)
        self._log_event("bed_move", {"from_cm": previous, "to_cm": self.height_cm})
        # The patient/transducer offset changes when the motion completes.
        self.after(self.motion_duration_s, self._finish_move)

    def _finish_move(self) -> None:
        self.patient.map_model.set_bed_height_offset(self.height_cm)
        if self.publish_context_events:
            self.publish_reading("bed_height", self.height_cm)
        self._record("height_cm", self.height_cm)

    def _command_set_height(self, parameters) -> bool:
        height = parameters.get("height_cm")
        if height is None:
            self.rejected_commands.append(("set_height", "missing height_cm"))
            return False
        self.set_height(float(height))
        return True
