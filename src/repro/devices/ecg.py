"""ECG monitor: independent heart-rate source for multivariate alarms.

The paper's smart-alarm example (Section III(i)) correlates a sudden SpO2
drop with blood pressure to distinguish heart failure from a disconnected
wire.  The ECG monitor provides a heart-rate stream that is independent of
the pulse oximeter's probe, so probe-off artefacts disagree across sources
while true physiological events agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.devices.base import DeviceDescriptor, DeviceState, MedicalDevice
from repro.patient.model import PatientModel
from repro.sim.random import GaussianNoise
from repro.sim.trace import TraceRecorder


@dataclass
class ECGConfig:
    sample_period_s: float = 2.0
    heart_rate_noise_sd: float = 1.0
    lead_off_value: float = 0.0

    def validate(self) -> None:
        if self.sample_period_s <= 0:
            raise ValueError("sample_period_s must be positive")
        if self.heart_rate_noise_sd < 0:
            raise ValueError("heart_rate_noise_sd must be non-negative")


class ECGMonitor(MedicalDevice):
    """Three-lead ECG monitor publishing heart rate and lead status."""

    def __init__(
        self,
        device_id: str,
        patient: PatientModel,
        config: Optional[ECGConfig] = None,
        *,
        rng: Optional[np.random.Generator] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        descriptor = DeviceDescriptor(
            device_id=device_id,
            device_type="ecg_monitor",
            risk_class="II",
            published_topics=("ecg_heart_rate", "lead_status"),
            accepted_commands=(),
            capabilities=("heart_rate_monitoring", "arrhythmia_detection"),
        )
        super().__init__(descriptor, trace=trace)
        self.config = config or ECGConfig()
        self.config.validate()
        self.patient = patient
        self._noise = None if rng is None else GaussianNoise(rng)
        self._lead_off = False
        self.readings_published = 0
        self._declare_signals("ecg_heart_rate_reading")
        self._declare_events("lead_off")

    def start(self) -> None:
        self.transition(DeviceState.RUNNING)
        self.sample_every(self.config.sample_period_s, self._sample)

    def _sample(self) -> None:
        if not self.is_operational:
            return
        if self._lead_off:
            self.publish_reading("lead_status", 0.0)  # 0.0: detached
            self.publish_reading("ecg_heart_rate", self.config.lead_off_value, valid=False)
            return
        heart_rate = self.patient.vital_signs.heart_rate_bpm
        noise = self._noise
        if noise is not None:
            heart_rate += noise(self.config.heart_rate_noise_sd)
        heart_rate = max(0.0, heart_rate)
        self.readings_published += 1
        self.publish_reading("ecg_heart_rate", heart_rate, record="ecg_heart_rate_reading")

    # ----------------------------------------------------------- fault hooks
    def detach_lead(self) -> None:
        self._lead_off = True
        self._log_event("lead_off", True)

    def reattach_lead(self) -> None:
        self._lead_off = False
        self._log_event("lead_off", False)
