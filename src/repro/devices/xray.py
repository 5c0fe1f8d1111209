"""Portable X-ray machine for the ventilator-synchronisation case study.

Two coordination modes from Section II(b) of the paper are implemented:

* ``pause_restart``: the X-ray machine commands the ventilator to pause,
  takes the exposure, and commands a resume.  If the resume command is lost
  (or the operator forgets, in the manual variant), the patient is left
  apnoeic -- the fatal hazard reported in Lofsky [15].
* ``state_broadcast``: the X-ray machine listens to the ventilator's
  breathing-cycle state broadcasts and fires only when the remaining
  end-expiratory window, minus transmission delay, exceeds the exposure
  time.  The ventilator is never paused, so the hazard disappears, at the
  cost of tighter timing (images may be skipped if the window is too short).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Optional

from repro.devices.base import DeviceDescriptor, DeviceState, MedicalDevice
from repro.devices.ventilator import Ventilator
from repro.readings import Reading
from repro.sim.trace import TraceRecorder

COORDINATION_MODES = ("manual", "pause_restart", "state_broadcast")


@dataclass
class XRayConfig:
    """Exposure timing and coordination parameters.

    exposure_time_s:
        Shutter-open duration; the chest must be still for this long.
    preparation_time_s:
        Time between the decision to shoot and the shutter opening.
    coordination_mode:
        One of :data:`COORDINATION_MODES`.
    assumed_transmission_delay_s:
        The delay margin the state-broadcast decision logic subtracts from
        the reported window (the "taking transmission delays into account"
        of the paper).
    """

    exposure_time_s: float = 0.3
    preparation_time_s: float = 0.4
    coordination_mode: str = "state_broadcast"
    assumed_transmission_delay_s: float = 0.2

    def validate(self) -> None:
        if self.exposure_time_s <= 0:
            raise ValueError("exposure_time_s must be positive")
        if self.preparation_time_s < 0:
            raise ValueError("preparation_time_s must be non-negative")
        if self.coordination_mode not in COORDINATION_MODES:
            raise ValueError(
                f"coordination_mode must be one of {COORDINATION_MODES}, got {self.coordination_mode!r}"
            )
        if self.assumed_transmission_delay_s < 0:
            raise ValueError("assumed_transmission_delay_s must be non-negative")


@dataclass
class XRayImage:
    """Record of one exposure attempt."""

    requested_at: float
    taken_at: Optional[float]
    blurred: bool
    mode: str


class XRayMachine(MedicalDevice):
    """Portable X-ray machine coordinating with a ventilator."""

    def __init__(
        self,
        device_id: str,
        config: Optional[XRayConfig] = None,
        *,
        ventilator: Optional[Ventilator] = None,
        send_ventilator_command: Optional[Callable[[str], bool]] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        descriptor = DeviceDescriptor(
            device_id=device_id,
            device_type="xray_machine",
            risk_class="II",
            published_topics=("image_taken", "exposure_status"),
            accepted_commands=("take_image",),
            capabilities=("imaging", "ventilator_sync"),
        )
        super().__init__(descriptor, trace=trace)
        self.config = config or XRayConfig()
        self.config.validate()
        self.ventilator = ventilator
        self._send_ventilator_command = send_ventilator_command
        self.images: List[XRayImage] = []
        self.skipped_windows = 0
        self.pending_request = False
        self._latest_vent_state: Optional[Reading] = None
        self._latest_vent_state_received_at: Optional[float] = None
        self._declare_events("image_requested", "image_taken",
                             "pause_failed", "resume_failed")
        self.register_command("take_image", lambda params: self.request_image())

    # ------------------------------------------------------------- lifecycle
    def start(self) -> None:
        self.transition(DeviceState.RUNNING)

    # --------------------------------------------------- ventilator listening
    def on_ventilator_state(self, reading: Reading) -> None:
        """Middleware callback delivering a ventilator ``breath_phase`` sample."""
        self._latest_vent_state = reading
        self._latest_vent_state_received_at = self.now
        if self.pending_request and self.config.coordination_mode == "state_broadcast":
            self._try_state_broadcast_shot()

    # ----------------------------------------------------------- image requests
    def request_image(self) -> bool:
        """Clinician requests a chest X-ray.  Returns True if the workflow started."""
        if not self.is_operational:
            return False
        self.pending_request = True
        self._log_event("image_requested", self.config.coordination_mode)
        if self.config.coordination_mode == "manual":
            self._shoot_now(mode="manual")
            return True
        if self.config.coordination_mode == "pause_restart":
            return self._start_pause_restart()
        self._try_state_broadcast_shot()
        return True

    # ------------------------------------------------------------ manual mode
    def _shoot_now(self, mode: str) -> None:
        requested_at = self.now
        self.after(self.config.preparation_time_s, lambda: self._expose(requested_at, mode))

    def _expose(self, requested_at: float, mode: str) -> None:
        blurred = True
        if self.ventilator is not None:
            window = self.ventilator.remaining_imaging_window_s()
            blurred = not (
                self.ventilator.in_imaging_window() and window >= self.config.exposure_time_s
            )
        image = XRayImage(requested_at=requested_at, taken_at=self.now, blurred=blurred, mode=mode)
        self.images.append(image)
        self.pending_request = False
        self.publish_reading("image_taken", 0.0 if blurred else 1.0)  # 1.0: sharp
        self._log_event("image_taken", {"blurred": blurred, "mode": mode})

    # ----------------------------------------------------- pause/restart mode
    def _start_pause_restart(self) -> bool:
        paused = self._command_ventilator("pause")
        if not paused:
            self.pending_request = False
            self._log_event("pause_failed", True)
            return False
        # Wait for flow to settle, expose, then try to resume.
        settle = self.config.preparation_time_s + 0.5
        self.after(settle, self._pause_restart_expose)
        return True

    def _pause_restart_expose(self) -> None:
        requested_at = self.now
        self._expose(requested_at, mode="pause_restart")
        resumed = self._command_ventilator("resume")
        if not resumed:
            self._log_event("resume_failed", True)

    def _command_ventilator(self, command: str) -> bool:
        if self._send_ventilator_command is not None:
            return bool(self._send_ventilator_command(command))
        if self.ventilator is not None:
            if command == "pause":
                return self.ventilator.hold()
            if command == "resume":
                return self.ventilator.resume()
        return False

    # --------------------------------------------------- state-broadcast mode
    def _try_state_broadcast_shot(self) -> None:
        """Decide whether the current reported window is long enough to shoot."""
        if not self.pending_request or self._latest_vent_state is None:
            return
        reading = self._latest_vent_state
        if not reading.valid:  # not in the end-expiratory pause
            return
        # Age of the information plus the assumed transmission margin.
        staleness = 0.0
        if self._latest_vent_state_received_at is not None:
            staleness = max(0.0, self._latest_vent_state_received_at - reading.time)
        usable_window = (
            reading.value
            - staleness
            - self.config.assumed_transmission_delay_s
            - self.config.preparation_time_s
        )
        if usable_window >= self.config.exposure_time_s:
            # Clear the request immediately so further state broadcasts that
            # arrive while the exposure is being prepared do not trigger
            # duplicate shots for the same clinical request.
            self.pending_request = False
            self._shoot_now(mode="state_broadcast")
        else:
            self.skipped_windows += 1

    # --------------------------------------------------------------- metrics
    @property
    def successful_images(self) -> int:
        return sum(1 for image in self.images if not image.blurred)

    @property
    def blurred_images(self) -> int:
        return sum(1 for image in self.images if image.blurred)
