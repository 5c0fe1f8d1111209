"""X-ray / ventilator synchronisation scenario (Section II(b) of the paper).

A sequence of intra-operative chest X-rays is requested while the patient is
ventilated.  Three coordination modes are compared:

* ``manual`` -- the clinician pauses the ventilator by hand, shoots, and is
  supposed to restart it; with probability ``forget_restart_probability``
  the restart is forgotten (the fatal failure of Lofsky [15]).  Images may
  also be blurred if the exposure is not aligned with a zero-flow window.
* ``pause_restart`` -- the X-ray machine pauses/resumes the ventilator over
  the network; a lost resume command leaves the patient apnoeic until a
  watchdog (if enabled) or a caregiver notices.
* ``state_broadcast`` -- the ventilator broadcasts its breathing phase and
  the X-ray machine shoots inside the end-expiratory window; the ventilator
  is never paused, removing the apnoea hazard entirely at the cost of
  possibly skipping windows (retries) when timing is too tight.

The result captures image quality, apnoea exposure, and hazard counts for
experiment E3.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.campaign.registry import campaign_scenario
from repro.devices.ventilator import Ventilator, VentilatorSettings
from repro.devices.xray import XRayConfig, XRayMachine
from repro.sim.channel import Channel, ChannelConfig
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder


@dataclass
class XRayVentilatorConfig:
    """Workload and coordination parameters."""

    mode: str = "state_broadcast"
    image_requests: int = 10
    request_period_s: float = 300.0
    ventilator: VentilatorSettings = field(default_factory=VentilatorSettings)
    xray: XRayConfig = field(default_factory=XRayConfig)
    command_loss_probability: float = 0.0
    network_latency_s: float = 0.05
    forget_restart_probability: float = 0.05
    apnea_watchdog_enabled: bool = False
    apnea_watchdog_timeout_s: float = 60.0
    seed: int = 0

    def validate(self) -> None:
        if self.mode not in ("manual", "pause_restart", "state_broadcast"):
            raise ValueError(f"unknown coordination mode {self.mode!r}")
        if self.image_requests < 0:
            raise ValueError("image_requests must be non-negative")
        # A NaN compares false with everything, so `value <= 0` lets it
        # through: a NaN watchdog timeout never fires, and a NaN request
        # period fails only when the kernel schedules it.
        for name in ("request_period_s", "apnea_watchdog_timeout_s"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and positive, got {value!r}")
        if not 0 <= self.command_loss_probability <= 1:
            raise ValueError("command_loss_probability must be in [0, 1]")
        if not 0 <= self.forget_restart_probability <= 1:
            raise ValueError("forget_restart_probability must be in [0, 1]")
        if self.network_latency_s < 0:
            raise ValueError("network_latency_s must be non-negative")


@dataclass
class XRayVentilatorResult:
    """Metrics of one X-ray/ventilator run."""

    mode: str
    images_requested: int
    images_taken: int
    sharp_images: int
    blurred_images: int
    skipped_windows: int
    apnea_episodes: int
    total_apnea_time_s: float
    max_apnea_time_s: float
    unsafe_apnea_events: int
    ventilator_left_paused: bool

    @property
    def image_success_rate(self) -> float:
        if self.images_requested == 0:
            return 1.0
        return self.sharp_images / self.images_requested


class XRayVentilatorScenario:
    """Builds and runs the X-ray/ventilator synchronisation scenario."""

    def __init__(self, config: Optional[XRayVentilatorConfig] = None) -> None:
        self.config = config or XRayVentilatorConfig()
        self.config.validate()
        self.trace = TraceRecorder()
        self.simulator = Simulator()
        self._rng = np.random.default_rng(self.config.seed)
        self._apnea_intervals: List[List[float]] = []  # [start, end or None]

        xray_config = XRayConfig(
            exposure_time_s=self.config.xray.exposure_time_s,
            preparation_time_s=self.config.xray.preparation_time_s,
            coordination_mode=self.config.mode,
            assumed_transmission_delay_s=max(
                self.config.xray.assumed_transmission_delay_s, self.config.network_latency_s
            ),
        )
        self.ventilator = Ventilator(
            "ventilator-1",
            self.config.ventilator,
            broadcast_state=(self.config.mode == "state_broadcast"),
            trace=self.trace,
        )
        self.command_channel = Channel(
            self.simulator,
            name="xray-to-ventilator",
            config=ChannelConfig(
                latency_s=self.config.network_latency_s,
                loss_probability=self.config.command_loss_probability,
            ),
            rng=self._rng,
        )
        self.command_channel.subscribe(self._deliver_ventilator_command)
        self.xray = XRayMachine(
            "xray-1",
            xray_config,
            ventilator=self.ventilator,
            send_ventilator_command=self._send_ventilator_command,
            trace=self.trace,
        )
        self.simulator.register(self.ventilator)
        self.simulator.register(self.xray)
        self._wire_state_broadcast()
        self._schedule_requests()
        if self.config.apnea_watchdog_enabled:
            self.simulator.call_every(5.0, self._watchdog, name="apnea_watchdog")

    # ------------------------------------------------------------- plumbing
    def _wire_state_broadcast(self) -> None:
        if self.config.mode != "state_broadcast":
            return
        broadcast_channel = Channel(
            self.simulator,
            name="ventilator-broadcast",
            config=ChannelConfig(latency_s=self.config.network_latency_s),
            rng=self._rng,
        )
        self.broadcast_channel = broadcast_channel

        def publish_via_channel(topic: str, payload) -> None:
            if topic == "breath_phase":
                broadcast_channel.send("ventilator-1", topic, payload)

        self.ventilator.attach_publisher(publish_via_channel)
        broadcast_channel.subscribe(lambda message: self.xray.on_ventilator_state(message.payload),
                                    topic="breath_phase")

    def _send_ventilator_command(self, command: str) -> bool:
        """Network path for pause/resume commands in pause_restart mode."""
        if self.config.mode == "manual":
            # The clinician acts directly at the ventilator.
            if command == "pause":
                return self.ventilator.hold()
            if command == "resume":
                if self._rng.random() < self.config.forget_restart_probability:
                    return False  # forgot to restart
                return self.ventilator.resume()
            return False
        self.command_channel.send("xray-1", command, {})
        return True

    def _deliver_ventilator_command(self, message) -> None:
        if message.topic == "pause":
            self.ventilator.hold()
        elif message.topic == "resume":
            self.ventilator.resume()

    def _schedule_requests(self) -> None:
        for index in range(self.config.image_requests):
            request_time = (index + 1) * self.config.request_period_s
            if self.config.mode == "manual":
                self.simulator.schedule(request_time, self._manual_image_workflow,
                                        name=f"image_request_{index}")
            else:
                self.simulator.schedule(request_time, self.xray.request_image,
                                        name=f"image_request_{index}")

    def _manual_image_workflow(self) -> None:
        """The uncoordinated clinical workflow of Lofsky [15].

        The clinician pauses the ventilator by hand, takes the exposure, and
        is supposed to restart it afterwards; with probability
        ``forget_restart_probability`` the restart never happens.
        """
        self.ventilator.hold()
        self.simulator.schedule(2.0, self.xray.request_image, name="manual_exposure")

        def maybe_resume() -> None:
            if self._rng.random() >= self.config.forget_restart_probability:
                self.ventilator.resume()
            else:
                self.trace.event(self.simulator.now, "restart_forgotten", source="clinician")

        self.simulator.schedule(6.0, maybe_resume, name="manual_resume")

    # ------------------------------------------------------------- watchdogs
    def _watchdog(self) -> None:
        if self.ventilator.apnea_duration() > self.config.apnea_watchdog_timeout_s:
            self.ventilator.resume()
            self.trace.event(self.simulator.now, "watchdog_resume", source="watchdog")

    # ------------------------------------------------------------------- run
    def run(self, duration_s: Optional[float] = None) -> XRayVentilatorResult:
        duration = duration_s or (self.config.image_requests + 2) * self.config.request_period_s
        self.simulator.run(until=duration)
        # Apnea intervals come straight from the ventilator's hold history;
        # an un-resumed hold is open until the end of the run.
        apnea_durations = [
            (end if end is not None else self.simulator.now) - start
            for start, end in self.ventilator.hold_history
        ]
        max_safe = self.config.ventilator.max_safe_apnea_s
        return XRayVentilatorResult(
            mode=self.config.mode,
            images_requested=self.config.image_requests,
            images_taken=len(self.xray.images),
            sharp_images=self.xray.successful_images,
            blurred_images=self.xray.blurred_images,
            skipped_windows=self.xray.skipped_windows,
            apnea_episodes=len(apnea_durations),
            total_apnea_time_s=float(sum(apnea_durations)),
            max_apnea_time_s=float(max(apnea_durations)) if apnea_durations else 0.0,
            unsafe_apnea_events=sum(1 for duration in apnea_durations if duration > max_safe),
            ventilator_left_paused=self.ventilator.phase.value == "held",
        )


# --------------------------------------------------------------- campaigns
@campaign_scenario(
    "xray_vent",
    defaults={
        "mode": "state_broadcast",
        "image_requests": 10,
        "request_period_s": 300.0,
        "command_loss_probability": 0.0,
        "network_latency_s": 0.05,
        "forget_restart_probability": 0.05,
        "apnea_watchdog_enabled": False,
        "apnea_watchdog_timeout_s": 60.0,
    },
    result_fields=(
        "mode", "images_requested", "sharp_images", "image_success_rate",
        "apnea_episodes", "total_apnea_time_s", "unsafe_apnea_events",
    ),
    description="X-ray / ventilator coordination-mode comparison (experiment E3 at scale)",
)
def run_xray_vent_campaign(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Campaign runner: one X-ray/ventilator synchronisation session."""
    config = XRayVentilatorConfig(
        mode=params["mode"],
        image_requests=params["image_requests"],
        request_period_s=params["request_period_s"],
        command_loss_probability=params["command_loss_probability"],
        network_latency_s=params["network_latency_s"],
        forget_restart_probability=params["forget_restart_probability"],
        apnea_watchdog_enabled=params["apnea_watchdog_enabled"],
        apnea_watchdog_timeout_s=params["apnea_watchdog_timeout_s"],
        seed=seed,
    )
    result = XRayVentilatorScenario(config).run()
    record = asdict(result)
    record["image_success_rate"] = result.image_success_rate
    return record
