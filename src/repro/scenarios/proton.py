"""Proton-therapy beam scheduling scenario (Section II(a) of the paper).

Several treatment rooms share one cyclotron beam.  Each room requests dose
fractions; per-room imaging occasionally detects patient motion, which must
cut the beam for that room promptly; a facility-wide emergency shutdown can
also be triggered.  The experiment measures throughput (completed fractions,
beam utilisation, waiting times), the interference between scheduling and
application (aborted fractions caused by motion during delivery), and the
latency of the two safety paths.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.campaign.registry import campaign_scenario
from repro.devices.proton import ProtonTherapySystem, TreatmentRoom
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder


@dataclass
class ProtonSchedulingConfig:
    rooms: int = 3
    fractions_per_room: int = 4
    fraction_spots: int = 60
    spot_duration_s: float = 0.4
    request_period_s: float = 400.0
    switch_time_s: float = 20.0
    motion_events_per_room: int = 1
    emergency_shutdown_time_s: Optional[float] = None
    duration_s: float = 2.0 * 3600.0
    seed: int = 0

    def validate(self) -> None:
        if self.rooms <= 0:
            raise ValueError("rooms must be positive")
        if self.fractions_per_room < 0 or self.motion_events_per_room < 0:
            raise ValueError("event counts must be non-negative")
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValueError(f"duration_s must be finite and positive, got {self.duration_s!r}")


@dataclass
class ProtonSchedulingResult:
    rooms: int
    fractions_requested: int
    fractions_completed: int
    fractions_aborted: int
    beam_utilisation: float
    mean_waiting_time_s: float
    max_waiting_time_s: float
    motion_events: int
    beam_switches: int
    emergency_shutdown_triggered: bool

    @property
    def completion_rate(self) -> float:
        if self.fractions_requested == 0:
            return 1.0
        return self.fractions_completed / self.fractions_requested


class ProtonSchedulingScenario:
    """Builds and runs the multi-room proton therapy scheduling scenario."""

    def __init__(self, config: Optional[ProtonSchedulingConfig] = None) -> None:
        self.config = config or ProtonSchedulingConfig()
        self.config.validate()
        self.trace = TraceRecorder()
        self.simulator = Simulator()
        self._rng = np.random.default_rng(self.config.seed)
        self.system = ProtonTherapySystem(
            "proton-1", switch_time_s=self.config.switch_time_s, trace=self.trace
        )
        self.simulator.register(self.system)
        self.rooms: List[TreatmentRoom] = []
        for index in range(self.config.rooms):
            motion_times = sorted(
                float(self._rng.uniform(0.1, 0.9) * self.config.duration_s)
                for _ in range(self.config.motion_events_per_room)
            )
            room = TreatmentRoom(
                f"room-{index}",
                fraction_spots=self.config.fraction_spots,
                spot_duration_s=self.config.spot_duration_s,
                request_period_s=self.config.request_period_s,
                fractions=self.config.fractions_per_room,
                motion_times=motion_times,
                priority=0,
            )
            self.system.attach_room(room)
            self.simulator.register(room)
            self.rooms.append(room)
        if self.config.emergency_shutdown_time_s is not None:
            self.simulator.schedule_at(
                self.config.emergency_shutdown_time_s,
                self.system.emergency_shutdown,
                name="emergency_shutdown",
            )

    def run(self) -> ProtonSchedulingResult:
        self.simulator.run(until=self.config.duration_s)
        all_requests = [request for room in self.rooms for request in room.requests]
        waits = [request.waiting_time_s for request in all_requests if request.waiting_time_s is not None]
        return ProtonSchedulingResult(
            rooms=self.config.rooms,
            fractions_requested=len(all_requests),
            fractions_completed=self.system.completed_fractions,
            fractions_aborted=self.system.aborted_fractions,
            beam_utilisation=self.system.utilisation(self.config.duration_s),
            mean_waiting_time_s=float(np.mean(waits)) if waits else 0.0,
            max_waiting_time_s=float(np.max(waits)) if waits else 0.0,
            motion_events=len(self.system.motion_cutoffs),
            beam_switches=self.system.switch_count,
            emergency_shutdown_triggered=self.system.shutdown,
        )


# --------------------------------------------------------------- campaigns
@campaign_scenario(
    "proton",
    defaults={
        "rooms": 3,
        "fractions_per_room": 4,
        "fraction_spots": 60,
        "spot_duration_s": 0.4,
        "request_period_s": 400.0,
        "switch_time_s": 20.0,
        "motion_events_per_room": 1,
        "emergency_shutdown_time_s": None,
        "duration_s": 2.0 * 3600.0,
    },
    result_fields=(
        "rooms", "fractions_requested", "fractions_completed", "completion_rate",
        "beam_utilisation", "mean_waiting_time_s", "motion_events",
    ),
    description="Multi-room proton beam scheduling throughput (experiment E8 at scale)",
)
def run_proton_campaign(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Campaign runner: one proton-therapy facility session."""
    config = ProtonSchedulingConfig(
        rooms=params["rooms"],
        fractions_per_room=params["fractions_per_room"],
        fraction_spots=params["fraction_spots"],
        spot_duration_s=params["spot_duration_s"],
        request_period_s=params["request_period_s"],
        switch_time_s=params["switch_time_s"],
        motion_events_per_room=params["motion_events_per_room"],
        emergency_shutdown_time_s=params["emergency_shutdown_time_s"],
        duration_s=params["duration_s"],
        seed=seed,
    )
    result = ProtonSchedulingScenario(config).run()
    record = asdict(result)
    record["completion_rate"] = result.completion_rate
    return record
