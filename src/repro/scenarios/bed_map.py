"""Mixed-criticality bed / MAP context scenario (Section III(l) of the paper).

A monitored patient's bed is raised and lowered during routine care.  Each
move shifts the arterial-line transducer relative to the heart and steps the
measured MAP without any physiological change.  A conventional threshold
alarm fires on these artefacts; a context-aware smart alarm that subscribes
to the bed's ``bed_height`` events suppresses them, while still alarming on
genuine hypotension episodes injected into the same run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.alarms.smart import ContextEvent, SmartAlarmEngine, bed_map_suppression_rules
from repro.campaign.registry import campaign_scenario
from repro.campaign.spec import patient_from_params
from repro.alarms.thresholds import AlarmSeverity, ThresholdAlarm, ThresholdRule
from repro.analysis.metrics import AlarmConfusion, classify_alarms
from repro.devices.bed import HospitalBed
from repro.devices.bp_monitor import BloodPressureMonitor, BloodPressureMonitorConfig
from repro.patient.model import PatientModel
from repro.patient.population import DEFAULT_PATIENT, PatientParameters
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder


@dataclass
class BedMapConfig:
    """Workload parameters for the bed/MAP scenario."""

    duration_s: float = 6.0 * 3600.0
    bed_moves: int = 8
    bed_move_height_cm: float = 40.0
    true_hypotension_episodes: int = 2
    hypotension_map_mmhg: float = 55.0
    hypotension_duration_s: float = 900.0
    use_context_awareness: bool = True
    map_alarm_threshold_mmhg: float = 65.0
    sample_period_s: float = 15.0
    seed: int = 0
    patient: PatientParameters = field(default_factory=lambda: DEFAULT_PATIENT)

    def validate(self) -> None:
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValueError(f"duration_s must be finite and positive, got {self.duration_s!r}")
        if self.bed_moves < 0 or self.true_hypotension_episodes < 0:
            raise ValueError("event counts must be non-negative")
        if self.hypotension_duration_s <= 0:
            raise ValueError("hypotension_duration_s must be positive")
        if not math.isfinite(self.map_alarm_threshold_mmhg):
            # A NaN threshold compares false with every MAP: no alarm, ever.
            raise ValueError(
                f"map_alarm_threshold_mmhg must be finite, got {self.map_alarm_threshold_mmhg!r}")


@dataclass
class BedMapResult:
    """Metrics reported by experiment E5."""

    context_aware: bool
    bed_moves: int
    true_episodes: int
    clinical_alarms: int
    suppressed_alarms: int
    technical_advisories: int
    confusion: AlarmConfusion

    @property
    def false_alarm_count(self) -> int:
        return self.confusion.false_positives

    @property
    def missed_episodes(self) -> int:
        return self.confusion.false_negatives


class BedMapScenario:
    """Builds and runs the mixed-criticality bed/MAP scenario."""

    def __init__(self, config: Optional[BedMapConfig] = None) -> None:
        self.config = config or BedMapConfig()
        self.config.validate()
        self.trace = TraceRecorder()
        self.simulator = Simulator()
        self._rng = np.random.default_rng(self.config.seed)
        self.patient = PatientModel(self.config.patient, trace=self.trace, rng=self._rng)
        # Septic-shock-like hypotension develops over minutes, not the default
        # slow drift, so the injected episodes actually cross the alarm limit.
        self.patient.map_model.parameters.drift_time_constant_min = 8.0
        self.simulator.register(self.patient)
        self.bed = HospitalBed("bed-1", self.patient, trace=self.trace)
        self.bp_monitor = BloodPressureMonitor(
            "bp-1", self.patient, BloodPressureMonitorConfig(sample_period_s=self.config.sample_period_s),
            trace=self.trace,
        )
        self.simulator.register(self.bed)
        self.simulator.register(self.bp_monitor)

        base_alarm = ThresholdAlarm(
            "map_alarm",
            [ThresholdRule(vital="map", threshold=self.config.map_alarm_threshold_mmhg,
                           direction="below", severity=AlarmSeverity.CRITICAL)],
            rearm_time_s=300.0,
        )
        suppression = bed_map_suppression_rules() if self.config.use_context_awareness else []
        self.alarm_engine = SmartAlarmEngine(base_alarm, suppression_rules=suppression)

        self._episode_intervals: List[Tuple[float, float]] = []
        self._schedule_events()
        self.simulator.call_every(self.config.sample_period_s, self._sample_alarms, name="alarm_sampler")

    # ------------------------------------------------------------- schedule
    def _schedule_events(self) -> None:
        config = self.config
        # Bed moves spread over the run (alternating raise / lower).
        for index in range(config.bed_moves):
            time = (index + 1) * config.duration_s / (config.bed_moves + 1)
            height = config.bed_move_height_cm if index % 2 == 0 else 0.0
            self.simulator.schedule_at(time, lambda h=height: self._move_bed(h), name=f"bed_move_{index}")

        # Genuine hypotension episodes placed in the second half of the run,
        # offset from bed moves.
        for index in range(config.true_hypotension_episodes):
            start = config.duration_s * (0.35 + 0.5 * (index + 1) / (config.true_hypotension_episodes + 1))
            end = start + config.hypotension_duration_s
            self._episode_intervals.append((start, end))
            self.simulator.schedule_at(start, lambda: self.patient.map_model.set_target_map(
                config.hypotension_map_mmhg), name=f"hypotension_start_{index}")
            self.simulator.schedule_at(end, lambda i=index: self._end_hypotension_episode(i),
                                       name=f"hypotension_end_{index}")

    def _end_hypotension_episode(self, index: int) -> None:
        # With overlapping episodes, the earlier episode's end must not reset
        # the target MAP to baseline while a later episode is still running —
        # that would silently weaken the injected ground truth the confusion
        # matrix is scored against.  Restore only once no other episode covers
        # the current time.
        now = self.simulator.now
        for other, (start, end) in enumerate(self._episode_intervals):
            if other != index and start <= now < end:
                return
        self.patient.map_model.set_target_map(self.patient.map_model.parameters.baseline_map_mmhg)

    def _move_bed(self, height_cm: float) -> None:
        self.bed.set_height(height_cm)
        if self.config.use_context_awareness:
            self.alarm_engine.observe_context(
                ContextEvent(time=self.simulator.now, kind="bed_height_change", source="bed-1",
                             data={"height_cm": height_cm})
            )

    def _sample_alarms(self) -> None:
        reading = self.patient.map_model.measured_map_mmhg
        self.alarm_engine.observe(self.simulator.now, "map", reading)

    # ------------------------------------------------------------------- run
    def run(self) -> BedMapResult:
        self.simulator.run(until=self.config.duration_s)
        # Hypotension develops with the MAP drift time constant, so give the
        # alarm classification a grace window around each episode.
        extended_episodes = [
            (start, end + 600.0) for start, end in self._episode_intervals
        ]
        confusion = classify_alarms(
            self.alarm_engine.clinical_alarm_times, extended_episodes, detection_lead_s=60.0
        )
        counts = self.alarm_engine.counts()
        return BedMapResult(
            context_aware=self.config.use_context_awareness,
            bed_moves=self.config.bed_moves,
            true_episodes=len(self._episode_intervals),
            clinical_alarms=counts["clinical"],
            suppressed_alarms=counts["suppressed"],
            technical_advisories=counts["technical"],
            confusion=confusion,
        )


# --------------------------------------------------------------- campaigns
@campaign_scenario(
    "bed_map",
    defaults={
        "duration_s": 6.0 * 3600.0,
        "bed_moves": 8,
        "bed_move_height_cm": 40.0,
        "true_hypotension_episodes": 2,
        "use_context_awareness": True,
        "map_alarm_threshold_mmhg": 65.0,
        "sample_period_s": 15.0,
    },
    result_fields=(
        "context_aware", "bed_moves", "true_episodes", "clinical_alarms",
        "suppressed_alarms", "false_alarms", "missed_episodes",
    ),
    supports_cohort=True,
    description="Context-aware bed/MAP false-alarm suppression (experiment E5 at scale)",
)
def run_bed_map_campaign(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Campaign runner: one bed/MAP monitoring shift."""
    config = BedMapConfig(
        duration_s=params["duration_s"],
        bed_moves=params["bed_moves"],
        bed_move_height_cm=params["bed_move_height_cm"],
        true_hypotension_episodes=params["true_hypotension_episodes"],
        use_context_awareness=params["use_context_awareness"],
        map_alarm_threshold_mmhg=params["map_alarm_threshold_mmhg"],
        sample_period_s=params["sample_period_s"],
        seed=seed,
        patient=patient_from_params(params),
    )
    result = BedMapScenario(config).run()
    return {
        "context_aware": result.context_aware,
        "bed_moves": result.bed_moves,
        "true_episodes": result.true_episodes,
        "clinical_alarms": result.clinical_alarms,
        "suppressed_alarms": result.suppressed_alarms,
        "technical_advisories": result.technical_advisories,
        "false_alarms": result.false_alarm_count,
        "missed_episodes": result.missed_episodes,
        "alarm_sensitivity": result.confusion.sensitivity,
        "alarm_precision": result.confusion.precision,
    }
