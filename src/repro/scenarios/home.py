"""Continuous home monitoring scenario (Section II(d) of the paper).

"Most of the current systems operate in store-and-forward mode, with no
real-time diagnostic capability.  Physiologically closed-loop technology will
allow diagnostic evaluation of vital signs in real-time and make constant
care possible."

A home-monitored patient wears a body sensor that records heart rate, SpO2,
and respiratory rate.  Deterioration episodes (e.g. the onset of respiratory
infection or heart failure decompensation) develop over tens of minutes.  Two
telemonitoring architectures are compared:

* ``store_and_forward`` -- measurements are batched and uploaded every
  ``upload_period_s``; a clinician reviews each upload after a review delay.
  Detection latency is dominated by the batching interval.
* ``real_time`` -- measurements stream continuously to a monitoring service
  that evaluates alarm rules on arrival; detection latency is dominated by
  the sampling period and network latency.

Experiment E12 sweeps the upload period and reports detection latency and
the fraction of episodes detected within a clinically useful window.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.alarms.thresholds import ThresholdAlarm, ThresholdRule, AlarmSeverity
from repro.analysis.metrics import detection_latency
from repro.campaign.registry import campaign_scenario
from repro.sim.random import GaussianNoise


@dataclass
class DeteriorationEpisode:
    """A gradual physiological deterioration starting at ``onset_s``."""

    onset_s: float
    spo2_drop: float = 8.0
    heart_rate_rise: float = 25.0
    development_time_s: float = 1800.0


@dataclass
class HomeMonitoringConfig:
    mode: str = "real_time"
    duration_s: float = 24.0 * 3600.0
    sample_period_s: float = 60.0
    upload_period_s: float = 4.0 * 3600.0
    review_delay_s: float = 1800.0
    network_latency_s: float = 2.0
    episodes: List[DeteriorationEpisode] = field(default_factory=list)
    baseline_spo2: float = 96.5
    baseline_heart_rate: float = 78.0
    spo2_noise_sd: float = 0.5
    heart_rate_noise_sd: float = 2.0
    spo2_alarm_threshold: float = 92.0
    heart_rate_alarm_threshold: float = 110.0
    seed: int = 0

    def validate(self) -> None:
        if self.mode not in ("store_and_forward", "real_time"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValueError(f"duration_s must be finite and positive, got {self.duration_s!r}")
        if self.sample_period_s <= 0:
            raise ValueError("sample_period_s must be positive")
        if self.upload_period_s <= 0 or self.review_delay_s < 0:
            raise ValueError("upload_period_s must be positive and review_delay_s non-negative")
        if self.spo2_noise_sd < 0 or self.heart_rate_noise_sd < 0:
            raise ValueError("spo2_noise_sd and heart_rate_noise_sd must be non-negative")


@dataclass
class HomeMonitoringResult:
    mode: str
    episodes: int
    detected_episodes: int
    detection_latencies_s: List[float]
    alarms_raised: int

    @property
    def mean_detection_latency_s(self) -> Optional[float]:
        if not self.detection_latencies_s:
            return None
        return float(np.mean(self.detection_latencies_s))

    def detected_within(self, window_s: float) -> int:
        return sum(1 for latency in self.detection_latencies_s if latency <= window_s)


class HomeMonitoringScenario:
    """Time-stepped (non-DES) home monitoring simulation.

    A simple fixed-step loop is sufficient here because there is no feedback
    into the patient -- the comparison is purely about when the monitoring
    side *notices* a deterioration.
    """

    def __init__(self, config: Optional[HomeMonitoringConfig] = None) -> None:
        self.config = config or HomeMonitoringConfig()
        self.config.validate()
        if not self.config.episodes:
            self.config.episodes = [
                DeteriorationEpisode(onset_s=self.config.duration_s * 0.3),
                DeteriorationEpisode(onset_s=self.config.duration_s * 0.7, spo2_drop=10.0),
            ]
        self._noise = GaussianNoise(np.random.default_rng(self.config.seed))

    # --------------------------------------------------------------- signals
    def _true_vitals(self, time: float) -> Tuple[float, float]:
        """True (noise-free) SpO2 and heart rate at ``time``."""
        spo2 = self.config.baseline_spo2
        heart_rate = self.config.baseline_heart_rate
        for episode in self.config.episodes:
            if time < episode.onset_s:
                continue
            progress = min(1.0, (time - episode.onset_s) / episode.development_time_s)
            spo2 -= episode.spo2_drop * progress
            heart_rate += episode.heart_rate_rise * progress
        return spo2, heart_rate

    def _sampled_vitals(self, time: float) -> Tuple[float, float]:
        spo2, heart_rate = self._true_vitals(time)
        spo2 += self._noise(self.config.spo2_noise_sd)
        heart_rate += self._noise(self.config.heart_rate_noise_sd)
        return float(np.clip(spo2, 0.0, 100.0)), max(0.0, heart_rate)

    def _make_alarm(self) -> ThresholdAlarm:
        return ThresholdAlarm(
            "home_monitor",
            [
                ThresholdRule(vital="spo2", threshold=self.config.spo2_alarm_threshold,
                              direction="below", severity=AlarmSeverity.CRITICAL,
                              persistence_s=2 * self.config.sample_period_s),
                ThresholdRule(vital="heart_rate", threshold=self.config.heart_rate_alarm_threshold,
                              direction="above", severity=AlarmSeverity.WARNING,
                              persistence_s=2 * self.config.sample_period_s),
            ],
            rearm_time_s=1800.0,
        )

    # ------------------------------------------------------------------- run
    def run(self) -> HomeMonitoringResult:
        config = self.config
        alarm = self._make_alarm()
        sample_times = np.arange(config.sample_period_s, config.duration_s, config.sample_period_s)
        samples: List[Tuple[float, float, float]] = []
        detection_times: List[float] = []

        for time in sample_times:
            spo2, heart_rate = self._sampled_vitals(float(time))
            samples.append((float(time), spo2, heart_rate))
            if config.mode == "real_time":
                arrival = float(time) + config.network_latency_s
                raised = alarm.observe(arrival, "spo2", spo2)
                raised += alarm.observe(arrival, "heart_rate", heart_rate)
                detection_times.extend(event.time for event in raised)

        if config.mode == "store_and_forward":
            upload_times = np.arange(config.upload_period_s, config.duration_s + config.upload_period_s,
                                     config.upload_period_s)
            previous_upload = 0.0
            for upload_time in upload_times:
                batch = [s for s in samples if previous_upload < s[0] <= upload_time]
                previous_upload = float(upload_time)
                review_time = float(upload_time) + config.review_delay_s
                # The clinician reviews the batch at review_time; any threshold
                # crossing in the batch is only noticed then.
                for time, spo2, heart_rate in batch:
                    raised = alarm.observe(time, "spo2", spo2)
                    raised += alarm.observe(time, "heart_rate", heart_rate)
                    if raised:
                        detection_times.append(review_time)

        episode_onsets = [episode.onset_s for episode in config.episodes]
        latencies: List[float] = []
        detected = 0
        for onset in episode_onsets:
            latency = detection_latency(onset, sorted(set(detection_times)))
            if latency is not None:
                detected += 1
                latencies.append(latency)
        return HomeMonitoringResult(
            mode=config.mode,
            episodes=len(config.episodes),
            detected_episodes=detected,
            detection_latencies_s=latencies,
            alarms_raised=len(alarm.alarms),
        )


# --------------------------------------------------------------- campaigns
@campaign_scenario(
    "home",
    defaults={
        "mode": "real_time",
        "duration_s": 24.0 * 3600.0,
        "sample_period_s": 60.0,
        "upload_period_s": 4.0 * 3600.0,
        "review_delay_s": 1800.0,
        "network_latency_s": 2.0,
        "detection_window_s": 1800.0,
    },
    result_fields=(
        "mode", "episodes", "detected_episodes", "alarms_raised",
        "mean_detection_latency_s", "detected_within_window",
    ),
    description="Home telemonitoring: store-and-forward vs real-time (experiment E12 at scale)",
)
def run_home_campaign(params: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Campaign runner: one 24 h home-monitoring episode."""
    config = HomeMonitoringConfig(
        mode=params["mode"],
        duration_s=params["duration_s"],
        sample_period_s=params["sample_period_s"],
        upload_period_s=params["upload_period_s"],
        review_delay_s=params["review_delay_s"],
        network_latency_s=params["network_latency_s"],
        seed=seed,
    )
    result = HomeMonitoringScenario(config).run()
    return {
        "mode": result.mode,
        "episodes": result.episodes,
        "detected_episodes": result.detected_episodes,
        "alarms_raised": result.alarms_raised,
        "mean_detection_latency_s": result.mean_detection_latency_s,
        "detected_within_window": result.detected_within(params["detection_window_s"]),
        "detection_latencies_s": result.detection_latencies_s,
    }
