"""Safety and alarm metrics shared by the experiment benchmarks."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Optional, Sequence, Tuple


@dataclass
class SafetyOutcome:
    """Per-patient safety outcome summarised across a population run."""

    patients: int = 0
    harmed: int = 0
    respiratory_failure_events: int = 0
    total_time_in_danger_s: float = 0.0
    total_drug_mg: float = 0.0
    mean_pain: float = 0.0
    supervisor_stops: int = 0
    _pain_total: float = field(default=0.0, init=False, repr=False, compare=False)

    def add(self, result: Any) -> None:
        """Fold one :class:`repro.core.loop.PCARunResult`-like record in.

        ``mean_pain`` stays the arrival-order sum of ``mean_pain_level``
        divided by the patient count after every call.
        """
        self.patients += 1
        self.harmed += 1 if result.harmed else 0
        self.respiratory_failure_events += result.respiratory_failure_events
        self.total_time_in_danger_s += result.time_below_spo2_90_s
        self.total_drug_mg += result.total_drug_delivered_mg
        self.supervisor_stops += result.supervisor_stops
        self._pain_total += result.mean_pain_level
        self.mean_pain = self._pain_total / self.patients

    @property
    def harm_rate(self) -> float:
        return self.harmed / self.patients if self.patients else 0.0

    @property
    def mean_time_in_danger_s(self) -> float:
        return self.total_time_in_danger_s / self.patients if self.patients else 0.0

    @property
    def mean_drug_mg(self) -> float:
        return self.total_drug_mg / self.patients if self.patients else 0.0


def aggregate_outcomes(results: Iterable) -> SafetyOutcome:
    """Aggregate :class:`repro.core.loop.PCARunResult`-like records.

    Accepts any objects exposing ``harmed``, ``respiratory_failure_events``,
    ``time_below_spo2_90_s``, ``total_drug_delivered_mg``, ``mean_pain_level``
    and ``supervisor_stops`` attributes.
    """
    outcome = SafetyOutcome()
    for result in results:
        outcome.add(result)
    return outcome


@dataclass
class AlarmConfusion:
    """Confusion matrix of alarms against ground-truth deterioration episodes."""

    true_positives: int = 0
    false_positives: int = 0
    false_negatives: int = 0
    true_negatives: int = 0

    @property
    def total_alarms(self) -> int:
        return self.true_positives + self.false_positives

    @property
    def sensitivity(self) -> float:
        detected = self.true_positives + self.false_negatives
        return self.true_positives / detected if detected else 1.0

    @property
    def precision(self) -> float:
        return self.true_positives / self.total_alarms if self.total_alarms else 1.0

    @property
    def false_alarm_rate(self) -> float:
        """Fraction of raised alarms that are false (1 - precision)."""
        return 1.0 - self.precision

    def merged_with(self, other: "AlarmConfusion") -> "AlarmConfusion":
        return AlarmConfusion(
            true_positives=self.true_positives + other.true_positives,
            false_positives=self.false_positives + other.false_positives,
            false_negatives=self.false_negatives + other.false_negatives,
            true_negatives=self.true_negatives + other.true_negatives,
        )


def classify_alarms(
    alarm_times: Sequence[float],
    episodes: Sequence[Tuple[float, float]],
    *,
    detection_lead_s: float = 0.0,
) -> AlarmConfusion:
    """Classify alarms against ground-truth deterioration episodes.

    An alarm is a true positive if it falls inside an episode interval
    (optionally extended ``detection_lead_s`` earlier, to credit early
    warnings); otherwise it is a false positive.  An episode with no alarm
    inside its (extended) window is a false negative.
    """
    if detection_lead_s < 0:
        raise ValueError("detection_lead_s must be non-negative")
    confusion = AlarmConfusion()
    matched_episodes = set()
    for alarm in alarm_times:
        matched = False
        for index, (start, end) in enumerate(episodes):
            if start - detection_lead_s <= alarm <= end:
                matched = True
                matched_episodes.add(index)
                break
        if matched:
            confusion.true_positives += 1
        else:
            confusion.false_positives += 1
    confusion.false_negatives = len(episodes) - len(matched_episodes)
    return confusion


def detection_latency(
    event_time: float,
    response_times: Sequence[float],
) -> Optional[float]:
    """Latency from an event to the first response at or after it (None if never)."""
    later = [t for t in response_times if t >= event_time]
    return min(later) - event_time if later else None
