"""Alarm-fatigue model.

"The result is the well-known alarm fatigue that caregivers commonly
experience, which makes them stop paying attention to device alarms and
potentially missing important cases" (Section III(i)).  The model maps a
caregiver's recent false-alarm exposure to the probability that they respond
to the *next* alarm, so the smart-alarm experiments can translate
false-alarm-rate reductions into missed-true-alarm reductions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np


@dataclass
class FatigueParameters:
    """Shape of the attention decay.

    base_response_probability:
        Probability of responding with no fatigue at all.
    half_life_false_alarms:
        Number of recent false alarms after which attention halves.
    memory_window_s:
        Only false alarms within this trailing window contribute.
    floor:
        Attention never falls below this (a critical alarm still has *some*
        chance of being answered).
    """

    base_response_probability: float = 0.97
    half_life_false_alarms: float = 15.0
    memory_window_s: float = 8.0 * 3600.0
    floor: float = 0.15

    def validate(self) -> None:
        if not 0 < self.base_response_probability <= 1:
            raise ValueError("base_response_probability must be in (0, 1]")
        if self.half_life_false_alarms <= 0:
            raise ValueError("half_life_false_alarms must be positive")
        if self.memory_window_s <= 0:
            raise ValueError("memory_window_s must be positive")
        if not 0 <= self.floor < 1:
            raise ValueError("floor must be in [0, 1)")


class AlarmFatigueModel:
    """Tracks false-alarm exposure and predicts response probability."""

    def __init__(self, parameters: Optional[FatigueParameters] = None) -> None:
        self.parameters = parameters or FatigueParameters()
        self.parameters.validate()
        self._false_alarm_times: List[float] = []
        self.alarms_seen = 0

    def record_alarm(self, time: float, is_false: bool) -> None:
        """Record one alarm delivered to the caregiver."""
        self.alarms_seen += 1
        if is_false:
            self._false_alarm_times.append(time)

    def recent_false_alarms(self, time: float) -> int:
        cutoff = time - self.parameters.memory_window_s
        return sum(1 for t in self._false_alarm_times if t >= cutoff)

    def response_probability(self, time: float) -> float:
        """Probability the caregiver responds to an alarm raised at ``time``."""
        exposure = self.recent_false_alarms(time)
        attention = 0.5 ** (exposure / self.parameters.half_life_false_alarms)
        probability = self.parameters.base_response_probability * attention
        return max(self.parameters.floor, float(probability))

    def simulate_responses(
        self,
        alarm_times: List[Tuple[float, bool]],
        rng: Optional[np.random.Generator] = None,
        seed: int = 0,
    ) -> List[bool]:
        """Replay a stream of ``(time, is_false)`` alarms and sample responses.

        Returns, for each alarm in order, whether the caregiver responded.
        Fatigue accumulates as the stream is replayed, so a burst of false
        alarms early in the list degrades responses to later true alarms.
        """
        rng = rng if rng is not None else np.random.default_rng(seed)
        responses: List[bool] = []
        for time, is_false in sorted(alarm_times, key=lambda pair: pair[0]):
            probability = self.response_probability(time)
            responses.append(bool(rng.random() < probability))
            self.record_alarm(time, is_false)
        return responses
