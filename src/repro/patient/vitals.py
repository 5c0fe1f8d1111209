"""Vital-sign dynamics: respiratory rate, SpO2, and heart rate.

This module closes the physiological loop of Figure 1: the PD model's
respiratory drive determines respiratory rate; sustained hypoventilation
reduces blood oxygen saturation (SpO2) with a physiological lag; hypoxia and
pain elevate heart rate.  The outputs feed the pulse oximeter and other
monitoring devices in :mod:`repro.devices`, which add their own measurement
artefacts on top.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from repro.patient.decay import ExpMemo, require_finite_non_negative, require_finite_positive


@dataclass(frozen=True)
class VitalSigns:
    """A snapshot of the patient's true (un-measured) vital signs."""

    respiratory_rate_bpm: float
    spo2_percent: float
    heart_rate_bpm: float
    pain_level: float

    def as_dict(self) -> dict:
        return {
            "respiratory_rate_bpm": self.respiratory_rate_bpm,
            "spo2_percent": self.spo2_percent,
            "heart_rate_bpm": self.heart_rate_bpm,
            "pain_level": self.pain_level,
        }


@dataclass
class VitalSignsParameters:
    """Baseline physiology and coupling constants.

    baseline_respiratory_rate_bpm / baseline_heart_rate_bpm / baseline_spo2:
        The patient's resting values (athletes have low heart rates; the
        adaptive-alarm experiment E4 exploits this).
    spo2_time_constant_min:
        Lag with which SpO2 follows effective ventilation; oxygen reserves
        mean desaturation is not instantaneous.
    hypoventilation_threshold:
        Fraction of baseline ventilation below which SpO2 begins to fall.
    pain_decay_per_min:
        Natural decay of post-operative pain level (pain is on a 0-10 scale).
    """

    baseline_respiratory_rate_bpm: float = 14.0
    baseline_heart_rate_bpm: float = 72.0
    baseline_spo2: float = 98.0
    min_spo2: float = 55.0
    spo2_time_constant_min: float = 2.5
    hypoventilation_threshold: float = 0.6
    heart_rate_hypoxia_gain: float = 1.2
    heart_rate_pain_gain: float = 2.0
    pain_decay_per_min: float = 0.004
    initial_pain_level: float = 7.0

    def validate(self) -> None:
        for name in ("baseline_respiratory_rate_bpm", "baseline_heart_rate_bpm",
                     "spo2_time_constant_min"):
            require_finite_positive(name, getattr(self, name))
        for name in ("heart_rate_hypoxia_gain", "heart_rate_pain_gain", "pain_decay_per_min"):
            require_finite_non_negative(name, getattr(self, name))
        if not 0 < self.baseline_spo2 <= 100:
            raise ValueError(f"baseline_spo2 must be in (0, 100], got {self.baseline_spo2!r}")
        if not 0 < self.min_spo2 < self.baseline_spo2:
            raise ValueError(
                f"min_spo2 must be positive and below baseline_spo2, got {self.min_spo2!r}")
        if not 0 < self.hypoventilation_threshold <= 1:
            raise ValueError(
                f"hypoventilation_threshold must be in (0, 1], got {self.hypoventilation_threshold!r}")
        if not 0 <= self.initial_pain_level <= 10:
            raise ValueError(f"initial_pain_level must be in [0, 10], got {self.initial_pain_level!r}")


class VitalSignsModel:
    """Continuous-time vital-sign dynamics, advanced in discrete steps."""

    def __init__(self, parameters: Optional[VitalSignsParameters] = None) -> None:
        self.parameters = parameters or VitalSignsParameters()
        self.parameters.validate()
        self._spo2_decay = ExpMemo()
        self._pain_decay = ExpMemo()
        self.reset()

    # ----------------------------------------------------------------- state
    @property
    def state(self) -> VitalSigns:
        """The current vital signs, as one shared immutable snapshot.

        Sensors read the state many times per physiology step, so the
        snapshot is built on the first read after a change and handed to
        every reader until the next :meth:`advance`, :meth:`reset` or
        :meth:`add_pain_stimulus`, each of which drops it.
        """
        snapshot = self._snapshot
        if snapshot is None:
            snapshot = self._snapshot = VitalSigns(
                respiratory_rate_bpm=self._respiratory_rate,
                spo2_percent=self._spo2,
                heart_rate_bpm=self._heart_rate,
                pain_level=self._pain,
            )
        return snapshot

    def reset(self) -> None:
        self._spo2 = self.parameters.baseline_spo2
        self._pain = self.parameters.initial_pain_level
        self._respiratory_rate = self.parameters.baseline_respiratory_rate_bpm
        self._heart_rate = self.parameters.baseline_heart_rate_bpm
        self._snapshot: Optional[VitalSigns] = None

    # ------------------------------------------------------------- dynamics
    def advance(self, dt_min: float, respiratory_drive: float, analgesia: float) -> VitalSigns:  # repro-lint: hot
        """Advance ``dt_min`` minutes given the PD model's outputs.

        respiratory_drive:
            Remaining fraction of respiratory drive in [0, 1].
        analgesia:
            Fraction of pain relieved in [0, 1).
        """
        if not 0 <= dt_min < math.inf:
            require_finite_non_negative("dt_min", dt_min)
        if not 0 <= respiratory_drive <= 1.0001:
            raise ValueError(f"respiratory_drive must be in [0, 1], got {respiratory_drive!r}")
        if not 0 <= analgesia <= 1.0001:
            raise ValueError(f"analgesia must be in [0, 1], got {analgesia!r}")
        if dt_min == 0:
            return self.state
        dt_min = float(dt_min)

        p = self.parameters
        self._snapshot = None
        # Respiratory rate tracks drive directly (fast dynamics relative to dt).
        self._respiratory_rate = p.baseline_respiratory_rate_bpm * respiratory_drive

        # Effective ventilation relative to baseline; below the hypoventilation
        # threshold SpO2 relaxes toward a depressed target, above it SpO2
        # recovers toward baseline.  The clamps are min(max(v, lo), hi)
        # written as comparisons: max(a, b) is a unless b > a, and min(a, b)
        # is a unless b < a, so NaN and -0.0 come out as the builtins gave.
        ventilation_fraction = respiratory_drive
        if ventilation_fraction >= p.hypoventilation_threshold:
            spo2_target = p.baseline_spo2
        else:
            deficit = (p.hypoventilation_threshold - ventilation_fraction) / p.hypoventilation_threshold
            spo2_target = p.baseline_spo2 - deficit * (p.baseline_spo2 - p.min_spo2)
        spo2 = spo2_target + (self._spo2 - spo2_target) * self._spo2_decay(
            -dt_min / p.spo2_time_constant_min)
        if p.min_spo2 > spo2:
            spo2 = float(p.min_spo2)
        if 100.0 < spo2:
            spo2 = 100.0
        self._spo2 = spo2

        # Pain decays naturally and is relieved by analgesia.
        pain = self._pain * self._pain_decay(-p.pain_decay_per_min * dt_min) * (1.0 - analgesia)
        if 0.0 > pain:
            pain = 0.0
        if 10.0 < pain:
            pain = 10.0
        self._pain = pain

        # Heart rate: baseline + pain contribution + hypoxia compensation.
        hypoxia = p.baseline_spo2 - spo2
        if not hypoxia > 0.0:
            hypoxia = 0.0
        self._heart_rate = (
            p.baseline_heart_rate_bpm
            + p.heart_rate_pain_gain * pain
            + p.heart_rate_hypoxia_gain * hypoxia
        )
        return self.state

    # -------------------------------------------------------------- analysis
    def is_in_respiratory_failure(self, spo2_threshold: float = 85.0, rr_threshold: float = 6.0) -> bool:
        """Clinical definition of respiratory failure used by the experiments."""
        return self._spo2 < spo2_threshold or self._respiratory_rate < rr_threshold

    def add_pain_stimulus(self, magnitude: float) -> None:
        """External pain stimulus (e.g. physiotherapy) on the 0-10 scale."""
        if magnitude < 0:
            raise ValueError("pain stimulus must be non-negative")
        self._pain = float(min(max(self._pain + magnitude, 0.0), 10.0))
        self._snapshot = None
