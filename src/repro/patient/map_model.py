"""Mean arterial pressure (MAP) model with the bed-height measurement artefact.

Section III(l) of the paper describes a "mixed criticality" scenario:
measurement of mean arterial pressure depends on the relative position of the
patient and sensor, so raising the patient's bed changes the MAP *reading*
without any physiological change, potentially triggering false alarms in a
trend-following monitoring system.  This model separates the patient's true
MAP from the transducer reading so the context-aware alarm experiment (E5)
can quantify the false alarms caused -- and suppressed -- by bed motion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.patient.decay import ExpMemo, require_finite_non_negative, require_finite_positive
from repro.sim.random import GaussianNoise

# Hydrostatic pressure of a 1 cm blood column, in mmHg.  Raising the
# transducer relative to the heart lowers the measured pressure by this much
# per centimetre of height difference.
MMHG_PER_CM_HEIGHT = 0.74


@dataclass
class ArterialPressureParameters:
    baseline_map_mmhg: float = 90.0
    noise_sd_mmhg: float = 1.5
    drift_time_constant_min: float = 20.0
    hypotension_threshold_mmhg: float = 65.0

    def validate(self) -> None:
        require_finite_positive("baseline_map_mmhg", self.baseline_map_mmhg)
        require_finite_non_negative("noise_sd_mmhg", self.noise_sd_mmhg)
        require_finite_positive("drift_time_constant_min", self.drift_time_constant_min)
        require_finite_non_negative("hypotension_threshold_mmhg", self.hypotension_threshold_mmhg)


class ArterialPressureModel:
    """True MAP dynamics plus a transducer whose reading depends on bed height."""

    def __init__(
        self,
        parameters: Optional[ArterialPressureParameters] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.parameters = parameters or ArterialPressureParameters()
        self.parameters.validate()
        self._noise = None if rng is None else GaussianNoise(rng)
        self._true_map = self.parameters.baseline_map_mmhg
        self._target_map = self.parameters.baseline_map_mmhg
        self._bed_height_offset_cm = 0.0
        self._decay = ExpMemo()

    # ----------------------------------------------------------------- state
    @property
    def true_map_mmhg(self) -> float:
        """The patient's actual mean arterial pressure."""
        return self._true_map

    @property
    def bed_height_offset_cm(self) -> float:
        """Transducer height offset relative to its calibrated position."""
        return self._bed_height_offset_cm

    @property
    def measured_map_mmhg(self) -> float:
        """What the pressure transducer reports, including the height artefact."""
        reading = self._true_map - self._bed_height_offset_cm * MMHG_PER_CM_HEIGHT
        if self._noise is not None and self.parameters.noise_sd_mmhg > 0:
            reading += self._noise(self.parameters.noise_sd_mmhg)
        return reading

    # -------------------------------------------------------------- dynamics
    def set_target_map(self, target_mmhg: float) -> None:
        """Start a physiological drift toward ``target_mmhg`` (e.g. real hypotension)."""
        if target_mmhg <= 0:
            raise ValueError("target MAP must be positive")
        self._target_map = target_mmhg

    def set_bed_height_offset(self, offset_cm: float) -> None:
        """Raise (+) or lower (-) the bed / transducer by ``offset_cm``."""
        self._bed_height_offset_cm = float(offset_cm)

    def advance(self, dt_min: float) -> float:  # repro-lint: hot
        """Advance the true-MAP drift by ``dt_min`` minutes; returns true MAP."""
        if not 0 <= dt_min < math.inf:
            require_finite_non_negative("dt_min", dt_min)
        decay = self._decay(-float(dt_min) / self.parameters.drift_time_constant_min)
        target = self._target_map
        true_map = self._true_map = target + (self._true_map - target) * decay
        return true_map

    # -------------------------------------------------------------- analysis
    def is_truly_hypotensive(self) -> bool:
        return self._true_map < self.parameters.hypotension_threshold_mmhg

    def reading_is_hypotensive(self, reading: Optional[float] = None) -> bool:
        value = self.measured_map_mmhg if reading is None else reading
        return value < self.parameters.hypotension_threshold_mmhg
