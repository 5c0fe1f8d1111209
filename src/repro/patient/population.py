"""Patient population sampling.

The paper stresses "the staggering range of patient responses to the same
treatment" (Section III(i)) and that "effects of each treatment can differ
widely from patient to patient" (Section III(g)).  Experiments therefore run
over populations of patients whose weight, opioid clearance, opioid
sensitivity, and baseline vital signs vary.  :class:`PatientPopulation`
samples such parameter sets reproducibly, including special sub-populations
(opioid-sensitive patients, athletes with low baseline heart rates) that
drive particular experiments.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional

import numpy as np

from repro.patient.decay import require_finite_positive
from repro.patient.pharmacodynamics import PDParameters
from repro.patient.pharmacokinetics import PKParameters
from repro.patient.vitals import VitalSignsParameters


@dataclass(frozen=True)
class PatientParameters:
    """Everything needed to instantiate a :class:`repro.patient.model.PatientModel`."""

    patient_id: str
    weight_kg: float
    age_years: float
    opioid_sensitivity: float
    clearance_multiplier: float
    baseline_heart_rate_bpm: float
    baseline_respiratory_rate_bpm: float
    baseline_spo2: float
    initial_pain_level: float
    is_athlete: bool = False
    tags: tuple = field(default_factory=tuple)

    def validate(self) -> None:
        for name in ("weight_kg", "age_years", "opioid_sensitivity", "clearance_multiplier",
                     "baseline_heart_rate_bpm", "baseline_respiratory_rate_bpm"):
            require_finite_positive(name, getattr(self, name))
        if not 0 < self.baseline_spo2 <= 100:
            raise ValueError(f"baseline_spo2 must be in (0, 100], got {self.baseline_spo2!r}")
        if not 0 <= self.initial_pain_level <= 10:
            raise ValueError(f"initial_pain_level must be in [0, 10], got {self.initial_pain_level!r}")

    # ------------------------------------------------------------- factories
    def pk_parameters(self, base: Optional[PKParameters] = None) -> PKParameters:
        base = base or PKParameters()
        return base.scaled_for_weight(self.weight_kg, self.clearance_multiplier)

    def pd_parameters(self, base: Optional[PDParameters] = None) -> PDParameters:
        base = base or PDParameters()
        return base.with_sensitivity(self.opioid_sensitivity)

    def vitals_parameters(self, base: Optional[VitalSignsParameters] = None) -> VitalSignsParameters:
        base = base or VitalSignsParameters()
        return replace(
            base,
            baseline_heart_rate_bpm=self.baseline_heart_rate_bpm,
            baseline_respiratory_rate_bpm=self.baseline_respiratory_rate_bpm,
            baseline_spo2=self.baseline_spo2,
            initial_pain_level=self.initial_pain_level,
        )

    def as_record(self) -> Dict[str, object]:
        """Flat dictionary used when storing the patient in the EHR."""
        return {
            "patient_id": self.patient_id,
            "weight_kg": self.weight_kg,
            "age_years": self.age_years,
            "opioid_sensitivity": self.opioid_sensitivity,
            "clearance_multiplier": self.clearance_multiplier,
            "baseline_heart_rate_bpm": self.baseline_heart_rate_bpm,
            "baseline_respiratory_rate_bpm": self.baseline_respiratory_rate_bpm,
            "baseline_spo2": self.baseline_spo2,
            "initial_pain_level": self.initial_pain_level,
            "is_athlete": self.is_athlete,
            "tags": list(self.tags),
        }


DEFAULT_PATIENT = PatientParameters(
    patient_id="default",
    weight_kg=70.0,
    age_years=45.0,
    opioid_sensitivity=1.0,
    clearance_multiplier=1.0,
    baseline_heart_rate_bpm=72.0,
    baseline_respiratory_rate_bpm=14.0,
    baseline_spo2=98.0,
    initial_pain_level=7.0,
)


class PatientPopulation:
    """Samples reproducible populations of :class:`PatientParameters`."""

    def __init__(self, rng: Optional[np.random.Generator] = None, seed: int = 0) -> None:
        self._rng = rng if rng is not None else np.random.default_rng(seed)

    def sample(self, count: int, prefix: str = "patient", sensitive_fraction: float = 0.15,
               athlete_fraction: float = 0.1) -> List[PatientParameters]:
        """Sample ``count`` patients.

        ``sensitive_fraction`` of the population is drawn with elevated opioid
        sensitivity (the patients an average-programmed PCA limit fails to
        protect); ``athlete_fraction`` with athletic baselines (low resting
        heart rate, the false-alarm drivers of experiment E4).
        """
        if count < 0:
            raise ValueError("count must be non-negative")
        if not 0 <= sensitive_fraction <= 1 or not 0 <= athlete_fraction <= 1:
            raise ValueError("fractions must be within [0, 1]")
        if sensitive_fraction + athlete_fraction > 1:
            # A silent pass here truncates the athlete band (the roll can
            # never exceed 1), skewing the stratification with no error.
            raise ValueError(
                "sensitive_fraction + athlete_fraction must not exceed 1 "
                f"(got {sensitive_fraction} + {athlete_fraction})"
            )
        patients = []
        for index in range(count):
            roll = self._rng.random()
            is_sensitive = roll < sensitive_fraction
            is_athlete = sensitive_fraction <= roll < sensitive_fraction + athlete_fraction
            patients.append(self._sample_one(f"{prefix}-{index:03d}", is_sensitive, is_athlete))
        return patients

    def sample_one(self, patient_id: str, sensitive: bool = False, athlete: bool = False) -> PatientParameters:
        return self._sample_one(patient_id, sensitive, athlete)

    def _sample_one(self, patient_id: str, sensitive: bool, athlete: bool) -> PatientParameters:
        rng = self._rng
        weight = float(np.clip(rng.normal(78.0, 16.0), 45.0, 140.0))
        age = float(np.clip(rng.normal(55.0, 16.0), 18.0, 92.0))
        clearance = float(np.clip(rng.lognormal(mean=0.0, sigma=0.25), 0.5, 2.0))
        sensitivity = float(np.clip(rng.lognormal(mean=0.0, sigma=0.3), 0.4, 2.5))
        if sensitive:
            sensitivity = float(np.clip(sensitivity * rng.uniform(1.6, 2.4), 1.6, 3.0))
            clearance = float(np.clip(clearance * rng.uniform(0.6, 0.85), 0.4, 1.0))
        baseline_hr = float(np.clip(rng.normal(74.0, 9.0), 52.0, 105.0))
        baseline_rr = float(np.clip(rng.normal(14.0, 2.0), 9.0, 22.0))
        baseline_spo2 = float(np.clip(rng.normal(97.5, 1.0), 92.0, 100.0))
        pain = float(np.clip(rng.normal(7.0, 1.5), 3.0, 10.0))
        tags: List[str] = []
        if sensitive:
            tags.append("opioid_sensitive")
        if athlete:
            baseline_hr = float(np.clip(rng.normal(48.0, 4.0), 38.0, 58.0))
            baseline_rr = float(np.clip(rng.normal(11.0, 1.5), 8.0, 14.0))
            tags.append("athlete")
        parameters = PatientParameters(
            patient_id=patient_id,
            weight_kg=weight,
            age_years=age,
            opioid_sensitivity=sensitivity,
            clearance_multiplier=clearance,
            baseline_heart_rate_bpm=baseline_hr,
            baseline_respiratory_rate_bpm=baseline_rr,
            baseline_spo2=baseline_spo2,
            initial_pain_level=pain,
            is_athlete=athlete,
            tags=tuple(tags),
        )
        parameters.validate()
        return parameters

    def sample_cohorts(self, count: int) -> Dict[str, List[PatientParameters]]:
        """Sample and bucket patients by sub-population for stratified reporting."""
        patients = self.sample(count)
        cohorts: Dict[str, List[PatientParameters]] = {"typical": [], "opioid_sensitive": [], "athlete": []}
        for patient in patients:
            if "opioid_sensitive" in patient.tags:
                cohorts["opioid_sensitive"].append(patient)
            elif patient.is_athlete:
                cohorts["athlete"].append(patient)
            else:
                cohorts["typical"].append(patient)
        return cohorts
