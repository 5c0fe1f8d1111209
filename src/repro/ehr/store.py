"""Electronic health record storage.

The store keeps, per patient, a demographic record, timed history entries
(encounters, exercise history, medication administrations), and derived
vital-sign baselines used by patient-adaptive alarm thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.readings import Reading


@dataclass
class HistoryEntry:
    """One timed entry in a patient's history."""

    time: float
    category: str
    description: str
    data: Dict[str, Any] = field(default_factory=dict)


@dataclass
class PatientRecord:
    """A patient's EHR record."""

    patient_id: str
    demographics: Dict[str, Any] = field(default_factory=dict)
    history: List[HistoryEntry] = field(default_factory=list)
    medications: List[str] = field(default_factory=list)
    vital_baselines: Dict[str, float] = field(default_factory=dict)

    def add_history(self, entry: HistoryEntry) -> None:
        self.history.append(entry)
        self.history.sort(key=lambda e: e.time)

    def history_in_category(self, category: str) -> List[HistoryEntry]:
        return [entry for entry in self.history if entry.category == category]

    @property
    def is_athlete(self) -> bool:
        """Whether the exercise history marks this patient as highly trained."""
        if self.demographics.get("is_athlete"):
            return True
        exercise = self.history_in_category("exercise")
        return len(exercise) >= 3


class EHRStore:
    """In-memory EHR backing store."""

    def __init__(self) -> None:
        self._records: Dict[str, PatientRecord] = {}

    # ------------------------------------------------------------------ CRUD
    def admit(self, patient_id: str, demographics: Optional[Dict[str, Any]] = None) -> PatientRecord:
        """Create (or return the existing) record for ``patient_id``."""
        if patient_id not in self._records:
            self._records[patient_id] = PatientRecord(
                patient_id=patient_id, demographics=dict(demographics or {})
            )
        elif demographics:
            self._records[patient_id].demographics.update(demographics)
        return self._records[patient_id]

    def admit_from_parameters(self, parameters) -> PatientRecord:
        """Admit a patient from :class:`repro.patient.population.PatientParameters`."""
        record = self.admit(parameters.patient_id, parameters.as_record())
        record.vital_baselines.update(
            {
                "heart_rate_bpm": parameters.baseline_heart_rate_bpm,
                "respiratory_rate_bpm": parameters.baseline_respiratory_rate_bpm,
                "spo2_percent": parameters.baseline_spo2,
            }
        )
        if parameters.is_athlete:
            record.add_history(HistoryEntry(0.0, "exercise", "endurance training history"))
            record.add_history(HistoryEntry(0.0, "exercise", "competition record"))
            record.add_history(HistoryEntry(0.0, "exercise", "resting bradycardia noted"))
        return record

    def get(self, patient_id: str) -> PatientRecord:
        if patient_id not in self._records:
            raise KeyError(f"no EHR record for patient {patient_id!r}")
        return self._records[patient_id]

    def __contains__(self, patient_id: str) -> bool:
        return patient_id in self._records

    def __len__(self) -> int:
        return len(self._records)

    # --------------------------------------------------------------- history
    def record_observation(self, patient_id: str, time: float, vital: str, value: float) -> None:
        """Append a vital-sign observation used to learn per-patient baselines."""
        record = self.get(patient_id)
        record.add_history(
            HistoryEntry(time=time, category="observation", description=vital, data={"value": value})
        )

    def record_reading(self, patient_id: str, vital: str, reading: Reading) -> None:
        """Record a device :class:`Reading` natively as an observation.

        The reading's own sample time stamps the entry; invalid readings
        (probe-off, lead-off artefacts) are not observations and are skipped
        so they cannot poison learned baselines.
        """
        if not reading.valid:
            return
        self.record_observation(patient_id, reading.time, vital, float(reading.value))

    def record_medication(self, patient_id: str, time: float, medication: str, dose_mg: float) -> None:
        record = self.get(patient_id)
        record.medications.append(medication)
        record.add_history(
            HistoryEntry(time=time, category="medication", description=medication, data={"dose_mg": dose_mg})
        )

    # ------------------------------------------------------------- baselines
    def baseline(self, patient_id: str, vital: str, default: Optional[float] = None) -> Optional[float]:
        """Patient-specific baseline for ``vital``.

        Prefers an explicit stored baseline; otherwise the median of recorded
        observations of that vital; otherwise ``default``.
        """
        record = self.get(patient_id)
        if vital in record.vital_baselines:
            return record.vital_baselines[vital]
        observations = [
            entry.data["value"]
            for entry in record.history_in_category("observation")
            if entry.description == vital and "value" in entry.data
        ]
        if observations:
            return float(np.median(observations))
        return default

    def set_baseline(self, patient_id: str, vital: str, value: float) -> None:
        self.get(patient_id).vital_baselines[vital] = float(value)
