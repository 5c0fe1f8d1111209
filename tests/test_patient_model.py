"""Tests for the composite PatientModel (the Figure 1 'Patient Model' box)."""

import numpy as np
import pytest

from repro.patient.model import PatientModel
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder


@pytest.fixture
def registered_patient(trace):
    simulator = Simulator()
    patient = PatientModel(trace=trace, update_period_s=5.0)
    simulator.register(patient)
    return simulator, patient


class TestStandalone:
    def test_initial_vitals_are_baseline(self):
        patient = PatientModel()
        assert patient.vital_signs.spo2_percent == pytest.approx(98.0)
        assert patient.plasma_concentration_mg_per_l == 0.0

    def test_bolus_increases_concentration_and_total(self):
        patient = PatientModel()
        patient.infuse_bolus(2.0)
        assert patient.plasma_concentration_mg_per_l > 0
        assert patient.total_drug_delivered_mg == pytest.approx(2.0)

    def test_basal_infusion_accumulates_drug(self):
        patient = PatientModel()
        patient.set_infusion_rate(0.1)
        patient.advance_by(60.0)
        assert patient.total_drug_delivered_mg == pytest.approx(6.0)
        assert patient.plasma_concentration_mg_per_l > 0

    def test_numpy_step_keeps_the_drug_total_a_python_float(self):
        # The step is coerced before it meets the total, so a float32 step
        # no longer makes the total a float32 that accumulates in float32.
        patient = PatientModel()
        patient.set_infusion_rate(0.5)
        step = np.float32(5.0 / 60.0)
        for _ in range(3):
            patient.advance_by(step)
        assert type(patient.total_drug_delivered_mg) is float
        assert patient.total_drug_delivered_mg == 1.5 * float(step)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValueError):
            PatientModel().set_infusion_rate(-1.0)

    def test_large_overdose_causes_respiratory_failure(self):
        patient = PatientModel()
        patient.infuse_bolus(25.0)
        for _ in range(40):
            patient.advance_by(1.0)
        assert patient.in_respiratory_failure

    def test_small_dose_does_not_cause_failure(self):
        patient = PatientModel()
        patient.infuse_bolus(1.0)
        for _ in range(120):
            patient.advance_by(1.0)
        assert not patient.in_respiratory_failure

    def test_wants_bolus_when_in_pain(self):
        patient = PatientModel()
        assert patient.wants_bolus

    def test_sedated_patient_stops_pressing(self):
        patient = PatientModel()
        patient.infuse_bolus(30.0)
        for _ in range(30):
            patient.advance_by(1.0)
        assert not patient.wants_bolus

    def test_invalid_update_period_rejected(self):
        with pytest.raises(ValueError):
            PatientModel(update_period_s=0.0)


class TestInSimulation:
    def test_periodic_advance_records_traces(self, registered_patient, trace):
        simulator, patient = registered_patient
        simulator.run(until=60.0)
        prefix = patient.parameters.patient_id
        assert len(trace.samples(f"{prefix}:spo2")) >= 10
        assert len(trace.samples(f"{prefix}:plasma_mg_per_l")) >= 10

    def test_respiratory_failure_event_recorded(self, trace):
        simulator = Simulator()
        patient = PatientModel(trace=trace, update_period_s=5.0)
        simulator.register(patient)
        patient.infuse_bolus(30.0)
        simulator.run(until=30 * 60.0)
        assert trace.count_events(f"{patient.parameters.patient_id}:respiratory_failure") >= 1

    def test_no_failure_event_without_drug(self, registered_patient, trace):
        simulator, patient = registered_patient
        simulator.run(until=30 * 60.0)
        assert trace.count_events(f"{patient.parameters.patient_id}:respiratory_failure") == 0

    def test_simulated_time_advances_physiology(self, registered_patient):
        simulator, patient = registered_patient
        patient.set_infusion_rate(0.2)
        simulator.run(until=30 * 60.0)
        assert patient.effect_site_concentration_mg_per_l > 0.0
        assert patient.vital_signs.respiratory_rate_bpm < 14.0
