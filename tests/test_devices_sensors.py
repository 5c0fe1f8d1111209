"""Tests for the sensing devices: pulse oximeter, capnograph, BP monitor, bed."""

import numpy as np
import pytest

from repro.devices.bed import HospitalBed
from repro.devices.bp_monitor import BloodPressureMonitor, BloodPressureMonitorConfig
from repro.devices.capnograph import Capnograph, CapnographConfig
from repro.devices.pulse_oximeter import PulseOximeter, PulseOximeterConfig
from repro.patient.model import PatientModel
from repro.sim.kernel import Simulator


@pytest.fixture
def patient_sim():
    simulator = Simulator()
    patient = PatientModel()
    simulator.register(patient)
    return simulator, patient


class TestPulseOximeter:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PulseOximeterConfig(sample_period_s=0.0).validate()
        with pytest.raises(ValueError):
            PulseOximeterConfig(averaging_window_samples=0).validate()

    def test_signal_processing_delay_grows_with_window(self):
        small = PulseOximeterConfig(averaging_window_samples=2)
        large = PulseOximeterConfig(averaging_window_samples=8)
        assert large.signal_processing_delay_s > small.signal_processing_delay_s

    def test_publishes_spo2_and_heart_rate(self, patient_sim):
        simulator, patient = patient_sim
        oximeter = PulseOximeter("ox-1", patient)
        published = []
        oximeter.attach_publisher(lambda topic, payload: published.append((topic, payload)))
        simulator.register(oximeter)
        simulator.run(until=10.0)
        topics = [topic for topic, _ in published]
        assert "spo2" in topics and "heart_rate" in topics

    def test_reading_tracks_patient(self, patient_sim):
        simulator, patient = patient_sim
        oximeter = PulseOximeter("ox-1", patient, rng=np.random.default_rng(0))
        oximeter.attach_publisher(lambda t, p: None)
        simulator.register(oximeter)
        simulator.run(until=30.0)
        assert oximeter.current_spo2 == pytest.approx(98.0, abs=2.0)

    def test_noise_applied(self, patient_sim):
        simulator, patient = patient_sim
        oximeter = PulseOximeter("ox-1", patient, PulseOximeterConfig(averaging_window_samples=1),
                                 rng=np.random.default_rng(1))
        published = []
        oximeter.attach_publisher(
            lambda topic, payload: published.append(payload.value) if topic == "spo2" else None
        )
        simulator.register(oximeter)
        simulator.run(until=40.0)
        assert len(published) > 5
        assert np.std(published) > 0.05

    def test_probe_off_publishes_invalid(self, patient_sim):
        simulator, patient = patient_sim
        oximeter = PulseOximeter("ox-1", patient)
        published = []
        oximeter.attach_publisher(lambda topic, payload: published.append((topic, payload)))
        simulator.register(oximeter)
        oximeter.detach_probe()
        simulator.run(until=5.0)
        spo2_msgs = [p for t, p in published if t == "spo2"]
        assert spo2_msgs and not spo2_msgs[-1].valid

    def test_reattach_probe_restores_readings(self, patient_sim):
        simulator, patient = patient_sim
        oximeter = PulseOximeter("ox-1", patient)
        oximeter.attach_publisher(lambda t, p: None)
        simulator.register(oximeter)
        oximeter.detach_probe()
        simulator.run(until=5.0)
        oximeter.reattach_probe()
        simulator.run(until=15.0)
        assert oximeter.current_spo2 > 90.0

    def test_freeze_holds_reported_value(self, patient_sim):
        simulator, patient = patient_sim
        oximeter = PulseOximeter("ox-1", patient)
        published = []
        oximeter.attach_publisher(lambda topic, payload: published.append((topic, payload)))
        simulator.register(oximeter)
        simulator.run(until=10.0)
        oximeter.freeze()
        patient.infuse_bolus(20.0)
        simulator.run(until=20 * 60.0)
        spo2_values = [p.value for t, p in published if t == "spo2"]
        assert spo2_values[-1] == pytest.approx(spo2_values[-2])

    def test_corrupt_offsets_window(self, patient_sim):
        simulator, patient = patient_sim
        oximeter = PulseOximeter("ox-1", patient)
        oximeter.attach_publisher(lambda t, p: None)
        simulator.register(oximeter)
        simulator.run(until=10.0)
        before = oximeter.current_spo2
        oximeter.corrupt(spo2_offset=-20.0)
        assert oximeter.current_spo2 == pytest.approx(before - 20.0, abs=0.5)


class TestCapnograph:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            CapnographConfig(sample_period_s=0.0).validate()

    def test_publishes_respiratory_rate_and_etco2(self, patient_sim):
        simulator, patient = patient_sim
        capnograph = Capnograph("cap-1", patient)
        published = []
        capnograph.attach_publisher(lambda topic, payload: published.append((topic, payload)))
        simulator.register(capnograph)
        simulator.run(until=20.0)
        topics = {topic for topic, _ in published}
        assert topics == {"respiratory_rate", "etco2"}

    def test_etco2_rises_with_hypoventilation(self, patient_sim):
        simulator, patient = patient_sim
        capnograph = Capnograph("cap-1", patient)
        published = []
        capnograph.attach_publisher(lambda topic, payload: published.append((topic, payload)))
        simulator.register(capnograph)
        simulator.run(until=10.0)
        normal_etco2 = [p.value for t, p in published if t == "etco2"][-1]
        patient.infuse_bolus(15.0)
        simulator.run(until=25 * 60.0)
        depressed_etco2 = [p.value for t, p in published if t == "etco2"][-1]
        assert depressed_etco2 > normal_etco2

    def test_freeze_and_unfreeze(self, patient_sim):
        simulator, patient = patient_sim
        capnograph = Capnograph("cap-1", patient)
        capnograph.attach_publisher(lambda t, p: None)
        simulator.register(capnograph)
        capnograph.freeze()
        assert capnograph._frozen
        capnograph.unfreeze()
        assert not capnograph._frozen


class TestBloodPressureMonitorAndBed:
    def test_map_reading_published(self, patient_sim):
        simulator, patient = patient_sim
        monitor = BloodPressureMonitor("bp-1", patient, BloodPressureMonitorConfig(sample_period_s=5.0))
        published = []
        monitor.attach_publisher(lambda topic, payload: published.append((topic, payload)))
        simulator.register(monitor)
        simulator.run(until=20.0)
        readings = [p.value for t, p in published if t == "map"]
        assert readings and readings[-1] == pytest.approx(90.0, abs=5.0)

    def test_bed_move_shifts_map_reading(self, patient_sim):
        simulator, patient = patient_sim
        bed = HospitalBed("bed-1", patient, motion_duration_s=1.0)
        monitor = BloodPressureMonitor("bp-1", patient, BloodPressureMonitorConfig(sample_period_s=5.0))
        published = []
        monitor.attach_publisher(lambda topic, payload: published.append(payload.value))
        bed.attach_publisher(lambda t, p: None)
        simulator.register(bed)
        simulator.register(monitor)
        simulator.run(until=10.0)
        before = published[-1]
        bed.set_height(40.0)
        simulator.run(until=30.0)
        after = published[-1]
        assert after < before - 20.0

    def test_bed_publishes_context_event(self, patient_sim):
        simulator, patient = patient_sim
        bed = HospitalBed("bed-1", patient, motion_duration_s=1.0)
        published = []
        bed.attach_publisher(lambda topic, payload: published.append((topic, payload)))
        simulator.register(bed)
        bed.set_height(30.0)
        simulator.run(until=5.0)
        assert published and published[0][0] == "bed_height"
        assert published[0][1].value == 30.0
        assert published[0][1].time == 1.0  # when the motion completed

    def test_bed_set_height_command(self, patient_sim):
        simulator, patient = patient_sim
        bed = HospitalBed("bed-1", patient, motion_duration_s=0.5)
        bed.attach_publisher(lambda t, p: None)
        simulator.register(bed)
        assert bed.handle_command("set_height", {"height_cm": 20.0})
        simulator.run(until=2.0)
        assert patient.map_model.bed_height_offset_cm == 20.0

    def test_bed_rejects_missing_height(self, patient_sim):
        simulator, patient = patient_sim
        bed = HospitalBed("bed-1", patient)
        simulator.register(bed)
        assert bed.handle_command("set_height", {}) is False

    def test_rezero_removes_artifact(self, patient_sim):
        simulator, patient = patient_sim
        monitor = BloodPressureMonitor("bp-1", patient, BloodPressureMonitorConfig(sample_period_s=5.0))
        published = []
        monitor.attach_publisher(lambda topic, payload: published.append(payload.value))
        simulator.register(monitor)
        patient.map_model.set_bed_height_offset(40.0)
        simulator.run(until=10.0)
        assert published[-1] < 70.0
        monitor.handle_command("rezero")
        simulator.run(until=20.0)
        assert published[-1] == pytest.approx(90.0, abs=3.0)
