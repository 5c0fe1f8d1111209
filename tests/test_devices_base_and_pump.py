"""Tests for the device base class and the PCA pump."""

import pytest

from repro.devices.base import DeviceDescriptor, DeviceState, MedicalDevice
from repro.devices.pca_pump import PCAPrescription, PCAPump
from repro.patient.model import PatientModel
from repro.readings import Reading
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.trace import TraceRecorder


def make_descriptor(**overrides):
    defaults = dict(
        device_id="dev-1",
        device_type="test_device",
        published_topics=("data",),
        accepted_commands=("go",),
    )
    defaults.update(overrides)
    return DeviceDescriptor(**defaults)


class TestDeviceDescriptor:
    def test_valid_descriptor(self):
        descriptor = make_descriptor()
        assert descriptor.accepts("go")
        assert descriptor.publishes("data")
        assert not descriptor.accepts("stop")

    def test_invalid_risk_class_rejected(self):
        with pytest.raises(ValueError):
            make_descriptor(risk_class="IV")

    def test_empty_id_rejected(self):
        with pytest.raises(ValueError):
            make_descriptor(device_id="")


class TestMedicalDeviceStateMachine:
    def test_initial_state_is_standby(self):
        device = MedicalDevice(make_descriptor())
        assert device.state == DeviceState.STANDBY

    def test_valid_transition(self):
        device = MedicalDevice(make_descriptor())
        assert device.transition(DeviceState.RUNNING)
        assert device.state == DeviceState.RUNNING

    def test_invalid_transition_rejected(self):
        device = MedicalDevice(make_descriptor())
        assert device.state == DeviceState.STANDBY
        assert not device.transition(DeviceState.PAUSED)
        assert device.state == DeviceState.STANDBY

    def test_same_state_transition_is_noop(self):
        device = MedicalDevice(make_descriptor())
        assert device.transition(DeviceState.STANDBY)

    def test_crash_moves_to_fault_and_restart_recovers(self):
        device = MedicalDevice(make_descriptor())
        device.transition(DeviceState.RUNNING)
        device.crash()
        assert device.state == DeviceState.FAULT
        assert device.crashed
        device.restart()
        assert device.state == DeviceState.STANDBY
        assert not device.crashed

    def test_is_operational(self):
        device = MedicalDevice(make_descriptor())
        assert not device.is_operational
        device.transition(DeviceState.RUNNING)
        assert device.is_operational


class TestMedicalDeviceCommandsAndPublish:
    def test_publish_requires_declared_topic(self):
        device = MedicalDevice(make_descriptor())
        device.bind(Simulator())
        published = []
        device.attach_publisher(lambda topic, payload: published.append((topic, payload)))
        device.publish_reading("data", 1)
        assert published == [("data", Reading(1, True, 0.0))]
        with pytest.raises(ValueError):
            device.publish_reading("undeclared", 1)

    def test_unbound_device_cannot_publish(self):
        device = MedicalDevice(make_descriptor())
        published = []
        device.attach_publisher(lambda topic, payload: published.append(topic))
        with pytest.raises(SimulationError, match="not bound"):
            device.publish_reading("data", 1)
        assert published == []

    def test_crashed_device_does_not_publish(self):
        device = MedicalDevice(make_descriptor())
        published = []
        device.attach_publisher(lambda topic, payload: published.append(topic))
        device.crash()
        device.publish_reading("data", 1)
        assert published == []

    def test_register_command_requires_declaration(self):
        device = MedicalDevice(make_descriptor())
        with pytest.raises(ValueError):
            device.register_command("undeclared", lambda p: None)

    def test_command_dispatch(self):
        device = MedicalDevice(make_descriptor())
        device.register_command("go", lambda p: p.get("value"))
        assert device.handle_command("go", {"value": 7}) == 7

    def test_undeclared_command_recorded_not_raised(self):
        device = MedicalDevice(make_descriptor())
        assert device.handle_command("stop") is None
        assert device.rejected_commands[-1][0] == "stop"

    def test_command_without_handler_rejected(self):
        device = MedicalDevice(make_descriptor())
        assert device.handle_command("go") is None
        assert device.rejected_commands

    def test_crashed_device_rejects_commands(self):
        device = MedicalDevice(make_descriptor())
        device.register_command("go", lambda p: True)
        device.crash()
        assert device.handle_command("go") is None


@pytest.fixture
def pump_setup(trace):
    simulator = Simulator()
    patient = PatientModel(trace=trace)
    simulator.register(patient)
    pump = PCAPump("pump-1", patient, PCAPrescription(
        bolus_dose_mg=1.0, lockout_interval_s=300.0, hourly_limit_mg=5.0, basal_rate_mg_per_hr=1.2,
    ), command_delay_s=1.0, trace=trace)
    simulator.register(pump)
    return simulator, patient, pump


class TestPCAPrescription:
    def test_defaults_validate(self):
        PCAPrescription().validate()

    def test_invalid_limit_rejected(self):
        with pytest.raises(ValueError):
            PCAPrescription(hourly_limit_mg=0.0).validate()

    def test_negative_bolus_rejected(self):
        with pytest.raises(ValueError):
            PCAPrescription(bolus_dose_mg=-1.0).validate()


class TestPCAPump:
    def test_starts_running_with_basal_rate(self, pump_setup):
        simulator, patient, pump = pump_setup
        assert pump.state == DeviceState.RUNNING
        assert patient.infusion_rate_mg_per_min == pytest.approx(1.2 / 60.0)

    def test_bolus_delivered_on_request(self, pump_setup):
        simulator, patient, pump = pump_setup
        assert pump.request_bolus()
        assert pump.total_delivered_mg == pytest.approx(1.0)
        assert patient.plasma_concentration_mg_per_l > 0

    def test_lockout_denies_rapid_requests(self, pump_setup):
        simulator, _, pump = pump_setup
        assert pump.request_bolus()
        assert not pump.request_bolus()
        assert pump.denied_requests[-1][1] == "lockout"

    def test_request_allowed_after_lockout(self, pump_setup):
        simulator, _, pump = pump_setup
        pump.request_bolus()
        simulator.run(until=400.0)
        assert pump.request_bolus()

    def test_hourly_limit_enforced(self, pump_setup):
        simulator, _, pump = pump_setup
        delivered = 0
        for i in range(12):
            simulator.run(until=(i + 1) * 301.0)
            if pump.request_bolus():
                delivered += 1
        assert pump.total_delivered_mg <= 5.0 + 1e-9
        assert any(reason == "hourly limit" for _, reason in pump.denied_requests)

    def test_stop_command_halts_after_delay(self, pump_setup):
        simulator, patient, pump = pump_setup
        pump.handle_command("stop")
        assert not pump.stopped_by_supervisor  # applied only after the delay
        simulator.run(until=2.0)
        assert pump.stopped_by_supervisor
        assert patient.infusion_rate_mg_per_min == 0.0
        assert not pump.request_bolus()

    def test_resume_command_restores_delivery(self, pump_setup):
        simulator, patient, pump = pump_setup
        pump.handle_command("stop")
        simulator.run(until=2.0)
        pump.handle_command("resume")
        simulator.run(until=4.0)
        assert not pump.stopped_by_supervisor
        assert patient.infusion_rate_mg_per_min > 0
        assert pump.request_bolus()

    def test_misprogramming_scales_doses(self, pump_setup):
        simulator, _, pump = pump_setup
        pump.reprogram(rate_multiplier=4.0)
        assert pump.request_bolus()
        assert pump.total_delivered_mg == pytest.approx(4.0)

    def test_concentration_error_does_not_change_programmed_limit(self, pump_setup):
        simulator, _, pump = pump_setup
        pump.reprogram(concentration_multiplier=3.0)
        assert pump.effective_prescription.bolus_dose_mg == pytest.approx(3.0)
        assert pump.prescription.hourly_limit_mg == pytest.approx(5.0)

    def test_proxy_requests_counted(self, pump_setup):
        simulator, _, pump = pump_setup
        delivered = pump.proxy_request(count=3)
        assert delivered == 1  # lockout blocks the rest
        assert pump.proxy_requests == 3

    def test_crash_stops_infusion(self, pump_setup):
        simulator, patient, pump = pump_setup
        pump.crash()
        assert patient.infusion_rate_mg_per_min == 0.0
        assert not pump.request_bolus()

    def test_set_prescription_command(self, pump_setup):
        simulator, _, pump = pump_setup
        new_rx = PCAPrescription(bolus_dose_mg=0.5, lockout_interval_s=600.0, hourly_limit_mg=3.0)
        assert pump.handle_command("set_prescription", {"prescription": new_rx})
        assert pump.prescription.bolus_dose_mg == 0.5

    def test_set_prescription_rejects_garbage(self, pump_setup):
        simulator, _, pump = pump_setup
        assert pump.handle_command("set_prescription", {"prescription": "bogus"}) is False

    def test_status_published_periodically(self, pump_setup, trace):
        simulator, _, pump = pump_setup
        published = []
        pump.attach_publisher(lambda topic, payload: published.append(topic))
        simulator.run(until=35.0)
        assert published.count("pump_status") >= 3

    def test_status_and_dose_are_samples(self, pump_setup):
        # pump_status codes the actuation state (1.0 = stopped by the
        # supervisor), dose_delivered the bolus in mg, each stamped with
        # the instant it was published.
        simulator, _, pump = pump_setup
        published = []
        pump.attach_publisher(lambda topic, payload: published.append((topic, payload)))
        pump.request_bolus()
        simulator.run(until=15.0)
        pump.handle_command("stop")
        simulator.run(until=25.0)
        assert published == [
            ("dose_delivered", Reading(1.0, True, 0.0)),
            ("pump_status", Reading(0.0, True, 10.0)),
            ("pump_status", Reading(1.0, True, 20.0)),
        ]

    def test_delivered_in_window(self, pump_setup):
        simulator, _, pump = pump_setup
        pump.request_bolus()
        assert pump.delivered_in_window(3600.0) == pytest.approx(1.0)
        assert pump.delivered_in_window(0.0) == pytest.approx(1.0)  # delivered exactly now
