"""Tests for the slotted Reading payload type."""

import json
from collections.abc import Mapping

import pytest

from repro.readings import Reading


class TestReadingBasics:
    def test_field_access(self):
        reading = Reading(97.2, True, 12.5)
        assert reading.value == 97.2
        assert reading.valid is True
        assert reading.time == 12.5

    def test_defaults(self):
        reading = Reading(3.0)
        assert reading.valid is True
        assert reading.time == 0.0

    def test_slots_no_dict(self):
        assert not hasattr(Reading(1.0), "__dict__")

    def test_immutable_assignment_raises(self):
        reading = Reading(1.0)
        with pytest.raises(AttributeError, match="immutable"):
            reading.value = 2.0
        with pytest.raises(AttributeError, match="immutable"):
            reading.extra = "nope"
        with pytest.raises(AttributeError, match="immutable"):
            del reading.valid

    def test_hashable(self):
        assert Reading(1.0, True, 2.0) in {Reading(1.0, True, 2.0)}

    def test_pickle_round_trip(self):
        # Campaign workers move payloads across processes; the immutable
        # __setattr__ must not break unpickling.
        import pickle

        reading = Reading(97.0, False, 3.5)
        clone = pickle.loads(pickle.dumps(reading))
        assert clone == reading and type(clone) is Reading

    def test_repr(self):
        assert repr(Reading(1.0, False, 3.0)) == "Reading(value=1.0, valid=False, time=3.0)"

    def test_subscript_raises_type_error(self):
        # A Reading is not a mapping: fields are attributes only.
        reading = Reading(96.5, True, 30.0)
        with pytest.raises(TypeError):
            reading["value"]

    def test_is_not_a_mapping(self):
        assert not isinstance(Reading(96.5, True, 30.0), Mapping)

    def test_never_equals_its_dict_form(self):
        reading = Reading(96.5, True, 30.0)
        assert reading != reading.as_dict()
        assert reading.as_dict() != reading

    def test_as_dict_json_matches_legacy_payload_bytes(self):
        # The trace serialisation path depends on this: a Reading rendered
        # through as_dict() must produce the same JSON as the old dict
        # literal the devices built, key order included.
        legacy = {"value": 97.0, "valid": True, "time": 8.0}
        assert json.dumps(Reading(97.0, True, 8.0).as_dict()) == json.dumps(legacy)

    def test_round_trip_through_as_dict(self):
        reading = Reading(96.5, False, 30.0)
        assert Reading(**reading.as_dict()) == reading


class TestDeviceProducesReadings:
    def test_sensor_publishes_reading_stamped_with_sim_time(self):
        from repro.devices.pulse_oximeter import PulseOximeter
        from repro.patient.model import PatientModel
        from repro.sim.kernel import Simulator

        simulator = Simulator()
        patient = PatientModel()
        simulator.register(patient)
        oximeter = PulseOximeter("ox-1", patient)
        published = []
        oximeter.attach_publisher(lambda topic, payload: published.append((topic, payload)))
        simulator.register(oximeter)
        simulator.run(until=4.1)

        spo2 = [p for t, p in published if t == "spo2"]
        assert spo2, "oximeter published no spo2 readings"
        for reading in spo2:
            assert type(reading) is Reading
            assert reading.valid is True
        assert [r.time for r in spo2] == [pytest.approx(2.0), pytest.approx(4.0)]

    def test_publish_reading_records_trace_signal_in_same_call(self):
        from repro.devices.bp_monitor import BloodPressureMonitor
        from repro.patient.model import PatientModel
        from repro.sim.kernel import Simulator
        from repro.sim.trace import TraceRecorder

        simulator = Simulator()
        patient = PatientModel()
        simulator.register(patient)
        trace = TraceRecorder()
        monitor = BloodPressureMonitor("bp-1", patient, trace=trace)
        monitor.attach_publisher(lambda topic, payload: None)
        simulator.register(monitor)
        simulator.run(until=130.0)
        samples = trace.samples("bp-1:map_reading")
        assert len(samples) == monitor.readings_published
        assert samples, "publish_reading(record=...) recorded nothing"


class TestEveryBusMessageIsAReading:
    """One payload type on the wire: status topics are samples too.

    A recorder subscribed to every topic every device declares sees only
    Readings, each stamped no later than the bus forwarded it, the pump's
    status among them.
    """

    @staticmethod
    def record_every_topic(bus, devices):
        arrived = []

        def _record(topic, payload, message):
            assert type(payload) is Reading, (topic, payload)
            assert payload.time <= message.sent_at, (topic, payload)
            arrived.append(topic)

        for topic in dict.fromkeys(topic for device in devices
                                   for topic in device.descriptor.published_topics):
            bus.subscribe("recorder", topic, _record)
        return arrived

    def test_closed_loop_pca_system(self):
        from repro.core.loop import ClosedLoopPCASystem, PCASystemConfig

        system = ClosedLoopPCASystem(PCASystemConfig(seed=3, button_press_period_s=60.0))
        system.build()
        arrived = self.record_every_topic(
            system.bus, [system.pump, system.oximeter, system.capnograph])
        system.simulator.run(until=900.0)
        assert "pump_status" in arrived and "dose_delivered" in arrived
        assert "spo2" in arrived

    def test_small_hospital_ward(self):
        from repro.topology import build_hospital, standard_hospital

        spec = standard_hospital(
            "every-reading", wards=1, beds_per_ward=3,
            device_mix={"pulse_oximeter": 1.0, "capnograph": 1.0,
                        "bp_monitor": 1.0, "bed": 1.0, "pca_pump": 1.0})
        runtime = build_hospital(spec, 5)
        (ward,) = runtime.wards
        arrived = self.record_every_topic(
            ward.bus, [device for bed in ward.beds for device in bed.devices.values()])
        runtime.simulator.run(until=600.0)
        assert "pump_status" in arrived and "spo2" in arrived  # no bolus here
