"""Tests for the ventilator, X-ray machine, and proton-therapy devices."""

import pytest

from repro.devices.proton import BeamRequest, ProtonTherapySystem, TreatmentRoom
from repro.devices.ventilator import BreathPhase, Ventilator, VentilatorSettings
from repro.devices.xray import XRayConfig, XRayMachine
from repro.sim.kernel import Simulator


class TestVentilatorSettings:
    def test_defaults_validate(self):
        VentilatorSettings().validate()

    def test_cycle_duration_and_rate(self):
        settings = VentilatorSettings(inhale_duration_s=1.0, exhale_duration_s=2.0, pause_duration_s=2.0)
        assert settings.cycle_duration_s == 5.0
        assert settings.breaths_per_minute == pytest.approx(12.0)

    def test_invalid_durations_rejected(self):
        with pytest.raises(ValueError):
            VentilatorSettings(inhale_duration_s=0.0).validate()


class TestVentilator:
    def test_cycles_through_phases(self):
        simulator = Simulator()
        ventilator = Ventilator("vent-1")
        simulator.register(ventilator)
        simulator.run(until=VentilatorSettings().cycle_duration_s * 3 + 0.1)
        assert ventilator.breaths_delivered == 3

    def test_air_flow_sign_by_phase(self):
        simulator = Simulator()
        ventilator = Ventilator("vent-1")
        simulator.register(ventilator)
        assert ventilator.air_flow_lpm() > 0  # inhaling at start
        simulator.run(until=2.0)  # in exhale (inhale is 1.5 s)
        assert ventilator.air_flow_lpm() < 0
        simulator.run(until=4.0)  # end-expiratory pause (3.5 - 5.0 s)
        assert ventilator.air_flow_lpm() == 0.0
        assert ventilator.in_imaging_window()

    def test_time_to_next_inhalation_decreases(self):
        simulator = Simulator()
        ventilator = Ventilator("vent-1")
        simulator.register(ventilator)
        early = ventilator.time_to_next_inhalation()
        simulator.run(until=2.0)
        later = ventilator.time_to_next_inhalation()
        assert later < early

    def test_remaining_window_only_in_pause(self):
        simulator = Simulator()
        ventilator = Ventilator("vent-1")
        simulator.register(ventilator)
        assert ventilator.remaining_imaging_window_s() == 0.0
        simulator.run(until=4.0)
        assert 0.0 < ventilator.remaining_imaging_window_s() <= 1.5

    def test_hold_and_resume(self):
        simulator = Simulator()
        ventilator = Ventilator("vent-1")
        simulator.register(ventilator)
        simulator.run(until=1.0)
        assert ventilator.hold()
        assert ventilator.phase == BreathPhase.HELD
        simulator.run(until=30.0)
        assert ventilator.apnea_duration() == pytest.approx(29.0)
        assert not ventilator.apnea_exceeded()
        assert ventilator.resume()
        simulator.run(until=40.0)
        assert ventilator.phase != BreathPhase.HELD
        assert ventilator.apnea_duration() == 0.0

    def test_apnea_exceeded_after_max_safe(self):
        simulator = Simulator()
        ventilator = Ventilator("vent-1", VentilatorSettings(max_safe_apnea_s=10.0))
        simulator.register(ventilator)
        ventilator.hold()
        simulator.run(until=20.0)
        assert ventilator.apnea_exceeded()

    def test_pause_resume_commands(self):
        simulator = Simulator()
        ventilator = Ventilator("vent-1")
        simulator.register(ventilator)
        assert ventilator.handle_command("pause")
        assert ventilator.phase == BreathPhase.HELD
        assert ventilator.handle_command("resume")
        assert ventilator.phase == BreathPhase.INHALE

    def test_broadcast_publishes_state(self):
        simulator = Simulator()
        ventilator = Ventilator("vent-1", broadcast_state=True, state_broadcast_period_s=0.5)
        published = []
        ventilator.attach_publisher(lambda topic, payload: published.append((topic, payload)))
        simulator.register(ventilator)
        simulator.run(until=5.0)
        readings = [p for t, p in published if t == "breath_phase"]
        assert len(readings) >= 8
        # Valid only inside the end-expiratory pause, carrying the seconds
        # of it that are left.
        paused = [reading for reading in readings if reading.valid]
        assert paused and len(paused) < len(readings)
        assert all(0.0 <= reading.value <= ventilator.settings.pause_duration_s
                   for reading in paused)


class TestXRayMachine:
    def _setup(self, mode, **xray_kwargs):
        simulator = Simulator()
        ventilator = Ventilator("vent-1", broadcast_state=(mode == "state_broadcast"),
                                state_broadcast_period_s=0.25)
        config = XRayConfig(coordination_mode=mode, **xray_kwargs)
        xray = XRayMachine("xray-1", config, ventilator=ventilator)
        if mode == "state_broadcast":
            ventilator.attach_publisher(
                lambda topic, payload: xray.on_ventilator_state(payload) if topic == "breath_phase" else None
            )
        simulator.register(ventilator)
        simulator.register(xray)
        return simulator, ventilator, xray

    def test_config_validation(self):
        with pytest.raises(ValueError):
            XRayConfig(coordination_mode="telepathy").validate()
        with pytest.raises(ValueError):
            XRayConfig(exposure_time_s=0.0).validate()

    def test_manual_mode_can_blur(self):
        simulator, ventilator, xray = self._setup("manual")
        simulator.run(until=0.5)  # mid-inhale
        xray.request_image()
        simulator.run(until=5.0)
        assert xray.images
        assert xray.images[0].blurred

    def test_pause_restart_takes_sharp_image_and_resumes(self):
        simulator, ventilator, xray = self._setup("pause_restart")
        simulator.run(until=1.0)
        xray.request_image()
        simulator.run(until=20.0)
        assert xray.successful_images == 1
        assert ventilator.phase != BreathPhase.HELD

    def test_pause_restart_without_resume_leaves_apnea(self):
        simulator = Simulator()
        ventilator = Ventilator("vent-1")
        # A command channel that drops the resume command.
        def lossy_command(command):
            if command == "pause":
                return ventilator.hold()
            return True  # claims success but never delivers resume
        xray = XRayMachine("xray-1", XRayConfig(coordination_mode="pause_restart"),
                           ventilator=ventilator, send_ventilator_command=lossy_command)
        simulator.register(ventilator)
        simulator.register(xray)
        xray.request_image()
        simulator.run(until=120.0)
        assert ventilator.phase == BreathPhase.HELD
        assert ventilator.apnea_exceeded()

    def test_state_broadcast_waits_for_window(self):
        simulator, ventilator, xray = self._setup("state_broadcast", exposure_time_s=0.2,
                                                  preparation_time_s=0.1)
        simulator.run(until=0.5)
        xray.request_image()
        simulator.run(until=30.0)
        assert xray.successful_images >= 1
        assert all(image.mode == "state_broadcast" for image in xray.images)
        # The ventilator was never paused.
        assert not ventilator.hold_history

    def test_state_broadcast_skips_too_short_window(self):
        simulator, ventilator, xray = self._setup(
            "state_broadcast", exposure_time_s=5.0, preparation_time_s=0.1
        )
        xray.request_image()
        simulator.run(until=30.0)
        assert xray.successful_images == 0
        assert xray.skipped_windows > 0


class TestProtonTherapy:
    def _build(self, rooms=2, motion_times=None, shutdown_at=None, **room_kwargs):
        simulator = Simulator()
        system = ProtonTherapySystem("proton-1", switch_time_s=5.0)
        simulator.register(system)
        built_rooms = []
        for index in range(rooms):
            room = TreatmentRoom(
                f"room-{index}",
                fraction_spots=room_kwargs.get("fraction_spots", 10),
                spot_duration_s=room_kwargs.get("spot_duration_s", 0.5),
                request_period_s=room_kwargs.get("request_period_s", 100.0),
                fractions=room_kwargs.get("fractions", 2),
                motion_times=motion_times if index == 0 else None,
            )
            system.attach_room(room)
            simulator.register(room)
            built_rooms.append(room)
        if shutdown_at is not None:
            simulator.schedule_at(shutdown_at, system.emergency_shutdown)
        return simulator, system, built_rooms

    def test_all_fractions_complete_without_faults(self):
        simulator, system, rooms = self._build()
        simulator.run(until=600.0)
        assert system.completed_fractions == 4
        assert system.aborted_fractions == 0

    def test_beam_serves_one_room_at_a_time(self):
        simulator, system, rooms = self._build()
        simulator.run(until=600.0)
        # Waiting times exist because the rooms contend for the single beam.
        waits = [r.waiting_time_s for room in rooms for r in room.requests]
        assert any(w > 0 for w in waits if w is not None)

    def test_patient_motion_aborts_current_fraction(self):
        simulator, system, rooms = self._build(motion_times=[2.0])
        simulator.run(until=600.0)
        assert system.aborted_fractions >= 1
        assert len(system.motion_cutoffs) == 1

    def test_motion_in_other_room_does_not_abort(self):
        simulator, system, rooms = self._build(rooms=1)
        simulator.register_ = None
        system.report_patient_motion("room-other")
        simulator.run(until=300.0)
        assert system.aborted_fractions == 0

    def test_emergency_shutdown_aborts_everything(self):
        simulator, system, rooms = self._build(shutdown_at=3.0)
        simulator.run(until=600.0)
        assert system.shutdown
        assert system.completed_fractions == 0
        total = sum(len(room.requests) for room in rooms)
        assert system.aborted_fractions >= 1
        assert system.completed_fractions + system.aborted_fractions <= total + 1

    def test_requests_after_shutdown_rejected(self):
        simulator, system, rooms = self._build(shutdown_at=1.0, request_period_s=50.0)
        simulator.run(until=400.0)
        late_requests = [r for room in rooms for r in room.requests if r.requested_at > 1.0]
        assert all(r.aborted for r in late_requests)

    def test_utilisation_bounded(self):
        simulator, system, rooms = self._build()
        simulator.run(until=600.0)
        assert 0.0 < system.utilisation(600.0) <= 1.0

    def test_beam_request_properties(self):
        request = BeamRequest(room_id="r", requested_at=0.0, spots=10, spot_duration_s=0.5)
        assert request.duration_s == 5.0
        assert request.waiting_time_s is None
        assert not request.complete
