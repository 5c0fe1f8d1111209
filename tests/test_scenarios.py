"""Tests for the end-to-end clinical scenarios."""

import pytest

from repro.campaign.registry import get_scenario

from repro.scenarios.bed_map import BedMapConfig, BedMapScenario
from repro.scenarios.home import (
    DeteriorationEpisode,
    HomeMonitoringConfig,
    HomeMonitoringScenario,
)
from repro.scenarios.pca_scenario import pca_fault_campaign
from repro.scenarios.proton import ProtonSchedulingConfig, ProtonSchedulingScenario
from repro.scenarios.xray_vent import XRayVentilatorConfig, XRayVentilatorScenario


class TestPCAFaultCampaign:
    def test_default_campaign_contents(self):
        faults = pca_fault_campaign()
        kinds = [fault.kind for fault in faults]
        assert "misprogramming" in kinds and "pca_by_proxy" in kinds

    def test_optional_outage_included(self):
        faults = pca_fault_campaign(include_communication_outage=True)
        assert any(fault.kind == "channel_outage" for fault in faults)


def _campaign_run(scenario, seed, **params):
    """One run through the scenario's campaign runner, defaults overlaid."""
    spec = get_scenario(scenario)
    return spec.runner(spec.resolved_params(params), seed)


class TestXRayVentilatorScenario:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            XRayVentilatorConfig(mode="psychic").validate()

    @pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0.0])
    def test_apnea_watchdog_timeout_must_be_finite_and_positive(self, timeout):
        # A NaN timeout is never exceeded: the watchdog would leave a
        # forgotten ventilator paused for the whole run.
        with pytest.raises(ValueError, match="apnea_watchdog_timeout_s"):
            _campaign_run("xray_vent", 1, mode="manual", forget_restart_probability=1.0,
                          image_requests=2, apnea_watchdog_enabled=True,
                          apnea_watchdog_timeout_s=timeout)

    @pytest.mark.parametrize("period", [float("nan"), float("inf")])
    def test_request_period_must_be_finite(self, period):
        # Rejected by the config, not by the kernel when it is scheduled.
        with pytest.raises(ValueError, match="request_period_s"):
            _campaign_run("xray_vent", 1, request_period_s=period)

    def test_state_broadcast_no_apnea_and_sharp_images(self):
        config = XRayVentilatorConfig(mode="state_broadcast", image_requests=5,
                                      request_period_s=60.0, seed=1)
        result = XRayVentilatorScenario(config).run()
        assert result.mode == "state_broadcast"
        assert result.apnea_episodes == 0
        assert result.total_apnea_time_s == 0.0
        assert result.sharp_images >= 4
        assert result.blurred_images == 0

    def test_pause_restart_creates_short_apneas(self):
        config = XRayVentilatorConfig(mode="pause_restart", image_requests=5,
                                      request_period_s=60.0, seed=1)
        result = XRayVentilatorScenario(config).run()
        assert result.apnea_episodes >= 4
        assert result.unsafe_apnea_events == 0
        assert result.sharp_images >= 4

    def test_pause_restart_with_lost_resume_is_hazardous(self):
        config = XRayVentilatorConfig(mode="pause_restart", image_requests=5,
                                      request_period_s=120.0, command_loss_probability=0.6, seed=3)
        result = XRayVentilatorScenario(config).run()
        assert result.unsafe_apnea_events >= 1

    def test_watchdog_bounds_apnea(self):
        config = XRayVentilatorConfig(mode="pause_restart", image_requests=5,
                                      request_period_s=120.0, command_loss_probability=0.6,
                                      apnea_watchdog_enabled=True, apnea_watchdog_timeout_s=30.0, seed=3)
        result = XRayVentilatorScenario(config).run()
        assert result.max_apnea_time_s < 60.0

    def test_manual_mode_can_forget_restart(self):
        config = XRayVentilatorConfig(mode="manual", image_requests=10, request_period_s=60.0,
                                      forget_restart_probability=1.0, seed=0)
        result = XRayVentilatorScenario(config).run()
        assert result.ventilator_left_paused
        assert result.unsafe_apnea_events >= 1

    def test_image_success_rate_property(self):
        config = XRayVentilatorConfig(mode="state_broadcast", image_requests=4,
                                      request_period_s=60.0, seed=2)
        result = XRayVentilatorScenario(config).run()
        assert 0.0 <= result.image_success_rate <= 1.0


class TestBedMapScenario:
    def test_context_awareness_suppresses_bed_artifacts(self):
        baseline = BedMapScenario(BedMapConfig(use_context_awareness=False, seed=4)).run()
        aware = BedMapScenario(BedMapConfig(use_context_awareness=True, seed=4)).run()
        assert baseline.false_alarm_count > aware.false_alarm_count
        assert aware.suppressed_alarms > 0

    def test_true_hypotension_still_detected_with_context_awareness(self):
        result = BedMapScenario(BedMapConfig(use_context_awareness=True, seed=4)).run()
        assert result.missed_episodes == 0

    def test_no_bed_moves_no_false_alarms(self):
        result = BedMapScenario(BedMapConfig(bed_moves=0, true_hypotension_episodes=1,
                                             use_context_awareness=False, seed=5)).run()
        assert result.false_alarm_count == 0
        assert result.confusion.true_positives >= 1

    def test_config_validation(self):
        with pytest.raises(ValueError):
            BedMapConfig(duration_s=0.0).validate()

    @pytest.mark.parametrize("threshold", [float("nan"), float("inf"), float("-inf")])
    def test_map_alarm_threshold_must_be_finite(self, threshold):
        # A NaN threshold compares false with every MAP: no alarm, ever.
        with pytest.raises(ValueError, match="map_alarm_threshold_mmhg"):
            _campaign_run("bed_map", 1, duration_s=3600.0, map_alarm_threshold_mmhg=threshold)


class TestProtonSchedulingScenario:
    def test_throughput_without_motion(self):
        config = ProtonSchedulingConfig(rooms=2, fractions_per_room=2, motion_events_per_room=0,
                                        duration_s=3600.0)
        result = ProtonSchedulingScenario(config).run()
        assert result.fractions_requested == 4
        assert result.fractions_completed == 4
        assert result.completion_rate == 1.0
        assert result.beam_switches >= 1

    def test_motion_events_abort_fractions(self):
        # Long fractions keep the beam busy for most of the run, so patient
        # motion reliably interrupts at least one delivery.
        config = ProtonSchedulingConfig(rooms=3, fractions_per_room=3, fraction_spots=600,
                                        spot_duration_s=0.5, motion_events_per_room=4,
                                        duration_s=3600.0, seed=1)
        result = ProtonSchedulingScenario(config).run()
        assert result.motion_events == 12
        assert result.fractions_aborted >= 1

    def test_emergency_shutdown_stops_facility(self):
        config = ProtonSchedulingConfig(rooms=2, fractions_per_room=3, motion_events_per_room=0,
                                        emergency_shutdown_time_s=50.0, duration_s=3600.0)
        result = ProtonSchedulingScenario(config).run()
        assert result.emergency_shutdown_triggered
        assert result.fractions_completed < result.fractions_requested

    def test_more_rooms_increase_waiting(self):
        few = ProtonSchedulingScenario(ProtonSchedulingConfig(
            rooms=1, fractions_per_room=3, motion_events_per_room=0, duration_s=3600.0)).run()
        many = ProtonSchedulingScenario(ProtonSchedulingConfig(
            rooms=4, fractions_per_room=3, motion_events_per_room=0, duration_s=3600.0)).run()
        assert many.mean_waiting_time_s > few.mean_waiting_time_s

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ProtonSchedulingConfig(rooms=0).validate()


class TestHomeMonitoringScenario:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            HomeMonitoringConfig(mode="carrier_pigeon").validate()

    @pytest.mark.parametrize("field", ["spo2_noise_sd", "heart_rate_noise_sd"])
    def test_negative_noise_sd_rejected(self, field):
        # Block-drawn noise does not re-check sd per draw as rng.normal did.
        with pytest.raises(ValueError, match=field):
            HomeMonitoringConfig(**{field: -0.5}).validate()

    def test_real_time_detects_episodes_quickly(self):
        config = HomeMonitoringConfig(mode="real_time", seed=1)
        result = HomeMonitoringScenario(config).run()
        assert result.detected_episodes == result.episodes
        assert result.mean_detection_latency_s < 3600.0

    def test_store_and_forward_detects_late(self):
        real_time = HomeMonitoringScenario(HomeMonitoringConfig(mode="real_time", seed=1)).run()
        batch = HomeMonitoringScenario(HomeMonitoringConfig(mode="store_and_forward", seed=1,
                                                            upload_period_s=4 * 3600.0)).run()
        assert batch.mean_detection_latency_s > real_time.mean_detection_latency_s

    def test_longer_upload_period_worsens_latency(self):
        short = HomeMonitoringScenario(HomeMonitoringConfig(
            mode="store_and_forward", upload_period_s=2 * 3600.0, seed=2)).run()
        long = HomeMonitoringScenario(HomeMonitoringConfig(
            mode="store_and_forward", upload_period_s=8 * 3600.0, seed=2)).run()
        assert long.mean_detection_latency_s >= short.mean_detection_latency_s

    def test_custom_episodes(self):
        config = HomeMonitoringConfig(
            mode="real_time",
            episodes=[DeteriorationEpisode(onset_s=3600.0, spo2_drop=12.0)],
            seed=3,
        )
        result = HomeMonitoringScenario(config).run()
        assert result.episodes == 1
        assert result.detected_episodes == 1

    def test_detected_within_window(self):
        result = HomeMonitoringScenario(HomeMonitoringConfig(mode="real_time", seed=1)).run()
        assert result.detected_within(3600.0) == result.detected_episodes
