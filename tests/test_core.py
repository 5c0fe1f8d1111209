"""Tests for the core closed-loop PCA system: supervisor, delays, caregiver, loop."""

import dataclasses

import numpy as np
import pytest

from repro.core.caregiver import Caregiver, CaregiverConfig
from repro.core.delays import (
    DelayBudget,
    DelayComponent,
    loop_delay_budget,
    max_additional_drug_during_reaction,
)
from repro.core.loop import ClosedLoopPCASystem, PCASystemConfig, _AlarmRelay
from repro.core.pca import (
    DATA_STALENESS_LIMIT_S,
    RESUME_HOLD_TIME_S,
    SPO2_STOP_THRESHOLD,
    STARTUP_GRACE_S,
    PCASafetySupervisor,
)
from repro.devices.pca_pump import PCAPrescription
from repro.middleware.supervisor_host import SupervisorApp
from repro.patient.population import PatientPopulation
from repro.readings import Reading
from repro.sim.faults import FaultSpec
from repro.sim.kernel import Simulator


class TestSupervisorPolicy:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy must be one of"):
            PCASafetySupervisor("app", "pump-1", policy="magic")
        with pytest.raises(ValueError, match="policy must be one of"):
            PCASystemConfig(policy="magic").validate()

    def test_without_capnograph_respiratory_rate_is_not_required(self):
        supervisor = PCASafetySupervisor("app", "pump-1", use_capnograph=False)
        supervisor.host = host = _FakeHost()
        assert supervisor.subscriptions == ("spo2", "heart_rate")
        feed(supervisor, 2 * STARTUP_GRACE_S, spo2=98.0, heart_rate=75.0)
        supervisor.step(2 * STARTUP_GRACE_S)
        assert host.commands == []


class _FakeHost:
    """Captures supervisor commands without a full middleware stack."""

    def __init__(self):
        self.commands = []

    def send_command(self, app, device_id, command, parameters=None):
        self.commands.append((device_id, command))
        return True


def make_supervisor(policy="fused"):
    supervisor = PCASafetySupervisor("app", "pump-1", policy=policy)
    host = _FakeHost()
    supervisor.host = host
    return supervisor, host


def feed(supervisor, time, spo2=None, heart_rate=None, respiratory_rate=None):
    class _Message:
        sent_at = time
        delivered_at = time

    if spo2 is not None:
        supervisor.on_data("spo2", Reading(spo2, True, time), _Message())
    if heart_rate is not None:
        supervisor.on_data("heart_rate", Reading(heart_rate, True, time), _Message())
    if respiratory_rate is not None:
        supervisor.on_data("respiratory_rate", Reading(respiratory_rate, True, time), _Message())


class TestPCASafetySupervisorLogic:
    def test_no_action_when_healthy(self):
        supervisor, host = make_supervisor()
        feed(supervisor, 10.0, spo2=98.0, heart_rate=75.0, respiratory_rate=14.0)
        supervisor.step(10.0)
        assert host.commands == []
        assert not supervisor.pump_stopped

    def test_stop_on_low_spo2(self):
        supervisor, host = make_supervisor()
        feed(supervisor, 10.0, spo2=89.0, heart_rate=75.0, respiratory_rate=14.0)
        supervisor.step(10.0)
        assert host.commands == [("pump-1", "stop")]
        assert supervisor.pump_stopped
        assert supervisor.stop_count == 1
        assert supervisor.first_stop_time == 10.0

    def test_stop_only_once_while_condition_persists(self):
        supervisor, host = make_supervisor()
        for time in (10.0, 12.0, 14.0):
            feed(supervisor, time, spo2=88.0, heart_rate=75.0, respiratory_rate=14.0)
            supervisor.step(time)
        assert supervisor.stop_count == 1

    def test_fused_policy_stops_on_low_respiratory_rate(self):
        supervisor, host = make_supervisor(policy="fused")
        feed(supervisor, 10.0, spo2=97.0, heart_rate=75.0, respiratory_rate=6.0)
        supervisor.step(10.0)
        assert supervisor.pump_stopped

    def test_threshold_policy_ignores_respiratory_rate(self):
        supervisor, host = make_supervisor(policy="threshold")
        feed(supervisor, 10.0, spo2=97.0, heart_rate=75.0, respiratory_rate=6.0)
        supervisor.step(10.0)
        assert not supervisor.pump_stopped

    def test_trend_policy_predicts_crossing(self):
        supervisor, host = make_supervisor(policy="trend")
        # Falling SpO2 trend: 95.5 down to ~94, slope -0.15/ step of 2 s.
        for index in range(10):
            time = 2.0 * index
            feed(supervisor, time, spo2=95.5 - 0.3 * index, heart_rate=75.0, respiratory_rate=12.0)
        supervisor.step(20.0)
        assert supervisor.pump_stopped
        assert "trend" in supervisor.events[0].reason

    def test_trend_not_armed_at_high_spo2(self):
        supervisor, host = make_supervisor(policy="trend")
        for index in range(10):
            feed(supervisor, 2.0 * index, spo2=99.0 - 0.1 * index, heart_rate=75.0, respiratory_rate=12.0)
        supervisor.step(20.0)
        assert not supervisor.pump_stopped

    def test_stale_data_fails_safe(self):
        supervisor, host = make_supervisor()
        feed(supervisor, 10.0, spo2=98.0, heart_rate=75.0, respiratory_rate=14.0)
        supervisor.step(10.0 + DATA_STALENESS_LIMIT_S)  # exactly at the limit: still fresh
        assert not supervisor.pump_stopped
        feed(supervisor, 20.0, heart_rate=75.0, respiratory_rate=14.0)
        supervisor.step(26.0)
        assert supervisor.pump_stopped
        assert supervisor.events[0].reason == "stale data on spo2"

    def test_startup_grace_tolerates_missing_topics(self):
        supervisor, host = make_supervisor()
        # The capnograph has not reported yet.
        feed(supervisor, STARTUP_GRACE_S, spo2=98.0, heart_rate=75.0)
        supervisor.step(STARTUP_GRACE_S)
        assert not supervisor.pump_stopped

    def test_after_grace_missing_topic_stops(self):
        supervisor, host = make_supervisor()
        feed(supervisor, 40.0, spo2=98.0, heart_rate=75.0)
        supervisor.step(40.0)
        assert supervisor.pump_stopped
        assert supervisor.events[0].reason == "stale data on respiratory_rate"

    @pytest.mark.parametrize("silent", ["spo2", "heart_rate", "respiratory_rate"])
    def test_each_required_topic_going_silent_stops_naming_it(self, silent):
        supervisor, host = make_supervisor()
        vitals = dict(spo2=98.0, heart_rate=75.0, respiratory_rate=14.0)
        feed(supervisor, 10.0, **vitals)
        feed(supervisor, 20.0, **{topic: value for topic, value in vitals.items() if topic != silent})
        supervisor.step(10.0 + DATA_STALENESS_LIMIT_S)
        assert not supervisor.pump_stopped
        supervisor.step(10.5 + DATA_STALENESS_LIMIT_S)
        assert supervisor.events[0].reason == f"stale data on {silent}"

    def test_every_silent_topic_is_named_in_sorted_order(self):
        supervisor, host = make_supervisor()
        feed(supervisor, 10.0, spo2=98.0, heart_rate=75.0, respiratory_rate=14.0)
        supervisor.step(26.0)
        assert supervisor.events[0].reason == "stale data on heart_rate, respiratory_rate, spo2"

    def test_freshness_runs_from_the_delivery_not_the_sample_time(self):
        # A sample taken at 0 s that arrives at 20 s is fresh until 35 s.
        supervisor, host = make_supervisor()

        class _Message:
            sent_at = 20.0
            delivered_at = 20.0

        supervisor.on_data("respiratory_rate", Reading(14.0, True, 0.0), _Message())
        feed(supervisor, 35.0, spo2=98.0, heart_rate=75.0)
        supervisor.step(35.0)
        assert not supervisor.pump_stopped
        supervisor.step(35.5)
        assert supervisor.events[0].reason == "stale data on respiratory_rate"

    def test_an_invalid_reading_still_freshens_its_topic(self):
        # Freshness says the link works; validity is judged separately.
        supervisor, host = make_supervisor()

        class _Message:
            sent_at = 40.0
            delivered_at = 40.0

        supervisor.on_data("respiratory_rate", Reading(0.0, False, 40.0), _Message())
        feed(supervisor, 40.0, spo2=98.0, heart_rate=75.0)
        supervisor.step(40.0)
        assert host.commands == []

    def test_an_unsubscribed_topic_neither_freshens_nor_goes_stale(self):
        supervisor, host = make_supervisor()
        assert "pump_status" not in supervisor.subscriptions

        class _Message:
            sent_at = 40.0
            delivered_at = 40.0

        supervisor.on_data("pump_status", Reading(1.0, True, 40.0), _Message())
        feed(supervisor, 40.0, spo2=98.0, heart_rate=75.0)
        supervisor.step(40.0)
        assert supervisor.events[0].reason == "stale data on respiratory_rate"

    def test_another_apps_deliveries_do_not_freshen_a_lost_downlink(self):
        # A second app on the supervisor's host subscribes to the same
        # vitals.  Cutting only the supervisor's own downlink must still
        # trip its staleness fail-safe, as it does when the supervisor is
        # the host's only app.
        class _Listener(SupervisorApp):
            subscriptions = ("spo2", "heart_rate", "respiratory_rate")
            step_period_s = None

        outage = FaultSpec(kind="channel_outage", start=200.0, duration=120.0,
                           target="downlink:supervisor_host:pca-safety")
        stops = []
        for with_listener in (False, True):
            system = ClosedLoopPCASystem(PCASystemConfig(duration_s=600.0, seed=3, faults=[outage]))
            system.build()
            if with_listener:
                system.host.attach_app(_Listener("listener"))
            system.simulator.run(until=600.0)
            stops.append([(event.time, event.command, event.reason) for event in system.supervisor.events])
        assert stops[0] == stops[1] == [(210.1, "stop", "stale data on respiratory_rate")]

    def test_invalid_spo2_fails_safe(self):
        supervisor, host = make_supervisor()

        class _Message:
            sent_at = 50.0
            delivered_at = 50.0

        supervisor.on_data("spo2", Reading(0.0, False, 50.0), _Message())
        feed(supervisor, 50.0, heart_rate=75.0, respiratory_rate=14.0)
        supervisor.step(50.0)
        assert supervisor.pump_stopped

    def test_resume_after_recovery_and_hold_time(self):
        supervisor, host = make_supervisor()
        feed(supervisor, 10.0, spo2=88.0, heart_rate=75.0, respiratory_rate=12.0)
        supervisor.step(10.0)
        assert supervisor.pump_stopped
        feed(supervisor, 50.0, spo2=96.5, heart_rate=75.0, respiratory_rate=13.0)
        supervisor.step(50.0)
        feed(supervisor, 160.0, spo2=97.0, heart_rate=75.0, respiratory_rate=13.0)
        supervisor.step(160.0)
        assert supervisor.pump_stopped  # hold time not yet elapsed
        resume_at = 50.0 + RESUME_HOLD_TIME_S
        feed(supervisor, resume_at, spo2=97.0, heart_rate=75.0, respiratory_rate=13.0)
        supervisor.step(resume_at)
        assert not supervisor.pump_stopped
        assert supervisor.resume_count == 1
        assert host.commands == [("pump-1", "stop"), ("pump-1", "resume")]


class TestDelayBudget:
    def test_component_validation(self):
        with pytest.raises(ValueError):
            DelayComponent(name="x", nominal_s=-1.0)
        with pytest.raises(ValueError):
            DelayComponent(name="x", nominal_s=2.0, worst_case_s=1.0)

    def test_budget_totals(self):
        budget = DelayBudget()
        budget.add(DelayComponent("a", 1.0, 2.0)).add(DelayComponent("b", 0.5))
        assert budget.nominal_total_s == pytest.approx(1.5)
        assert budget.worst_case_total_s == pytest.approx(2.5)
        assert budget.dominant_component().name == "a"

    def test_duplicate_component_rejected(self):
        budget = DelayBudget()
        budget.add(DelayComponent("a", 1.0))
        with pytest.raises(ValueError):
            budget.add(DelayComponent("a", 2.0))

    def test_loop_delay_budget_structure(self):
        budget = loop_delay_budget(
            sensor_sample_period_s=2.0,
            signal_processing_delay_s=3.0,
            uplink_latency_s=0.05,
            supervisor_step_period_s=2.0,
            algorithm_delay_s=0.1,
            command_latency_s=0.05,
            pump_stop_delay_s=1.0,
        )
        assert len(budget.components) == 7
        assert budget.worst_case_total_s > budget.nominal_total_s
        rows = budget.as_rows()
        assert rows[-1]["component"] == "TOTAL"

    def test_retransmissions_increase_worst_case(self):
        kwargs = dict(
            sensor_sample_period_s=2.0, signal_processing_delay_s=3.0, uplink_latency_s=0.1,
            supervisor_step_period_s=2.0, algorithm_delay_s=0.1, command_latency_s=0.1,
            pump_stop_delay_s=1.0,
        )
        without = loop_delay_budget(**kwargs)
        with_retx = loop_delay_budget(retransmissions=3, **kwargs)
        assert with_retx.worst_case_total_s > without.worst_case_total_s

    def test_additional_drug_during_reaction(self):
        budget = DelayBudget([DelayComponent("total", 36.0)])
        drug = max_additional_drug_during_reaction(budget, basal_rate_mg_per_hr=10.0, pending_bolus_mg=1.0)
        assert drug == pytest.approx(1.0 + 0.1)

    def test_worst_defaults_to_nominal(self):
        assert DelayComponent("x", 1.5).worst == 1.5
        assert DelayComponent("x", 1.5, 4.0).worst == 4.0

    def test_component_lookup_by_name(self):
        budget = DelayBudget().add(DelayComponent("a", 1.0)).add(DelayComponent("b", 2.0))
        assert budget.component("b").nominal_s == 2.0
        with pytest.raises(KeyError):
            budget.component("c")

    def test_empty_budget(self):
        budget = DelayBudget()
        assert budget.nominal_total_s == 0.0
        assert budget.worst_case_total_s == 0.0
        assert budget.dominant_component() is None
        assert [row["component"] for row in budget.as_rows()] == ["TOTAL"]

    def test_total_row_matches_the_budget(self):
        budget = DelayBudget().add(DelayComponent("a", 1.0, 3.0)).add(DelayComponent("b", 0.5))
        rows = budget.as_rows()
        assert [row["component"] for row in rows] == ["a", "b", "TOTAL"]
        assert rows[0]["worst_case_s"] == 3.0
        assert rows[-1]["nominal_s"] == pytest.approx(budget.nominal_total_s)
        assert rows[-1]["worst_case_s"] == pytest.approx(budget.worst_case_total_s)

    def test_worst_case_loses_a_full_sample_and_step_period(self):
        budget = loop_delay_budget(
            sensor_sample_period_s=2.0, signal_processing_delay_s=3.0, uplink_latency_s=0.1,
            supervisor_step_period_s=4.0, algorithm_delay_s=0.1, command_latency_s=0.2,
            pump_stop_delay_s=1.0, retransmissions=2,
        )
        assert budget.component("sensor_sampling").nominal_s == 1.0
        assert budget.component("sensor_sampling").worst == 2.0
        assert budget.component("supervisor_scheduling").worst == 4.0
        assert budget.component("network_uplink").worst == pytest.approx(0.3)
        assert budget.component("command_transmission").worst == pytest.approx(0.6)
        assert budget.worst_case_total_s == pytest.approx(2.0 + 3.0 + 0.3 + 4.0 + 0.1 + 0.6 + 1.0)

    def test_negative_retransmissions_rejected(self):
        with pytest.raises(ValueError):
            loop_delay_budget(
                sensor_sample_period_s=2.0, signal_processing_delay_s=3.0, uplink_latency_s=0.1,
                supervisor_step_period_s=2.0, algorithm_delay_s=0.1, command_latency_s=0.1,
                pump_stop_delay_s=1.0, retransmissions=-1,
            )

    def test_nominal_reaction_delivers_less_drug(self):
        budget = DelayBudget([DelayComponent("total", 36.0, 72.0)])
        nominal = max_additional_drug_during_reaction(budget, basal_rate_mg_per_hr=10.0, worst_case=False)
        worst = max_additional_drug_during_reaction(budget, basal_rate_mg_per_hr=10.0)
        assert nominal == pytest.approx(0.1)
        assert worst == pytest.approx(0.2)

    @pytest.mark.parametrize(
        "rate, bolus", [(-1.0, 0.0), (1.0, -0.5)], ids=["negative_rate", "negative_bolus"]
    )
    def test_negative_drug_amounts_rejected(self, rate, bolus):
        budget = DelayBudget([DelayComponent("total", 36.0)])
        with pytest.raises(ValueError):
            max_additional_drug_during_reaction(budget, basal_rate_mg_per_hr=rate, pending_bolus_mg=bolus)

class TestCaregiver:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            CaregiverConfig(rounding_period_s=0.0).validate()
        with pytest.raises(ValueError):
            CaregiverConfig(distraction_probability=1.5).validate()

    def test_rounds_happen_periodically(self):
        simulator = Simulator()
        caregiver = Caregiver("nurse", CaregiverConfig(rounding_period_s=100.0),
                              rng=np.random.default_rng(0))
        simulator.register(caregiver)
        simulator.run(until=450.0)
        assert caregiver.rounds_done == 4

    def test_alarm_response_has_delay(self):
        simulator = Simulator()
        caregiver = Caregiver("nurse", CaregiverConfig(distraction_probability=0.0),
                              rng=np.random.default_rng(1))
        simulator.register(caregiver)
        simulator.schedule(10.0, lambda: caregiver.notify_alarm("low_spo2"))
        simulator.run(until=4000.0)
        alarm_responses = [t for t, label in caregiver.interventions if label == "low_spo2"]
        assert alarm_responses and alarm_responses[0] > 10.0 + 10.0

    def test_distraction_misses_alarms(self):
        simulator = Simulator()
        caregiver = Caregiver("nurse", CaregiverConfig(distraction_probability=1.0),
                              rng=np.random.default_rng(2))
        simulator.register(caregiver)
        assert not caregiver.notify_alarm("x")
        assert caregiver.alarms_missed == 1

    def test_alarm_fatigue_reduces_attention(self):
        caregiver = Caregiver("nurse", CaregiverConfig(fatigue_half_life=5.0),
                              rng=np.random.default_rng(3))
        initial = caregiver.attention
        caregiver.false_alarms_seen = 10
        assert caregiver.attention < initial

    def test_response_rate_accounting(self):
        simulator = Simulator()
        caregiver = Caregiver("nurse", CaregiverConfig(distraction_probability=0.5),
                              rng=np.random.default_rng(4))
        simulator.register(caregiver)
        for _ in range(40):
            caregiver.notify_alarm("x")
        assert 0.0 < caregiver.response_rate < 1.0


class TestAlarmRelay:
    @pytest.mark.parametrize("spo2, alarms", [
        (SPO2_STOP_THRESHOLD - 0.1, 1), (SPO2_STOP_THRESHOLD, 0), (float("nan"), 0)],
        ids=["below", "at", "empty_window"])
    def test_alarms_only_below_the_stop_threshold(self, spo2, alarms):
        notified = []
        oximeter = type("Oximeter", (), {"current_spo2": spo2})()
        caregiver = type("Caregiver", (), {"notify_alarm": lambda self, label: notified.append(label)})()
        relay = _AlarmRelay(oximeter, caregiver)
        relay._check()
        assert relay.alarms_raised == alarms
        assert notified == ["low_spo2"] * alarms


class TestClosedLoopPCASystem:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            PCASystemConfig(mode="bogus").validate()
        with pytest.raises(ValueError):
            PCASystemConfig(duration_s=0.0).validate()

    def test_build_is_idempotent(self):
        system = ClosedLoopPCASystem(PCASystemConfig(duration_s=60.0))
        system.build()
        pump_before = system.pump
        system.build()
        assert system.pump is pump_before

    def test_closed_loop_has_supervisor_open_loop_does_not(self):
        closed = ClosedLoopPCASystem(PCASystemConfig(mode="closed_loop", duration_s=60.0)).build()
        open_ = ClosedLoopPCASystem(PCASystemConfig(mode="open_loop", duration_s=60.0)).build()
        assert closed.supervisor is not None
        assert open_.supervisor is None

    def test_run_produces_result_record(self):
        result = ClosedLoopPCASystem(PCASystemConfig(mode="closed_loop", duration_s=1800.0, seed=1)).run()
        assert result.mode == "closed_loop"
        assert result.min_spo2 > 0
        record = result.as_record()
        assert record["patient_id"] == "default"

    def test_closed_loop_protects_against_misprogramming(self):
        population = PatientPopulation(seed=5)
        patient = population.sample_one("victim")
        prescription = PCAPrescription(bolus_dose_mg=1.5, lockout_interval_s=300.0,
                                       hourly_limit_mg=12.0, basal_rate_mg_per_hr=1.0)
        fault = [FaultSpec(kind="misprogramming", start=1200.0, target="pca-pump-1",
                           parameters={"rate_multiplier": 6.0})]
        results = {}
        for mode in ("open_loop", "closed_loop"):
            config = PCASystemConfig(mode=mode, duration_s=3.0 * 3600.0, patient=patient,
                                     prescription=prescription, faults=fault, seed=9)
            results[mode] = ClosedLoopPCASystem(config).run()
        assert results["closed_loop"].min_spo2 > results["open_loop"].min_spo2
        assert results["closed_loop"].supervisor_stops >= 1
        assert (
            results["closed_loop"].respiratory_failure_events
            <= results["open_loop"].respiratory_failure_events
        )
        assert not results["closed_loop"].harmed

    def test_paired_runs_reproducible(self):
        config = PCASystemConfig(mode="closed_loop", duration_s=1800.0, seed=3)
        a = ClosedLoopPCASystem(config).run()
        b = ClosedLoopPCASystem(PCASystemConfig(mode="closed_loop", duration_s=1800.0, seed=3)).run()
        assert a.min_spo2 == pytest.approx(b.min_spo2)
        assert a.total_drug_delivered_mg == pytest.approx(b.total_drug_delivered_mg)

    def test_communication_outage_triggers_fail_safe_stop(self):
        faults = [FaultSpec(kind="channel_outage", start=600.0, duration=1200.0,
                            target="uplink:pulse-ox-1")]
        config = PCASystemConfig(mode="closed_loop", duration_s=3600.0, faults=faults, seed=2)
        system = ClosedLoopPCASystem(config)
        result = system.run()
        assert result.supervisor_stops >= 1
        reasons = [event.reason for event in system.supervisor.events]
        assert any("stale" in reason for reason in reasons)
