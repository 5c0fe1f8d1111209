"""Tests for alarm systems (threshold, adaptive, smart, fatigue) and the EHR."""

import numpy as np
import pytest

from repro.alarms.adaptive import AdaptiveMargins, AdaptiveThresholdAlarm, adaptive_rules_for_patient
from repro.alarms.fatigue import AlarmFatigueModel, FatigueParameters
from repro.alarms.smart import (
    ContextEvent,
    CorroborationRule,
    SmartAlarmEngine,
    SuppressionRule,
    bed_map_suppression_rules,
    spo2_wire_disconnection_rules,
)
from repro.alarms.thresholds import (
    AlarmSeverity,
    ThresholdAlarm,
    ThresholdRule,
    default_adult_rules,
)
from repro.ehr.store import EHRStore, HistoryEntry
from repro.patient.population import PatientPopulation
from repro.readings import Reading


class TestThresholdAlarm:
    def test_rule_validation(self):
        with pytest.raises(ValueError):
            ThresholdRule(vital="spo2", threshold=90.0, direction="sideways")
        with pytest.raises(ValueError):
            ThresholdRule(vital="spo2", threshold=90.0, persistence_s=-1.0)

    def test_below_rule_fires(self):
        alarm = ThresholdAlarm("a", [ThresholdRule("spo2", 90.0, "below")])
        raised = alarm.observe(10.0, "spo2", 88.0)
        assert len(raised) == 1
        assert raised[0].vital == "spo2"

    def test_above_rule_fires(self):
        alarm = ThresholdAlarm("a", [ThresholdRule("heart_rate", 120.0, "above")])
        assert alarm.observe(0.0, "heart_rate", 130.0)

    def test_no_alarm_within_limits(self):
        alarm = ThresholdAlarm("a", default_adult_rules())
        assert alarm.observe(0.0, "spo2", 97.0) == []
        assert alarm.observe(0.0, "heart_rate", 75.0) == []

    def test_other_vital_ignored(self):
        alarm = ThresholdAlarm("a", [ThresholdRule("spo2", 90.0)])
        assert alarm.observe(0.0, "heart_rate", 10.0) == []

    def test_rearm_time_suppresses_repeats(self):
        alarm = ThresholdAlarm("a", [ThresholdRule("spo2", 90.0)], rearm_time_s=60.0)
        assert alarm.observe(0.0, "spo2", 85.0)
        assert alarm.observe(10.0, "spo2", 85.0) == []
        assert alarm.observe(61.0, "spo2", 85.0)

    def test_persistence_filter(self):
        alarm = ThresholdAlarm("a", [ThresholdRule("spo2", 90.0, persistence_s=30.0)])
        assert alarm.observe(0.0, "spo2", 85.0) == []
        assert alarm.observe(10.0, "spo2", 85.0) == []
        assert alarm.observe(31.0, "spo2", 85.0)

    def test_persistence_resets_on_recovery(self):
        alarm = ThresholdAlarm("a", [ThresholdRule("spo2", 90.0, persistence_s=30.0)])
        alarm.observe(0.0, "spo2", 85.0)
        alarm.observe(10.0, "spo2", 95.0)
        assert alarm.observe(35.0, "spo2", 85.0) == []

    def test_alarm_times_and_filtering(self):
        alarm = ThresholdAlarm("a", default_adult_rules(), rearm_time_s=0.0)
        alarm.observe(1.0, "spo2", 80.0)
        alarm.observe(2.0, "map", 50.0)
        assert alarm.alarm_times == [1.0, 2.0]
        assert len(alarm.alarms_for("map")) == 1


class TestThresholdAlarmReadingIntake:
    def _alarm(self):
        return ThresholdAlarm("t", [
            ThresholdRule(vital="spo2", threshold=90.0, direction="below",
                          severity=AlarmSeverity.CRITICAL),
        ], rearm_time_s=0.0)

    def test_observe_reading_matches_observe(self):
        via_reading, via_scalar = self._alarm(), self._alarm()
        raised_r = via_reading.observe_reading("spo2", Reading(85.0, True, 10.0))
        raised_s = via_scalar.observe(10.0, "spo2", 85.0)
        assert len(raised_r) == len(raised_s) == 1
        assert raised_r[0] == raised_s[0]

    def test_invalid_reading_raises_nothing(self):
        alarm = self._alarm()
        # Probe-off artefact: value 0.0 would trip the threshold if the
        # validity flag were ignored.
        assert alarm.observe_reading("spo2", Reading(0.0, False, 10.0)) == []
        assert alarm.alarms == []

    def test_smart_engine_observe_reading(self):
        engine = SmartAlarmEngine(self._alarm())
        assert engine.observe_reading("spo2", Reading(0.0, False, 5.0)) == []
        raised = engine.observe_reading("spo2", Reading(84.0, True, 6.0))
        assert len(raised) == 1
        assert raised[0].time == 6.0


class TestAdaptiveAlarm:
    @pytest.fixture
    def ehr_with_athlete(self):
        ehr = EHRStore()
        population = PatientPopulation(seed=11)
        athlete = population.sample_one("athlete-1", athlete=True)
        typical = population.sample_one("typical-1")
        ehr.admit_from_parameters(athlete)
        ehr.admit_from_parameters(typical)
        return ehr, athlete, typical

    def test_margins_validation(self):
        with pytest.raises(ValueError):
            AdaptiveMargins(heart_rate_low_fraction=1.5).validate()

    def test_athlete_gets_lower_heart_rate_limit(self, ehr_with_athlete):
        ehr, athlete, typical = ehr_with_athlete
        athlete_rules = adaptive_rules_for_patient(ehr, athlete.patient_id)
        typical_rules = adaptive_rules_for_patient(ehr, typical.patient_id)
        athlete_low = next(r for r in athlete_rules if r.vital == "heart_rate" and r.direction == "below")
        typical_low = next(r for r in typical_rules if r.vital == "heart_rate" and r.direction == "below")
        assert athlete_low.threshold < typical_low.threshold

    def test_athlete_bradycardia_not_alarmed_adaptively(self, ehr_with_athlete):
        ehr, athlete, typical = ehr_with_athlete
        fixed = ThresholdAlarm("fixed", default_adult_rules())
        adaptive = AdaptiveThresholdAlarm("adaptive", ehr, athlete.patient_id)
        resting_hr = athlete.baseline_heart_rate_bpm  # below 60
        assert fixed.observe(0.0, "heart_rate", resting_hr - 3.0)
        assert adaptive.observe(0.0, "heart_rate", resting_hr - 3.0) == []

    def test_adaptive_still_alarms_on_genuine_bradycardia(self, ehr_with_athlete):
        ehr, athlete, _ = ehr_with_athlete
        adaptive = AdaptiveThresholdAlarm("adaptive", ehr, athlete.patient_id)
        assert adaptive.observe(0.0, "heart_rate", athlete.baseline_heart_rate_bpm * 0.5)

    def test_missing_baseline_falls_back_to_default(self):
        ehr = EHRStore()
        ehr.admit("mystery")
        rules = adaptive_rules_for_patient(ehr, "mystery")
        spo2_rule = next(r for r in rules if r.vital == "spo2")
        assert spo2_rule.threshold == pytest.approx(91.0)

    def test_refresh_from_ehr_picks_up_new_baseline(self, ehr_with_athlete):
        ehr, athlete, _ = ehr_with_athlete
        adaptive = AdaptiveThresholdAlarm("adaptive", ehr, athlete.patient_id)
        ehr.set_baseline(athlete.patient_id, "heart_rate_bpm", 90.0)
        adaptive.refresh_from_ehr()
        low = next(r for r in adaptive.rules if r.vital == "heart_rate" and r.direction == "below")
        assert low.threshold == pytest.approx(90.0 * 0.65)


class TestSmartAlarmEngine:
    def _engine(self, **kwargs):
        base = ThresholdAlarm("base", default_adult_rules(), rearm_time_s=0.0)
        return SmartAlarmEngine(base, **kwargs)

    def test_clinical_alarm_passes_through_without_rules(self):
        engine = self._engine()
        raised = engine.observe(0.0, "spo2", 80.0)
        assert len(raised) == 1
        assert engine.counts()["clinical"] == 1

    def test_corroborated_alarm_is_clinical(self):
        engine = self._engine(corroboration_rules=spo2_wire_disconnection_rules())
        engine.observe(0.0, "map", 55.0)           # blood pressure also collapsing
        raised = engine.observe(1.0, "spo2", 70.0)
        assert raised  # genuine emergency
        assert engine.counts()["technical"] == 0 or engine.counts()["clinical"] >= 1

    def test_uncorroborated_spo2_drop_becomes_technical(self):
        engine = self._engine(corroboration_rules=spo2_wire_disconnection_rules())
        engine.observe(0.0, "map", 92.0)            # blood pressure normal
        raised = engine.observe(1.0, "spo2", 40.0)  # probe fell off
        assert raised == []
        assert engine.counts()["technical"] == 1
        assert engine.counts()["clinical"] == 0

    def test_stale_corroboration_ignored(self):
        engine = self._engine(corroboration_rules=spo2_wire_disconnection_rules())
        engine.observe(0.0, "map", 92.0)
        raised = engine.observe(500.0, "spo2", 40.0)  # MAP reading far too old
        assert raised  # falls back to clinical because corroboration is stale

    def test_context_suppression(self):
        engine = self._engine(suppression_rules=bed_map_suppression_rules(window_s=60.0))
        engine.observe_context(ContextEvent(time=10.0, kind="bed_height_change", source="bed"))
        raised = engine.observe(30.0, "map", 55.0)
        assert raised == []
        assert engine.counts()["suppressed"] == 1
        assert engine.technical_advisories  # re-zero advisory

    def test_context_outside_window_does_not_suppress(self):
        engine = self._engine(suppression_rules=bed_map_suppression_rules(window_s=60.0))
        engine.observe_context(ContextEvent(time=10.0, kind="bed_height_change", source="bed"))
        raised = engine.observe(200.0, "map", 55.0)
        assert len(raised) == 1

    def test_suppression_rule_validation(self):
        with pytest.raises(ValueError):
            SuppressionRule(vital="map", context_kind="bed", window_s=0.0)


class TestAlarmFatigue:
    def test_parameters_validation(self):
        with pytest.raises(ValueError):
            FatigueParameters(base_response_probability=0.0).validate()
        with pytest.raises(ValueError):
            FatigueParameters(half_life_false_alarms=0.0).validate()

    def test_no_fatigue_initially(self):
        model = AlarmFatigueModel()
        assert model.response_probability(0.0) == pytest.approx(0.97)

    def test_false_alarms_reduce_response_probability(self):
        model = AlarmFatigueModel()
        for index in range(30):
            model.record_alarm(float(index), is_false=True)
        assert model.response_probability(31.0) < 0.5

    def test_true_alarms_do_not_cause_fatigue(self):
        model = AlarmFatigueModel()
        for index in range(30):
            model.record_alarm(float(index), is_false=False)
        assert model.response_probability(31.0) == pytest.approx(0.97)

    def test_floor_respected(self):
        model = AlarmFatigueModel(FatigueParameters(floor=0.2, half_life_false_alarms=1.0))
        for index in range(100):
            model.record_alarm(float(index), is_false=True)
        assert model.response_probability(101.0) == pytest.approx(0.2)

    def test_old_false_alarms_forgotten(self):
        model = AlarmFatigueModel(FatigueParameters(memory_window_s=100.0))
        for index in range(20):
            model.record_alarm(float(index), is_false=True)
        assert model.recent_false_alarms(1000.0) == 0
        assert model.response_probability(1000.0) == pytest.approx(0.97)

    def test_simulate_responses_degrades_after_false_burst(self):
        model = AlarmFatigueModel(FatigueParameters(half_life_false_alarms=5.0))
        stream = [(float(t), True) for t in range(50)] + [(100.0, False)]
        responses = model.simulate_responses(stream, rng=np.random.default_rng(0))
        assert len(responses) == 51
        # Responses late in the stream should include misses.
        assert not all(responses[25:])


class TestEHRStore:
    def test_admit_and_get(self):
        ehr = EHRStore()
        record = ehr.admit("p1", {"age": 60})
        assert ehr.get("p1") is record
        assert "p1" in ehr and len(ehr) == 1

    def test_admit_twice_merges_demographics(self):
        ehr = EHRStore()
        ehr.admit("p1", {"age": 60})
        ehr.admit("p1", {"sex": "F"})
        assert ehr.get("p1").demographics == {"age": 60, "sex": "F"}

    def test_get_missing_raises(self):
        with pytest.raises(KeyError):
            EHRStore().get("ghost")

    def test_admit_from_parameters_sets_baselines(self):
        ehr = EHRStore()
        patient = PatientPopulation(seed=1).sample_one("p1", athlete=True)
        record = ehr.admit_from_parameters(patient)
        assert record.vital_baselines["heart_rate_bpm"] == patient.baseline_heart_rate_bpm
        assert record.is_athlete

    def test_observations_build_baseline(self):
        ehr = EHRStore()
        ehr.admit("p1")
        for index, value in enumerate([88.0, 90.0, 92.0]):
            ehr.record_observation("p1", float(index), "map_mmhg", value)
        assert ehr.baseline("p1", "map_mmhg") == pytest.approx(90.0)

    def test_baseline_default(self):
        ehr = EHRStore()
        ehr.admit("p1")
        assert ehr.baseline("p1", "unknown", default=42.0) == 42.0

    def test_medication_history(self):
        ehr = EHRStore()
        ehr.admit("p1")
        ehr.record_medication("p1", 10.0, "morphine", 2.0)
        assert "morphine" in ehr.get("p1").medications
        assert ehr.get("p1").history_in_category("medication")

    def test_history_sorted_by_time(self):
        ehr = EHRStore()
        record = ehr.admit("p1")
        record.add_history(HistoryEntry(5.0, "observation", "late"))
        record.add_history(HistoryEntry(1.0, "observation", "early"))
        assert [entry.description for entry in record.history] == ["early", "late"]

    def test_explicit_baseline_overrides_observations(self):
        ehr = EHRStore()
        ehr.admit("p1")
        ehr.record_observation("p1", 0.0, "heart_rate_bpm", 80.0)
        ehr.set_baseline("p1", "heart_rate_bpm", 48)
        assert ehr.baseline("p1", "heart_rate_bpm") == 48.0

    def test_baseline_ignores_other_vitals(self):
        ehr = EHRStore()
        ehr.admit("p1")
        ehr.record_observation("p1", 0.0, "heart_rate_bpm", 60.0)
        ehr.record_observation("p1", 1.0, "map_mmhg", 95.0)
        ehr.record_medication("p1", 2.0, "morphine", 2.0)
        assert ehr.baseline("p1", "heart_rate_bpm") == 60.0
        assert ehr.baseline("p1", "spo2_percent", default=97.0) == 97.0

    def test_three_exercise_entries_mark_an_athlete(self):
        record = EHRStore().admit("p1")
        for index in range(2):
            record.add_history(HistoryEntry(float(index), "exercise", "training"))
        assert not record.is_athlete
        record.add_history(HistoryEntry(2.0, "exercise", "training"))
        assert record.is_athlete

    def test_demographic_flag_marks_an_athlete(self):
        assert EHRStore().admit("p1", {"is_athlete": True}).is_athlete

    def test_observation_for_an_unadmitted_patient_raises(self):
        with pytest.raises(KeyError):
            EHRStore().record_observation("ghost", 0.0, "spo2_percent", 97.0)


class TestEHRReadingIntake:
    def test_record_reading_stores_observation_with_reading_time(self):
        ehr = EHRStore()
        ehr.admit("p1")
        ehr.record_reading("p1", "spo2", Reading(96.0, True, 120.0))
        (entry,) = ehr.get("p1").history_in_category("observation")
        assert entry.time == 120.0
        assert entry.description == "spo2"
        assert entry.data == {"value": 96.0}

    def test_invalid_readings_do_not_poison_baselines(self):
        ehr = EHRStore()
        ehr.admit("p1")
        for index in range(5):
            ehr.record_reading("p1", "map_mmhg", Reading(90.0 + index, True, float(index)))
        ehr.record_reading("p1", "map_mmhg", Reading(0.0, False, 6.0))  # artefact
        assert ehr.baseline("p1", "map_mmhg") == 92.0
