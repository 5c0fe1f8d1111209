"""E4: patient-adaptive thresholds and multivariate smart alarms (Section III(i)).

A monitored cohort (including athletes with low resting heart rates) generates
probe-off artefacts and genuine desaturation episodes.  Three alarm designs
are compared on false alarms, missed events, and the knock-on effect of alarm
fatigue on caregiver responsiveness:

* fixed population thresholds (the status quo the paper criticises);
* EHR-adaptive thresholds (the athlete example);
* adaptive thresholds + multivariate corroboration (the disconnected-wire
  example).
"""

import numpy as np

from conftest import emit

from repro.alarms.adaptive import AdaptiveThresholdAlarm
from repro.alarms.fatigue import AlarmFatigueModel
from repro.alarms.smart import SmartAlarmEngine, spo2_wire_disconnection_rules
from repro.alarms.thresholds import ThresholdAlarm, default_adult_rules
from repro.analysis.metrics import classify_alarms
from repro.analysis.tables import Table
from repro.ehr.store import EHRStore
from repro.patient.population import PatientPopulation

COHORT = 12
DURATION_S = 6.0 * 3600.0
SAMPLE_PERIOD_S = 30.0


def _simulate_cohort(design, seed=77):
    """Replay synthetic monitored traces through the chosen alarm design."""
    rng = np.random.default_rng(seed)
    population = PatientPopulation(seed=seed)
    patients = population.sample(COHORT, sensitive_fraction=0.0, athlete_fraction=0.4)
    ehr = EHRStore()
    total_false, total_true_alarms, total_missed, episodes_total = 0, 0, 0, 0
    alarm_stream = []

    for patient in patients:
        ehr.admit_from_parameters(patient)
        # Ground truth: one genuine desaturation episode in half the cohort.
        has_episode = rng.random() < 0.5
        episode = (DURATION_S * 0.5, DURATION_S * 0.5 + 1200.0) if has_episode else None
        # Probe-off artefacts: SpO2 collapses while circulation is normal.
        artefact_times = sorted(rng.uniform(0.1, 0.9, size=3) * DURATION_S)

        if design == "fixed":
            engine = SmartAlarmEngine(ThresholdAlarm("fixed", default_adult_rules(), rearm_time_s=300.0))
        elif design == "adaptive":
            engine = SmartAlarmEngine(
                AdaptiveThresholdAlarm("adaptive", ehr, patient.patient_id, rearm_time_s=300.0))
        else:
            engine = SmartAlarmEngine(
                AdaptiveThresholdAlarm("smart", ehr, patient.patient_id, rearm_time_s=300.0),
                corroboration_rules=spo2_wire_disconnection_rules())

        times = np.arange(SAMPLE_PERIOD_S, DURATION_S, SAMPLE_PERIOD_S)
        for time in times:
            spo2 = patient.baseline_spo2 + rng.normal(0.0, 0.5)
            heart_rate = patient.baseline_heart_rate_bpm + rng.normal(0.0, 2.0)
            map_mmhg = 90.0 + rng.normal(0.0, 2.0)
            if episode and episode[0] <= time <= episode[1]:
                progress = min(1.0, (time - episode[0]) / 600.0)
                spo2 -= 12.0 * progress
                heart_rate += 20.0 * progress
                map_mmhg -= 20.0 * progress
            if any(abs(time - artefact) < SAMPLE_PERIOD_S for artefact in artefact_times):
                spo2 = rng.uniform(20.0, 60.0)  # probe fell off; circulation unchanged
            engine.observe(float(time), "map", float(map_mmhg))
            engine.observe(float(time), "ecg_heart_rate", float(heart_rate))
            engine.observe(float(time), "heart_rate", float(heart_rate))
            engine.observe(float(time), "spo2", float(spo2))

        episodes = [episode] if episode else []
        confusion = classify_alarms(engine.clinical_alarm_times, episodes, detection_lead_s=60.0)
        total_false += confusion.false_positives
        total_true_alarms += confusion.true_positives
        total_missed += confusion.false_negatives
        episodes_total += len(episodes)
        for alarm_time in engine.clinical_alarm_times:
            is_false = not (episode and episode[0] - 60.0 <= alarm_time <= episode[1])
            alarm_stream.append((alarm_time, is_false))

    # Alarm fatigue: what fraction of *true* alarms would the caregiver miss?
    fatigue = AlarmFatigueModel()
    responses = fatigue.simulate_responses(alarm_stream, rng=np.random.default_rng(1))
    missed_by_fatigue = sum(1 for (time, is_false), responded in zip(sorted(alarm_stream), responses)
                            if not is_false and not responded)
    return {
        "false_alarms": total_false,
        "true_alarms": total_true_alarms,
        "missed_episodes": total_missed,
        "episodes": episodes_total,
        "true_alarms_missed_by_fatigue": missed_by_fatigue,
    }


def test_e4_smart_alarms():
    designs = ("fixed", "adaptive", "smart")
    results = {design: _simulate_cohort(design) for design in designs}

    table = Table(
        "E4: false-alarm reduction from adaptive thresholds and multivariate correlation",
        ["alarm design", "false_alarms", "true_alarms", "missed_episodes",
         "true_alarms_missed_by_fatigue"],
        notes=f"{COHORT}-patient cohort, 40% athletes, probe-off artefacts + genuine desaturations",
    )
    for design in designs:
        r = results[design]
        table.add_row(design, r["false_alarms"], r["true_alarms"], r["missed_episodes"],
                      r["true_alarms_missed_by_fatigue"])
    emit(table)

    assert results["adaptive"]["false_alarms"] <= results["fixed"]["false_alarms"]
    assert results["smart"]["false_alarms"] <= results["adaptive"]["false_alarms"]
    assert results["smart"]["missed_episodes"] <= results["fixed"]["missed_episodes"] + 1
