"""E10: supervisory adaptive control under patient-parameter uncertainty (Section III(g)).

A closed-loop sedation-depth controller titrates a continuous infusion to
hold a target effect (analgesia level) across a population whose drug
sensitivity spans a wide range.  A single fixed-gain PID (tuned for the
nominal patient) is compared with a Morse-style supervisory adaptive
controller that switches between candidate controllers tuned for low /
nominal / high sensitivity.  Metrics: tracking error and overshoot into the
respiratory-depression danger zone.
"""

import numpy as np

from conftest import emit

from repro.analysis.stats import summarise
from repro.analysis.tables import Table
from repro.control.pid import PIDController, PIDGains
from repro.control.supervisory import CandidateController, SupervisoryAdaptiveController, SupervisoryConfig
from repro.patient.model import PatientModel
from repro.patient.population import PatientPopulation

TARGET_ANALGESIA = 0.6
DANGER_DEPRESSION = 0.5
STEP_MIN = 1.0
DURATION_MIN = 180
MAX_RATE_MG_PER_MIN = 0.4


def _make_pid(gain_scale):
    """A PID tuned for a patient of the given sensitivity (gain) hypothesis.

    The fixed-gain comparator uses the controller tuned for the *resistant*
    (low-sensitivity) end of the range -- the clinically tempting choice,
    because it reaches the analgesia target fastest for the average patient --
    which is exactly the controller that overshoots sensitive patients into
    respiratory depression.
    """
    return PIDController(PIDGains(kp=1.2 / gain_scale, ki=0.05 / gain_scale),
                         output_min=0.0, output_max=MAX_RATE_MG_PER_MIN, setpoint=TARGET_ANALGESIA)


def _make_adaptive():
    candidates = []
    for name, sensitivity in (("low", 0.5), ("nominal", 1.0), ("high", 2.2)):
        candidates.append(CandidateController(
            name=name,
            controller=_make_pid(sensitivity),
            predictor=lambda output, dt, s=sensitivity: 0.08 * s * output * dt,
        ))
    return SupervisoryAdaptiveController(
        candidates, SupervisoryConfig(dwell_time_s=10.0, hysteresis=1.1, forgetting_factor=0.95))


def _run_patient(patient, controller_kind):
    patient_model = PatientModel(patient)
    controller = _make_adaptive() if controller_kind == "adaptive" else _make_pid(0.5)
    errors, danger_minutes = [], 0
    for minute in range(DURATION_MIN):
        analgesia = patient_model.pd.analgesia()
        if controller_kind == "adaptive":
            rate = controller.update(minute * 60.0, analgesia, dt=STEP_MIN)
        else:
            rate = controller.update(analgesia, dt=STEP_MIN)
        patient_model.set_infusion_rate(rate)
        patient_model.advance_by(STEP_MIN)
        errors.append(abs(TARGET_ANALGESIA - patient_model.pd.analgesia()))
        if patient_model.pd.respiratory_depression() > DANGER_DEPRESSION:
            danger_minutes += 1
    return float(np.mean(errors[30:])), danger_minutes


def test_e10_adaptive_control():
    population = PatientPopulation(seed=91)
    patients = population.sample(10, sensitive_fraction=0.4)

    def _run_all():
        results = {"fixed_pid": [], "adaptive": []}
        for patient in patients:
            for kind in results:
                results[kind].append(_run_patient(patient, kind))
        return results

    results = _run_all()

    table = Table(
        "E10: fixed-gain PID vs supervisory adaptive control across patient sensitivity range",
        ["controller", "mean_tracking_error", "worst_tracking_error", "patients_in_danger",
         "total_danger_minutes"],
        notes=f"target analgesia {TARGET_ANALGESIA}; danger = respiratory depression > {DANGER_DEPRESSION}",
    )
    summary = {}
    for kind, rows in results.items():
        tracking = summarise([error for error, _ in rows])
        danger_minutes = sum(minutes for _, minutes in rows)
        patients_in_danger = sum(1 for _, minutes in rows if minutes > 0)
        summary[kind] = (tracking.mean, danger_minutes)
        table.add_row(kind, tracking.mean, tracking.maximum, patients_in_danger, danger_minutes)
    emit(table)

    # Shape: the adaptive supervisor avoids the danger-zone excursions the
    # aggressively tuned fixed controller causes in sensitive patients, while
    # keeping tracking in the same ballpark.
    assert summary["adaptive"][1] < summary["fixed_pid"][1]
    assert summary["adaptive"][0] <= summary["fixed_pid"][0] + 0.05
