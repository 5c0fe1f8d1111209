"""The patient step against its numpy-scalar reference, bit for bit.

``PatientModel.advance_by`` runs the PK, PD, vital-sign and MAP steps on
Python floats with inlined checks and clamps, and appends its seven trace
rows straight to their batches.  ``tests/patient_reference.py`` keeps the
same step on numpy scalars, ``min``/``max`` and ``float()``.  After every
step the two must hold the same bits: vital signs, effect site, PK state,
drug delivered, respiratory-failure onset and the seven trace rows.
"""

from __future__ import annotations

import struct
from dataclasses import replace

from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.loop as loop
from patient_reference import ReferencePatient
from repro.core.loop import ClosedLoopPCASystem, PCASystemConfig
from repro.devices.pca_pump import PCAPrescription
from repro.patient.model import PatientModel
from repro.patient.population import DEFAULT_PATIENT, PatientPopulation
from repro.scenarios.pca_scenario import pca_fault_campaign
from repro.sim.trace import TraceRecorder

SIGNALS = ("plasma_mg_per_l", "effect_site_mg_per_l", "spo2", "heart_rate",
           "respiratory_rate", "pain", "true_map")


def packed_state(patient: PatientModel) -> bytes:
    vitals = patient.vital_signs
    values = (vitals.respiratory_rate_bpm, vitals.spo2_percent, vitals.heart_rate_bpm,
              vitals.pain_level, patient.effect_site_concentration_mg_per_l,
              patient.plasma_concentration_mg_per_l, patient.pk.central_amount_mg,
              patient.pk.peripheral_amount_mg, patient.map_model.true_map_mmhg,
              patient.total_drug_delivered_mg)
    onset = patient._respiratory_failure_onset
    return struct.pack("<10d?d", *values, onset is not None, onset or 0.0)


def packed_trace(trace: TraceRecorder, patient_id: str) -> list:
    rows = [(signal, [struct.pack("<dd", time, value)
                      for time, value in trace.samples(f"{patient_id}:{signal}")])
            for signal in SIGNALS]
    failures = trace.times(f"{patient_id}:respiratory_failure").tolist()
    return rows + [("respiratory_failure", failures)]


def pair(parameters):
    traces = (TraceRecorder(), TraceRecorder())
    return (PatientModel(parameters, trace=traces[0]),
            ReferencePatient(parameters, trace=traces[1]), traces)


def step_both(model, reference, action):
    kind, value, *rest = action
    for patient in (model, reference):
        if kind == "bolus":
            patient.infuse_bolus(value)
        elif kind == "rate":
            patient.set_infusion_rate(value)
        else:
            got = patient.advance_by(value, record_time=rest[0])
            assert got is patient.vital_signs
    assert packed_state(model) == packed_state(reference)


patients = st.builds(
    lambda seed, sensitive, athlete, weight: replace(
        PatientPopulation(seed=seed).sample_one("p", sensitive=sensitive, athlete=athlete),
        weight_kg=weight),
    st.integers(0, 2**16), st.booleans(), st.booleans(), st.floats(20.0, 200.0))
dt_values = st.one_of(st.sampled_from((0.0, 5.0 / 60.0)),
                      st.floats(0.0, 30.0, allow_nan=False, allow_infinity=False))
# (bolus mg, infusion rate mg/min, step min, whether the step is recorded)
inputs = st.lists(st.tuples(st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
                            st.one_of(st.just(0.0), st.floats(0.0, 0.5)),
                            dt_values, st.booleans()),
                  min_size=1, max_size=60)


@settings(max_examples=150, deadline=None)
@given(patients, inputs)
# Sub-picosecond infusion steps, whose forced response rounds below zero in
# the central and then the peripheral compartment: the PK clamps decide.
@example(DEFAULT_PATIENT, [(0.0, 0.5, 1e-16, True), (0.0, 0.5, 1e-12, True)])
def test_step_matches_the_reference_bit_for_bit(parameters, sequence):
    model, reference, traces = pair(parameters)
    now = 0.0
    for bolus, rate, dt_min, recorded in sequence:
        if bolus:
            step_both(model, reference, ("bolus", bolus))
        step_both(model, reference, ("rate", rate))
        now += dt_min * 60.0
        step_both(model, reference, ("step", dt_min, now if recorded else None))
    assert packed_trace(traces[0], "p") == packed_trace(traces[1], "p")


def closed_loop_inputs():
    """The drug inputs and steps a 3 h closed-loop run feeds its patient."""
    actions = []

    class RecordingPatient(PatientModel):
        def infuse_bolus(self, dose_mg):
            actions.append(("bolus", dose_mg))
            super().infuse_bolus(dose_mg)

        def set_infusion_rate(self, rate_mg_per_min):
            actions.append(("rate", rate_mg_per_min))
            super().set_infusion_rate(rate_mg_per_min)

        def advance_by(self, dt_min, record_time=None):
            actions.append(("step", dt_min, record_time))
            return super().advance_by(dt_min, record_time)

    # E1's first patient (opioid-sensitive draw, misprogramming faults).
    patient = PatientPopulation(seed=101).sample(8, sensitive_fraction=0.3)[0]
    config = PCASystemConfig(
        mode="closed_loop", duration_s=3.0 * 3600.0, patient=patient,
        prescription=PCAPrescription(bolus_dose_mg=1.5, lockout_interval_s=300.0,
                                     hourly_limit_mg=12.0, basal_rate_mg_per_hr=1.5),
        faults=pca_fault_campaign(misprogramming_rate_multiplier=4.0), seed=500)
    original = loop.PatientModel
    loop.PatientModel = RecordingPatient
    try:
        ClosedLoopPCASystem(config).run()
    finally:
        loop.PatientModel = original
    return patient, actions


def test_closed_loop_replay_matches_the_reference():
    parameters, actions = closed_loop_inputs()
    assert sum(action[0] == "step" for action in actions) == 2160
    assert any(action[0] == "bolus" for action in actions)
    model, reference, traces = pair(parameters)
    for action in actions:
        step_both(model, reference, action)
    assert packed_trace(traces[0], parameters.patient_id) == \
        packed_trace(traces[1], parameters.patient_id)
