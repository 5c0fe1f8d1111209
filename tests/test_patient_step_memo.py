"""The patient model's memoised decay factors and shared vital-sign snapshot.

The PD, vital-sign and MAP models remember the last decay factor as the
Python ``float`` of ``np.exp``, compute their step in Python floats, and
the vital-sign model hands out one ``VitalSigns`` snapshot per change of
state.  None of this may move a bit: every state below is checked, bit for
bit, against a fresh recomputation of the same step on the ``np.float64``
scalars that ``np.exp`` returns.  A model coerces its step to ``float`` at
entry, so the oracle widens an ``np.float32`` step too.  The ``**`` in
``hill()`` is the one operator whose implementation follows its operand
type, so it is pinned on its own over the operand ranges the cohorts use.
"""

from __future__ import annotations

import struct

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.patient.decay import ExpMemo
from repro.patient.map_model import ArterialPressureModel
from repro.patient.pharmacodynamics import PDParameters, RespiratoryDepressionPD, hill
from repro.patient.vitals import VitalSignsModel

# Steps repeat, alternate, hit 0 and take non-round values; a few are numpy
# scalars of other widths, whose exponent has another type.
dt_values = st.one_of(
    st.sampled_from((5.0 / 60.0, 5.0 / 60.0, 1.0 / 12.0, 0.0, 0.25, 1, 7.3)),
    st.floats(0.0, 30.0, allow_nan=False),
    st.builds(np.float64, st.floats(0.0, 5.0)),
    st.builds(np.float32, st.sampled_from((0.0, 0.25, 5.0 / 60.0))),
)
# (step, plasma or analgesia, respiratory drive); analgesia may reach the
# 1.0001 the vital-sign model accepts, which drives pain below zero.
steps = st.lists(st.tuples(dt_values, st.one_of(st.floats(0.0, 0.2), st.sampled_from((1.0, 1.0001))),
                           st.floats(0.0, 1.0)),
                 min_size=1, max_size=40)
# (baseline SpO2, SpO2 floor, pain decay per minute) set mid-run, unvalidated.
retunes = st.tuples(st.floats(90.0, 105.0), st.floats(50.0, 99.0), st.floats(-5.0, 0.5))


def same(actual, expected) -> bool:
    """Equal float64 bits (``0.0 == -0.0`` is not enough)."""
    return struct.pack("<d", actual) == struct.pack("<d", expected)


def as_step(dt_min):
    """The step as a model computes it: an ``np.float32`` widens to float64."""
    return float(dt_min) if isinstance(dt_min, np.float32) else dt_min


@settings(max_examples=200, deadline=None)
@given(steps)
def test_pd_effect_site_matches_fresh_exp(sequence):
    model = RespiratoryDepressionPD(PDParameters())
    p = model.parameters
    effect_site = 0.0
    for dt_min, plasma, _ in sequence:
        got = model.advance(dt_min, plasma)
        if dt_min != 0:
            decay = np.exp(-p.ke0_per_min * as_step(dt_min))
            effect_site = plasma + (effect_site - plasma) * decay
        assert same(got, effect_site)
        assert same(model.respiratory_drive(got),
                    1.0 - p.max_respiratory_depression * hill(
                        effect_site, p.ec50_respiratory_mg_per_l, p.hill_respiratory))
        assert same(model.analgesia(got),
                    hill(effect_site, p.ec50_analgesia_mg_per_l, p.hill_analgesia))


@settings(max_examples=200, deadline=None)
@given(steps, retunes)
def test_vitals_match_fresh_exp(sequence, retune):
    model = VitalSignsModel()
    p = model.parameters
    spo2, pain = p.baseline_spo2, p.initial_pain_level
    rr, hr = p.baseline_respiratory_rate_bpm, p.baseline_heart_rate_bpm
    for index, (dt_min, analgesia, drive) in enumerate(sequence):
        if index == len(sequence) // 2:
            # Past every clamp: SpO2 above 100 or below a raised floor,
            # above a lowered baseline, and pain growing past 10.
            p.baseline_spo2, p.min_spo2, p.pain_decay_per_min = retune
        got = model.advance(dt_min, drive, analgesia)
        if dt_min != 0:
            dt_min = as_step(dt_min)
            rr = p.baseline_respiratory_rate_bpm * drive
            if drive >= p.hypoventilation_threshold:
                target = p.baseline_spo2
            else:
                deficit = (p.hypoventilation_threshold - drive) / p.hypoventilation_threshold
                target = p.baseline_spo2 - deficit * (p.baseline_spo2 - p.min_spo2)
            spo2 = float(target + (spo2 - target) * np.exp(-dt_min / p.spo2_time_constant_min))
            spo2 = float(min(max(spo2, p.min_spo2), 100.0))
            natural = pain * np.exp(-p.pain_decay_per_min * dt_min)
            pain = float(min(max(natural * (1.0 - analgesia), 0.0), 10.0))
            hr = float(p.baseline_heart_rate_bpm + p.heart_rate_pain_gain * pain
                       + p.heart_rate_hypoxia_gain * max(0.0, p.baseline_spo2 - spo2))
        assert got is model.state
        assert same(got.spo2_percent, spo2)
        assert same(got.pain_level, pain)
        assert same(got.heart_rate_bpm, hr)
        assert same(got.respiratory_rate_bpm, rr)


@settings(max_examples=200, deadline=None)
@given(steps, st.floats(40.0, 120.0))
def test_map_matches_fresh_exp(sequence, target):
    model = ArterialPressureModel()
    model.set_target_map(target)
    true_map = model.true_map_mmhg
    for index, (dt_min, _, _) in enumerate(sequence):
        if index == len(sequence) // 2:
            # A drift constant changed mid-run must not reuse a stale factor.
            model.parameters.drift_time_constant_min = 8.0
        tau = model.parameters.drift_time_constant_min
        true_map = float(target + (true_map - target) * np.exp(-as_step(dt_min) / tau))
        assert same(model.advance(dt_min), true_map)


def test_exp_memo_returns_the_float_of_what_np_exp_made():
    memo = ExpMemo()
    first = memo(-0.35)
    assert type(first) is float
    assert same(first, np.exp(-0.35))
    assert memo(-0.35) is first
    assert same(memo(np.float64(-0.35)), np.exp(np.float64(-0.35)))
    # The key is value and type: an np.float32 exponent is its own entry.
    assert same(memo(np.float32(-0.25)), np.exp(np.float32(-0.25)))
    assert same(memo(-0.5), np.exp(-0.5))
    assert type(memo(-0.5)) is float


# The cohorts' EC50s: the default respiratory and analgesia EC50s divided by
# opioid sensitivities 0.4-3.0 (patient/population.py).
@settings(max_examples=200, deadline=None)
@given(st.floats(0.0, 20.0), st.floats(0.018 / 3.0, 0.045 / 0.4), st.floats(0.5, 5.0))
def test_hill_power_has_the_same_bits_for_float_and_numpy_operands(concentration, ec50, coefficient):
    expected = hill(np.float64(concentration), np.float64(ec50), np.float64(coefficient))
    assert type(expected) is np.float64 or concentration == 0.0
    assert same(hill(concentration, ec50, coefficient), expected)
    assert same(hill(concentration, ec50, coefficient), hill(np.float64(concentration), ec50, coefficient))


def test_state_snapshot_is_shared_until_the_state_changes():
    model = VitalSignsModel()
    before = model.state
    assert model.state is before
    after = model.advance(5.0 / 60.0, 0.5, 0.3)
    assert after is model.state
    assert after is not before
    assert model.advance(0.0, 0.5, 0.3) is after


def test_pain_stimulus_refreshes_the_state_snapshot():
    model = VitalSignsModel()
    before = model.state.pain_level
    model.add_pain_stimulus(2.0)
    assert model.state.pain_level == min(before + 2.0, 10.0)


def test_reset_refreshes_the_state_snapshot():
    model = VitalSignsModel()
    baseline = model.state
    model.advance(10.0, 0.2, 0.5)
    assert model.state.spo2_percent < baseline.spo2_percent
    model.reset()
    assert model.state == baseline
