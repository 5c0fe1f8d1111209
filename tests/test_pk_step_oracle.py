"""The PK step against its all-numpy oracle, and the PK mass balance.

:class:`~repro.patient.pharmacokinetics.TwoCompartmentPK` skips numpy
where numpy cannot decide a bit: an empty patient needs no matvec, and the
forcing ``[rate, 0]`` reduces to two float products.  Every step below is
replayed on :class:`pk_reference.ReferencePK`, the pre-rewrite step, and
both compartments and the returned concentration must match bit for bit
and type for type.  The mass-balance relations hold for any dose and
rate sequence whose steps are 0 or at least 1e-5 min.
"""

from __future__ import annotations

import math
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pk_reference import ReferencePK
from repro.core.loop import ClosedLoopPCASystem, PCASystemConfig
from repro.devices.pca_pump import PCAPrescription
from repro.patient.pharmacokinetics import PKParameters, TwoCompartmentPK

# Steps hit 0, the 5 s patient period, repeats and arbitrary lengths.
dt_values = st.one_of(
    st.sampled_from((0.0, 5.0 / 60.0, 5.0 / 60.0, 1.0 / 12.0, 0.25, 1, 7.3)),
    st.floats(0.0, 600.0, allow_nan=False),
    st.builds(np.float64, st.floats(0.0, 5.0)),
)
rates = st.one_of(st.just(0.0), st.just(0), st.floats(0.0, 5.0),
                  st.builds(np.float64, st.floats(0.0, 5.0)))
boluses = st.one_of(st.just(0.0), st.floats(0.0, 20.0),
                    st.builds(np.float64, st.floats(0.0, 20.0)))
# (bolus or None, dt, rate) per step.
steps = st.lists(st.tuples(st.none() | boluses, dt_values, rates), min_size=1, max_size=30)
# The forced response A^-1 (e^{At} - I) cancels catastrophically in steps
# much shorter than a millisecond (see the xfail below), so the balance is
# asserted for steps of 0 or at least 1e-5 min.
balance_dts = st.one_of(st.just(0.0), st.just(5.0 / 60.0), st.floats(1e-5, 600.0))
balance_steps = st.lists(st.tuples(st.none() | boluses, balance_dts, rates),
                         min_size=1, max_size=30)
patients = st.tuples(st.floats(20.0, 200.0), st.floats(0.2, 5.0))


def same(actual, expected) -> bool:
    """Equal bits and equal type (``0.0 == -0.0`` is not enough)."""
    return (type(actual) is type(expected)
            and struct.pack("<d", actual) == struct.pack("<d", expected))


def pk_pair(patient):
    weight_kg, clearance_multiplier = patient
    parameters = PKParameters().scaled_for_weight(weight_kg, clearance_multiplier)
    return TwoCompartmentPK(parameters), ReferencePK(parameters)


def assert_same_step(pk, reference, bolus, dt_min, rate):
    if bolus is not None:
        pk.add_bolus(bolus)
        reference.add_bolus(bolus)
    assert same(pk.advance(dt_min, rate), reference.advance(dt_min, rate))
    assert same(pk.central_amount_mg, reference.central_amount_mg)
    assert same(pk.peripheral_amount_mg, reference.peripheral_amount_mg)


@settings(max_examples=100, deadline=None)
@given(patients, steps)
# Near-zero steps: rounding leaves negative entries in e^{At}, which only
# the clamp keeps out of the state.
@example((70.0, 1.0), [(1.0, 1e-30, 0.0), (None, 1e-64, 0.0)])
@example((20.0, 1.0), [(1.0, 1e-64, 0.0), (None, 1e-30, 0.0)])
def test_pk_step_matches_numpy_oracle(patient, sequence):
    pk, reference = pk_pair(patient)
    for bolus, dt_min, rate in sequence:
        assert_same_step(pk, reference, bolus, dt_min, rate)


def test_pk_step_matches_oracle_on_a_ward_and_a_pca_pattern():
    # The two shapes the scenarios produce: an undosed patient on the
    # 5 s period, then a basal infusion with demand boluses on top.
    pk, reference = pk_pair((70.0, 1.0))
    for step in range(2000):
        bolus = 1.0 if step >= 700 and step % 97 == 0 else None
        rate = 0.0 if step < 500 else 0.5 / 60.0
        assert_same_step(pk, reference, bolus, 5.0 / 60.0, rate)


@settings(max_examples=100, deadline=None)
@given(patients, balance_steps)
def test_pk_mass_balance(patient, sequence):
    pk, _ = pk_pair(patient)
    delivered = 0.0
    eliminated = 0.0
    # Float rounding may push the balance by an ulp or so; 1e-12 of the
    # drug delivered covers that and nothing physical.
    for bolus, dt_min, rate in sequence:
        if bolus is not None:
            pk.add_bolus(bolus)
            delivered += bolus
        pk.advance(dt_min, rate)
        delivered += rate * dt_min
        assert pk.central_amount_mg >= 0.0
        assert pk.peripheral_amount_mg >= 0.0
        total = pk.total_amount_mg
        assert total <= delivered * (1 + 1e-12)
        now_eliminated = delivered - total
        assert now_eliminated >= eliminated - 1e-12 * delivered
        eliminated = now_eliminated


@pytest.mark.xfail(strict=True, reason="known fault: e^{At} - I cancels in a sub-millisecond "
                   "step, so its forced response misses the drug infused by far more than rounding")
def test_sub_millisecond_infusion_step_holds_the_drug_it_infused():
    pk, _ = pk_pair((70.0, 1.0))
    dt_min = 1e-12
    pk.advance(dt_min, 1.0)
    assert abs(pk.total_amount_mg / dt_min - 1.0) <= 1e-6


@settings(max_examples=50, deadline=None)
@given(patients, st.lists(dt_values, min_size=1, max_size=30))
def test_undosed_pk_stays_exactly_empty(patient, dts):
    pk, _ = pk_pair(patient)
    for dt_min in dts:
        assert same(pk.advance(dt_min, 0.0), 0.0)
        assert same(pk.central_amount_mg, 0.0)
        assert same(pk.peripheral_amount_mg, 0.0)


def test_closed_loop_run_holds_no_more_drug_than_it_delivered():
    # A basal infusion with demand boluses on top: both dosing paths.
    system = ClosedLoopPCASystem(PCASystemConfig(
        duration_s=1200.0, seed=3, prescription=PCAPrescription(basal_rate_mg_per_hr=1.0)))
    system.run()
    patient = system.patient
    assert patient.total_drug_delivered_mg > 1.0  # more than the first bolus
    assert math.isfinite(patient.pk.total_amount_mg)
    assert patient.total_drug_delivered_mg >= patient.pk.total_amount_mg
