"""Property-based tests (hypothesis) for core data structures and invariants."""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.metrics import classify_alarms
from repro.analysis.tables import format_table
from repro.patient.pharmacodynamics import PDParameters, RespiratoryDepressionPD, hill
from repro.patient.pharmacokinetics import PKParameters, TwoCompartmentPK
from repro.patient.vitals import VitalSignsModel
from repro.security.audit import AuditLog
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams
from repro.verification.reachability import check_invariant
from repro.verification.transition_system import Rule, TransitionSystem


positive_floats = st.floats(min_value=0.01, max_value=100.0, allow_nan=False)


class TestPKProperties:
    @given(boluses=st.lists(st.floats(min_value=0.0, max_value=20.0), min_size=1, max_size=10),
           dt=st.floats(min_value=0.1, max_value=120.0))
    @settings(max_examples=50, deadline=None)
    def test_drug_amounts_never_negative(self, boluses, dt):
        pk = TwoCompartmentPK(PKParameters())
        for bolus in boluses:
            pk.add_bolus(bolus)
            pk.advance(dt)
        assert pk.central_amount_mg >= 0.0
        assert pk.peripheral_amount_mg >= 0.0

    @given(dose=st.floats(min_value=0.1, max_value=50.0),
           dt=st.floats(min_value=1.0, max_value=60.0))
    @settings(max_examples=50, deadline=None)
    def test_total_drug_decreases_without_infusion(self, dose, dt):
        pk = TwoCompartmentPK(PKParameters())
        pk.add_bolus(dose)
        previous = pk.total_amount_mg
        for _ in range(5):
            pk.advance(dt)
            assert pk.total_amount_mg <= previous + 1e-9
            previous = pk.total_amount_mg

    @given(rate=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=30, deadline=None)
    def test_concentration_bounded_by_steady_state(self, rate):
        pk = TwoCompartmentPK(PKParameters())
        steady = pk.steady_state_concentration(rate)
        for _ in range(50):
            pk.advance(5.0, infusion_rate_mg_per_min=rate)
            assert pk.plasma_concentration_mg_per_l <= steady + 1e-9


class TestPDProperties:
    @given(concentration=st.floats(min_value=0.0, max_value=10.0))
    @settings(max_examples=100, deadline=None)
    def test_hill_bounded(self, concentration):
        value = hill(concentration, 0.05, 2.5)
        assert 0.0 <= value <= 1.0

    @given(c1=st.floats(min_value=0.0, max_value=1.0), c2=st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=100, deadline=None)
    def test_depression_monotone_in_concentration(self, c1, c2):
        pd = RespiratoryDepressionPD(PDParameters())
        low, high = sorted((c1, c2))
        assert pd.respiratory_depression(low) <= pd.respiratory_depression(high) + 1e-12

    @given(steps=st.lists(st.floats(min_value=0.0, max_value=0.5), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_effect_site_stays_between_zero_and_max_plasma(self, steps):
        pd = RespiratoryDepressionPD(PDParameters())
        max_plasma = max(steps) if steps else 0.0
        for plasma in steps:
            effect = pd.advance(1.0, plasma)
            assert -1e-12 <= effect <= max_plasma + 1e-9


class TestVitalsProperties:
    @given(drives=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=50))
    @settings(max_examples=50, deadline=None)
    def test_vitals_remain_physiological(self, drives):
        model = VitalSignsModel()
        for drive in drives:
            state = model.advance(1.0, drive, analgesia=0.0)
            assert 0.0 <= state.spo2_percent <= 100.0
            assert state.respiratory_rate_bpm >= 0.0
            assert state.heart_rate_bpm > 0.0
            assert 0.0 <= state.pain_level <= 10.0


class TestKernelProperties:
    @given(delays=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_events_execute_in_nondecreasing_time_order(self, delays):
        simulator = Simulator()
        times = []
        for delay in delays:
            simulator.schedule(delay, lambda: times.append(simulator.now))
        simulator.run()
        assert times == sorted(times)
        assert len(times) == len(delays)

    @given(seed=st.integers(min_value=0, max_value=2**20), name=st.text(min_size=1, max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_random_streams_deterministic(self, seed, name):
        a = RandomStreams(seed).stream(name).random(3)
        b = RandomStreams(seed).stream(name).random(3)
        assert list(a) == list(b)


class TestAuditLogProperties:
    @given(entries=st.lists(st.tuples(st.floats(min_value=0, max_value=1e6, allow_nan=False),
                                      st.text(max_size=8), st.text(max_size=8)),
                            min_size=1, max_size=20))
    @settings(max_examples=50, deadline=None)
    def test_chain_always_verifies_untampered(self, entries):
        log = AuditLog()
        for time, actor, action in entries:
            log.append(time, actor, action)
        assert log.verify_chain()


class TestAlarmClassificationProperties:
    @given(alarms=st.lists(st.floats(min_value=0.0, max_value=1000.0), max_size=20),
           episodes=st.lists(st.tuples(st.floats(min_value=0.0, max_value=500.0),
                                       st.floats(min_value=0.0, max_value=500.0)), max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_confusion_counts_consistent(self, alarms, episodes):
        intervals = [(min(a, b), max(a, b) + 1.0) for a, b in episodes]
        confusion = classify_alarms(alarms, intervals)
        assert confusion.true_positives + confusion.false_positives == len(alarms)
        assert 0 <= confusion.false_negatives <= len(intervals)
        assert 0.0 <= confusion.precision <= 1.0
        assert 0.0 <= confusion.sensitivity <= 1.0


class TestTableProperties:
    @given(rows=st.lists(st.lists(st.one_of(st.integers(), st.floats(allow_nan=False, allow_infinity=False),
                                            st.text(alphabet=st.characters(min_codepoint=32, max_codepoint=126),
                                                    max_size=5),
                                            st.booleans()),
                                  min_size=2, max_size=2), max_size=10))
    @settings(max_examples=50, deadline=None)
    def test_format_table_never_crashes_and_aligns(self, rows):
        rendered = format_table("t", ["a", "b"], rows)
        lines = rendered.splitlines()
        assert lines[0] == "== t =="
        assert len(lines) == 3 + len(rows)


class TestVerificationProperties:
    @given(limit=st.integers(min_value=1, max_value=8))
    @settings(max_examples=20, deadline=None)
    def test_counter_invariant_always_proved(self, limit):
        system = TransitionSystem(
            "counter",
            variables={"value": tuple(range(limit + 1))},
            initial_states=[{"value": 0}],
            rules=[
                Rule(guard=lambda s, limit=limit: s["value"] < limit,
                     update=lambda s: {"value": s["value"] + 1}, name="inc"),
                Rule(guard=lambda s, limit=limit: s["value"] == limit,
                     update=lambda s: {"value": 0}, name="wrap"),
            ],
        )
        result = check_invariant(system, lambda s, limit=limit: 0 <= s["value"] <= limit)
        assert result.holds
        assert result.states_explored == limit + 1
