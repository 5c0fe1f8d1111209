"""The PCA supervisor's pure decision against its pre-refactor oracle.

:func:`repro.core.pca.decide` is the whole decision of one control step.
``supervisor_reference.ReferencePCASupervisor`` is the supervisor before
that split, judging freshness by the rule the supervisor host applied for
it.  Both are driven with the same random deliveries (valid or not), with
gaps on both sides of the staleness limit, step times on both sides of the
start-up grace, and command outcomes; they must send the same commands and
keep the same belief, counters and events.  The other tests call
:func:`decide` directly, and check the declared PCA scenario's decision
rules against it.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from supervisor_reference import ReferencePCASupervisor, SupervisorDecision

from repro.core.pca import (
    DATA_STALENESS_LIMIT_S,
    POLICIES,
    RESPIRATORY_RATE_STOP_THRESHOLD,
    RESUME_HOLD_TIME_S,
    SPO2_RESUME_THRESHOLD,
    SPO2_STOP_THRESHOLD,
    STARTUP_GRACE_S,
    Observation,
    PCASafetySupervisor,
    decide,
)
from repro.readings import Reading
from repro.scenarios.pca_scenario import build_pca_scenario_spec

TOPICS = ("spo2", "heart_rate", "respiratory_rate")
COMMAND = {SupervisorDecision.STOP_PUMP: "stop", SupervisorDecision.RESUME_PUMP: "resume"}


class _Host:
    """Records commands; each one is issued or denied as scripted."""

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.commands = []

    def send_command(self, app, device_id, command, parameters=None):
        issued = self.outcomes.pop(0) if self.outcomes else True
        self.commands.append((device_id, command, issued))
        return issued


class _Message:
    def __init__(self, delivered_at):
        self.sent_at = self.delivered_at = delivered_at


def state(supervisor, events):
    return (supervisor.host.commands, supervisor.pump_stopped, supervisor.stop_count,
            supervisor.resume_count, supervisor.first_stop_time, events)


# Values sit on and around every threshold (integers and halves keep the
# resume-hold arithmetic exact), plus NaN and arbitrary floats.
vitals = st.one_of(
    st.sampled_from((99.0, 97.0, 96.0, 95.5, 95.0, 94.0, 92.0, 91.9, 88.0, 60.0,
                     44.0, 45.0, 7.9, 8.0, 12.0, 0.0, math.nan)),
    st.floats(0.0, 120.0),
)
# Each operation first advances the clock by its ``dt``.  Delivery gaps
# straddle the staleness limit; step times land on and around the start-up
# grace (28 + 2 = 30); 2 s steps walk the trend window; 300 s lands exactly
# on the resume hold.
gaps = st.one_of(
    st.sampled_from((0.0, 0.5, 2.0, 10.0, DATA_STALENESS_LIMIT_S - 1.0, DATA_STALENESS_LIMIT_S,
                     DATA_STALENESS_LIMIT_S + 1.0, 28.0, STARTUP_GRACE_S, 100.0, RESUME_HOLD_TIME_S)),
    st.floats(0.0, 400.0),
)
deliveries = st.tuples(st.just("deliver"), gaps, st.sampled_from(TOPICS), st.booleans(), vitals)
steps = st.tuples(st.just("step"), gaps)
operations = st.lists(st.one_of(deliveries, steps), max_size=60)


def _deliver_all(dt, spo2):
    return [("deliver", dt, "spo2", True, spo2), ("deliver", 0.0, "heart_rate", True, 75.0),
            ("deliver", 0.0, "respiratory_rate", True, 14.0)]


_STOP_AND_RECOVER = [*_deliver_all(40.0, 88.0), ("step", 0.0), *_deliver_all(2.0, 97.0), ("step", 0.0)]
# The pump is resumed only if every topic stays fresh through the hold.
_HOLD = [step for _ in range(int(RESUME_HOLD_TIME_S / 10.0))
         for step in (*_deliver_all(10.0, 97.0), ("step", 0.0))]


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(POLICIES), st.booleans(), operations, st.lists(st.booleans(), max_size=8))
# The resume fires exactly when the hold has elapsed, and again after a
# denied resume restarted the hold.
@example("fused", True, _STOP_AND_RECOVER + _HOLD + [("step", 2.0)] + _HOLD, [True, False, True])
# Topics delivered exactly the staleness limit ago are still fresh; one
# never delivered is not stale at the end of the start-up grace.
@example("threshold", True,
         [*_deliver_all(10.0, 97.0), ("step", DATA_STALENESS_LIMIT_S)], [])
@example("threshold", True,
         [("deliver", 20.0, "spo2", True, 97.0), ("deliver", 0.0, "heart_rate", True, 75.0),
          ("step", STARTUP_GRACE_S - 20.0), ("step", 2.0)], [])
def test_supervisor_matches_pre_refactor_oracle(policy, capnograph, sequence, outcomes):
    supervisor = PCASafetySupervisor("app", "pump-1", policy=policy, use_capnograph=capnograph)
    reference = ReferencePCASupervisor("app", "pump-1", policy, capnograph)
    for app in (supervisor, reference):
        app.host = _Host(outcomes)
    assert supervisor.subscriptions == reference.subscriptions
    now = 0.0
    for operation in sequence:
        now += operation[1]
        if operation[0] == "deliver":
            _, _, topic, valid, value = operation
            for app in (supervisor, reference):
                app.on_data(topic, Reading(value, valid, now), _Message(now))
        else:
            for app in (supervisor, reference):
                app.step(now)
            assert state(supervisor, [(e.time, e.command, e.reason) for e in supervisor.events]) == state(
                reference, [(e.time, COMMAND[e.decision], e.reason) for e in reference.events])


def observation(now=100.0, stale=(), spo2=98.0, heart_rate=75.0, respiratory_rate=14.0,
                spo2_seen=True, spo2_window=()):
    return Observation(now, stale, spo2, heart_rate, respiratory_rate, spo2_seen, spo2_window)


class TestDecide:
    def test_healthy_patient_gets_no_command(self):
        assert decide("fused", observation(), False, None) == (None, "", None)

    def test_danger_stops_an_infusing_pump(self):
        command, reason, _ = decide("threshold", observation(spo2=90.0), False, None)
        assert (command, reason) == ("stop", "SpO2 90.0 below threshold 92.0")

    def test_danger_on_a_stopped_pump_sends_nothing_and_says_why(self):
        assert decide("threshold", observation(spo2=90.0), True, 50.0) == (
            None, "SpO2 90.0 below threshold 92.0", None)

    def test_stale_data_stops_and_keeps_the_hold(self):
        assert decide("fused", observation(stale=["spo2", "heart_rate"]), False, None) == (
            "stop", "stale data on heart_rate, spo2", None)
        assert decide("fused", observation(stale=["spo2"]), True, 42.0) == (None, "stale data", 42.0)

    def test_missing_spo2_waits_out_the_grace_then_stops(self):
        early = observation(now=STARTUP_GRACE_S, spo2=None, spo2_seen=False)
        assert decide("fused", early, False, None)[0] is None
        late = early._replace(now=STARTUP_GRACE_S + 2.0)
        assert decide("fused", late, False, None)[:2] == ("stop", "no valid SpO2 reading")

    def test_resume_waits_for_the_hold(self):
        recovered = observation(now=10.0, spo2=SPO2_RESUME_THRESHOLD)
        assert decide("fused", recovered, True, None) == (None, "", 10.0)
        held = recovered._replace(now=10.0 + RESUME_HOLD_TIME_S)
        assert decide("fused", held, True, 10.0) == ("resume", "patient recovered", None)
        relapsed = held._replace(spo2=SPO2_RESUME_THRESHOLD - 0.5)
        assert decide("fused", relapsed, True, 10.0) == (None, "", None)

    def test_trend_is_predicted_only_when_armed(self):
        # A window that is not a sequence of pairs raises if it is read.
        unreadable = [None] * 20
        assert decide("fused", observation(spo2=97.0, spo2_window=unreadable), False, None)[0] is None
        assert decide("threshold", observation(spo2=93.0, spo2_window=unreadable), False, None)[0] is None
        with pytest.raises(TypeError):
            decide("trend", observation(spo2=93.0, spo2_window=unreadable), False, None)


@pytest.mark.parametrize("rule_name, topic, threshold", [
    ("stop_on_desaturation", "spo2", SPO2_STOP_THRESHOLD),
    ("stop_on_hypoventilation", "respiratory_rate", RESPIRATORY_RATE_STOP_THRESHOLD),
])
@pytest.mark.parametrize("offset", [-0.1, 0.0, 0.1])
def test_declared_decision_rules_agree_with_decide(rule_name, topic, threshold, offset):
    rule = next(rule for rule in build_pca_scenario_spec().decision_rules if rule.name == rule_name)
    value = threshold + offset
    latest = {"spo2": 98.0, "respiratory_rate": 14.0, topic: value}
    obs = observation(spo2=latest["spo2"], respiratory_rate=latest["respiratory_rate"])
    assert rule.command == "stop"
    assert rule.condition(latest) == (decide("fused", obs, False, None)[0] == "stop")
