"""The trace's event log agrees with the one-``TracePoint``-per-event oracle.

:class:`~repro.sim.trace.TraceRecorder` stores events as plain tuples and
builds ``TracePoint`` objects only when they are read;
:class:`trace_reference.ReferenceTraceRecorder` stores a ``TracePoint`` per
event as the recorder originally did.  Over mixed event streams, and over a
merge of two recorders, every event query must give the same answer.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.loop import ClosedLoopPCASystem, PCASystemConfig
from repro.readings import Reading
from repro.sim.trace import TracePoint, TraceRecorder
from trace_reference import ReferenceTraceRecorder

SIGNALS = ("alarm", "pump:stop", "bus:publish:spo2")

values = st.one_of(
    st.none(),
    st.integers(-5, 5),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.text(max_size=3),
    st.dictionaries(st.sampled_from(("rate", "reason")), st.integers(0, 9), max_size=2),
    st.builds(Reading, st.floats(0, 100, width=32), st.booleans(), st.sampled_from((0.0, 1.5))),
)

# Few distinct times, ints among them, so events tie and interleave.
times = st.one_of(st.sampled_from((0.0, 1.0, 2.5, 2.5, 7.0)), st.integers(0, 8))

# (time, signal, value, source or None for the default)
events = st.lists(
    st.tuples(times, st.sampled_from(SIGNALS), values,
              st.one_of(st.none(), st.sampled_from(("pump-1", "ox-1")))),
    max_size=25,
)


def _fill(recorder, stream):
    for time, signal, value, source in stream:
        if source is None:
            recorder.event(time, signal, value)
        else:
            recorder.event(time, signal, value, source=source)
    recorder.record(1.0, "spo2", 97.0)
    return recorder


def _assert_agree(actual: TraceRecorder, expected: ReferenceTraceRecorder) -> None:
    got = actual.events()
    assert got == expected.events()
    assert all(type(e) is TracePoint and type(e.time) is float for e in got)
    for signal in SIGNALS + ("never",):
        assert actual.events(signal) == expected.events(signal)
        assert actual.count_events(signal) == expected.count_events(signal)
        first = actual.first_event_time(signal)
        assert first == expected.first_event_time(signal)
        assert type(first) is type(expected.first_event_time(signal))
    assert actual.to_dict() == expected.to_dict()
    assert len(actual) == len(expected)


@settings(max_examples=150, deadline=None)
@given(events)
def test_event_queries_match_the_tracepoint_oracle(stream):
    _assert_agree(_fill(TraceRecorder(), stream), _fill(ReferenceTraceRecorder(), stream))


@settings(max_examples=150, deadline=None)
@given(events, events)
def test_merge_matches_the_tracepoint_oracle(first, second):
    actual = _fill(TraceRecorder(), first)
    actual.merge(_fill(TraceRecorder(), second))
    expected = _fill(ReferenceTraceRecorder(), first)
    expected.merge(_fill(ReferenceTraceRecorder(), second))
    _assert_agree(actual, expected)


def test_a_pca_run_logs_no_bus_event_and_keeps_no_reading():
    """Each sample is traced once, by its device: the bus logs nothing."""
    system = ClosedLoopPCASystem(PCASystemConfig(mode="closed_loop", duration_s=1800.0, seed=424242))
    system.run()
    events = system.trace.events()
    assert not [event.signal for event in events if event.signal.startswith("bus:")]
    assert not [event for event in events if isinstance(event.value, Reading)]
