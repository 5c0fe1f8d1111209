"""Periodic tasks share one heap entry per sampling instant.

``Simulator.call_every`` tasks are kernel-owned: each keeps one reusable
event, and the heap holds one entry per distinct tick time listing the tasks
due then.  ``kernel_reference.ReferenceSimulator`` keeps the old path (one
scheduled event per tick); the two must fire the same callbacks at the same
times in the same order, and agree on ``event_count``, ``pending()`` and
``peek()`` between any two segments of a run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kernel_reference import ReferenceSimulator

from repro.sim.kernel import Process, Simulator


class Boom(Exception):
    pass


def _recorder(simulator, log, label):
    return lambda: log.append((simulator.now, label))


class TestSegmentedRuns:
    def test_step_alone_drives_a_task(self):
        simulator = Simulator()
        log = []
        simulator.call_every(1.0, _recorder(simulator, log, "a"))
        for _ in range(4):
            assert simulator.step()
        assert log == [(1.0, "a"), (2.0, "a"), (3.0, "a"), (4.0, "a")]
        assert simulator.pending() == 1

    def test_max_events_fires_exactly_the_first_task_of_an_instant(self):
        simulator = Simulator()
        log = []
        simulator.call_every(1.0, _recorder(simulator, log, "a"))
        simulator.call_every(1.0, _recorder(simulator, log, "b"))
        simulator.run(max_events=1)
        assert log == [(1.0, "a")]
        assert simulator.event_count == 1
        assert simulator.pending() == 2
        assert simulator.peek() == 1.0
        simulator.run(max_events=2)
        assert log == [(1.0, "a"), (1.0, "b")]

    def test_stop_between_two_tasks_of_an_instant_leaves_the_second_queued(self):
        simulator = Simulator()
        log = []

        def first():
            log.append((simulator.now, "a"))
            if len(log) == 1:
                simulator.stop()

        simulator.call_every(1.0, first)
        simulator.call_every(1.0, _recorder(simulator, log, "b"))
        assert simulator.run(until=10.0) == 1.0
        assert log == [(1.0, "a")]
        assert simulator.pending() == 2
        simulator.run(until=1.0)
        assert log == [(1.0, "a"), (1.0, "b")]

    def test_step_yields_to_an_event_due_before_the_next_live_task(self):
        # The instant is keyed on its cancelled first task, so it pops ahead
        # of the event queued between the two tasks.
        simulator = Simulator()
        log = []
        first = simulator.call_every(1.0, _recorder(simulator, log, "a"))
        simulator.schedule_at(1.0, _recorder(simulator, log, "event"))
        simulator.call_every(1.0, _recorder(simulator, log, "b"))
        first.cancel()
        assert simulator.step()
        assert log == [(1.0, "event")]
        assert simulator.step()
        assert log == [(1.0, "event"), (1.0, "b")]

    @pytest.mark.parametrize("peek_first", [False, True])
    def test_cancelled_task_holds_its_place_when_max_events_ends_a_run(self, peek_first):
        # The event sorts between two cancelled tasks of one instant.  With
        # one event per tick, b's cancelled tick is still queued after the
        # event fires, so max_events ends the run at 1.0 rather than at until.
        for kernel in (ReferenceSimulator, Simulator):
            simulator = kernel()
            log = []
            a = simulator.call_every(1.0, _recorder(simulator, log, "a"))
            simulator.schedule_at(1.0, _recorder(simulator, log, "event"))
            b = simulator.call_every(1.0, _recorder(simulator, log, "b"))
            a.cancel()
            b.cancel()
            if peek_first:
                assert simulator.peek() == 1.0
            assert simulator.run(until=5.0, max_events=1) == 1.0, kernel
            assert log == [(1.0, "event")]
            assert simulator.peek() is None

    def test_peek_skips_an_instant_whose_tasks_were_all_cancelled(self):
        simulator = Simulator()
        doomed = [simulator.call_every(1.0, lambda: None) for _ in range(3)]
        simulator.call_every(5.0, lambda: None)
        for task in doomed:
            task.cancel()
        assert simulator.peek() == 5.0
        assert len(simulator._queue) == 1
        assert simulator.pending() == 1

    def test_pending_counts_each_queued_task(self):
        simulator = Simulator()
        tasks = [simulator.call_every(1.0, lambda: None) for _ in range(5)]
        assert simulator.pending() == 5
        tasks[2].cancel()
        assert simulator.pending() == 4
        simulator.run(until=2.5)
        assert simulator.pending() == 4
        assert simulator.event_count == 8


class TestSameInstantOrder:
    def test_co_timed_ticks_share_one_heap_entry(self):
        simulator = Simulator()
        for _ in range(24):
            simulator.call_every(1.0, lambda: None)
        assert len(simulator._queue) == 1
        simulator.run(until=3.5)
        assert len(simulator._queue) == 1
        assert simulator.event_count == 72

    def test_one_shot_queued_between_two_tasks_fires_between_them(self):
        simulator = Simulator()
        log = []
        simulator.call_every(1.0, _recorder(simulator, log, "a"))
        simulator.schedule_at(2.0, _recorder(simulator, log, "event"))
        simulator.call_every(1.0, _recorder(simulator, log, "b"))
        simulator.run(until=2.0)
        # At t=1 the tasks' first ticks both precede the event's sequence;
        # at t=2 a was requeued before b, and both after the event.
        assert log == [(1.0, "a"), (1.0, "b"), (2.0, "event"), (2.0, "a"), (2.0, "b")]

    def test_event_a_tick_schedules_for_its_instant_runs_by_priority(self):
        simulator = Simulator()
        log = []

        def first():
            log.append((simulator.now, "a"))
            simulator.schedule(0.0, _recorder(simulator, log, "urgent"), priority=-1)
            simulator.schedule(0.0, _recorder(simulator, log, "fifo"))

        simulator.call_every(1.0, first)
        simulator.call_every(1.0, _recorder(simulator, log, "b"))
        simulator.run(until=1.0)
        assert log == [(1.0, "a"), (1.0, "urgent"), (1.0, "b"), (1.0, "fifo")]

    def test_a_task_cancelled_by_an_earlier_task_of_its_instant_does_not_fire(self):
        simulator = Simulator()
        log = []
        process = Process("group")
        simulator.register(process)

        def crash():
            log.append((simulator.now, "crash"))
            process.cancel_all()

        simulator.call_every(2.0, crash)
        process.every(1.0, _recorder(simulator, log, "member"))
        simulator.run(until=5.0)
        assert log == [(1.0, "member"), (2.0, "crash"), (4.0, "crash")]
        assert simulator.pending() == 1

    def test_a_raising_callback_leaves_the_instants_other_tasks_queued(self):
        simulator = Simulator()
        log = []

        def explode():
            log.append((simulator.now, "boom"))
            raise Boom

        raiser = simulator.call_every(1.0, explode)
        simulator.call_every(1.0, _recorder(simulator, log, "b"))
        with pytest.raises(Boom):
            simulator.run(until=3.0)
        assert simulator.now == 1.0
        assert simulator.pending() == 1
        assert simulator.peek() == 1.0
        simulator.run(until=3.0)
        # The raiser was called once: a raise cancels nothing, but the
        # task is not requeued past the instant it raised at.
        assert log == [(1.0, "boom"), (1.0, "b"), (2.0, "b"), (3.0, "b")]
        assert not raiser.cancelled

    def test_profiler_dispatch_receives_each_tasks_own_event(self):
        simulator = Simulator()
        seen = []

        class Recorder:
            def dispatch(self, event):
                seen.append((event.name, event))
                event.callback()

        simulator.attach_profiler(Recorder())
        simulator.call_every(1.0, lambda: None, name="a")
        simulator.call_every(1.0, lambda: None, name="b")
        simulator.run(until=2.0)
        assert [name for name, _ in seen] == ["a", "b", "a", "b"]
        assert seen[0][1] is seen[2][1] and seen[1][1] is seen[3][1]


# --------------------------------------------------------------- the oracle
PERIODS = (0.1, 0.3, 0.5, 1.0, 1.5, 2.0)
STARTS = (None, 0.0, 0.5, 1.0, 2.0)
EVENT_TIMES = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
PRIORITIES = (-1, 0, 1)
ACTIONS = ("event", "cancel_self", "cancel_other", "cancel_all", "raise", "stop", "spawn")

_creations = st.lists(
    st.one_of(
        # (kind, period, start, in the cancel_all group)
        st.tuples(st.just("task"), st.sampled_from(PERIODS), st.sampled_from(STARTS), st.booleans()),
        # (kind, time, priority)
        st.tuples(st.just("event"), st.sampled_from(EVENT_TIMES), st.sampled_from(PRIORITIES)),
    ),
    min_size=1, max_size=10,
)
# (task, tick, action, priority, delay, other task)
_actions = st.lists(
    st.tuples(st.integers(0, 9), st.integers(1, 5), st.sampled_from(ACTIONS),
              st.sampled_from(PRIORITIES), st.sampled_from((0.0, 0.5, 1.0)), st.integers(0, 9)),
    max_size=8,
)
_segments = st.lists(
    st.one_of(
        st.tuples(st.just("until"), st.sampled_from((0.0, 0.5, 1.0, 1.7, 2.5))),
        st.tuples(st.just("max"), st.integers(0, 6)),
        st.tuples(st.just("both"), st.sampled_from((1.0, 2.5)), st.integers(1, 12)),
        st.tuples(st.just("step")),
        st.tuples(st.just("cancel"), st.integers(0, 9)),
    ),
    min_size=1, max_size=8,
)


def _execute(kernel, creations, actions, segments):
    """Run one drawn program; returns everything the two kernels must agree on."""
    simulator = kernel()
    log = []
    group = Process("group")
    simulator.register(group)
    tasks = []
    fired = []
    plan = {}
    for task, tick, *action in actions:
        plan.setdefault((task, tick), []).append(action)

    def perform(index, tick, action, priority, delay, other):
        if action == "event":
            simulator.schedule(delay, _recorder(simulator, log, f"e{index}.{tick}"), priority=priority)
        elif action == "cancel_self":
            tasks[index].cancel()
        elif action == "cancel_other":
            tasks[other % len(tasks)].cancel()
        elif action == "cancel_all":
            group.cancel_all()
        elif action == "raise":
            raise Boom
        elif action == "stop":
            simulator.stop()
        else:  # spawn a task due at this very instant
            add_task(PERIODS[other % len(PERIODS)], simulator.now, False)

    def add_task(period, start, grouped):
        index = len(tasks)
        fired.append(0)

        def tick():
            fired[index] += 1
            log.append((simulator.now, f"t{index}"))
            for action in plan.get((index, fired[index]), ()):
                perform(index, fired[index], *action)

        owner = group.every if grouped else simulator.call_every
        tasks.append(owner(period, tick, start=start))

    for position, creation in enumerate(creations):
        if creation[0] == "task":
            add_task(*creation[1:])
        else:
            simulator.schedule_at(creation[1], _recorder(simulator, log, f"one{position}"),
                                  priority=creation[2])

    for segment in segments:
        try:
            if segment[0] == "until":
                simulator.run(until=simulator.now + segment[1])
            elif segment[0] == "max":
                simulator.run(until=simulator.now + 5.0, max_events=simulator.event_count + segment[1])
            elif segment[0] == "both":
                simulator.run(until=simulator.now + segment[1], max_events=simulator.event_count + segment[2])
            elif segment[0] == "step":
                simulator.step()
            elif tasks:
                tasks[segment[1] % len(tasks)].cancel()
        except Boom:
            log.append((simulator.now, "raised"))
        log.append(("observed", segment, simulator.now, simulator.event_count,
                    simulator.pending(), simulator.peek()))
    return log, fired, [task.cancelled for task in tasks]


class TestAgainstPerEventReference:
    @settings(max_examples=300, deadline=None)
    @given(creations=_creations, actions=_actions, segments=_segments)
    def test_same_firings_counts_and_queue_observations(self, creations, actions, segments):
        assert (_execute(Simulator, creations, actions, segments)
                == _execute(ReferenceSimulator, creations, actions, segments))
