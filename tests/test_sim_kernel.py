"""Tests for the discrete-event simulation kernel."""

import json
import math

import pytest

from golden_workload import GOLDEN_PATH, kernel_workload, pca_system_probe
from repro.sim.kernel import Process, SimulationError, Simulator, build_simulator


class TestScheduling:
    def test_initial_time_is_zero(self, simulator):
        assert simulator.now == 0.0

    def test_custom_start_time(self):
        assert Simulator(start_time=5.0).now == 5.0

    def test_schedule_runs_callback_at_time(self, simulator):
        fired = []
        simulator.schedule(2.5, lambda: fired.append(simulator.now))
        simulator.run()
        assert fired == [2.5]

    def test_schedule_at_absolute_time(self, simulator):
        fired = []
        simulator.schedule_at(7.0, lambda: fired.append(simulator.now))
        simulator.run()
        assert fired == [7.0]

    def test_negative_delay_rejected(self, simulator):
        with pytest.raises(SimulationError):
            simulator.schedule(-1.0, lambda: None)

    def test_scheduling_in_past_rejected(self, simulator):
        simulator.schedule(5.0, lambda: simulator.schedule_at(1.0, lambda: None))
        with pytest.raises(SimulationError):
            simulator.run()

    def test_schedule_at_nan_rejected(self, simulator):
        # Regression: NaN slips past the `time < now` check because every
        # comparison with NaN is False, so the event would sit in the queue
        # with an unorderable key.
        with pytest.raises(SimulationError):
            simulator.schedule_at(float("nan"), lambda: None)

    @pytest.mark.parametrize("time", [float("inf"), float("-inf")])
    def test_schedule_at_infinite_time_rejected(self, simulator, time):
        with pytest.raises(SimulationError):
            simulator.schedule_at(time, lambda: None)

    def test_schedule_nan_delay_rejected(self, simulator):
        with pytest.raises(SimulationError):
            simulator.schedule(float("nan"), lambda: None)

    def test_schedule_infinite_delay_rejected(self, simulator):
        with pytest.raises(SimulationError):
            simulator.schedule(float("inf"), lambda: None)

    def test_events_ordered_by_time(self, simulator):
        order = []
        simulator.schedule(3.0, lambda: order.append("c"))
        simulator.schedule(1.0, lambda: order.append("a"))
        simulator.schedule(2.0, lambda: order.append("b"))
        simulator.run()
        assert order == ["a", "b", "c"]

    def test_same_time_events_fifo(self, simulator):
        order = []
        for label in "abc":
            simulator.schedule(1.0, lambda label=label: order.append(label))
        simulator.run()
        assert order == ["a", "b", "c"]

    def test_priority_overrides_fifo(self, simulator):
        order = []
        simulator.schedule(1.0, lambda: order.append("low"), priority=5)
        simulator.schedule(1.0, lambda: order.append("high"), priority=-5)
        simulator.run()
        assert order == ["high", "low"]

    def test_cancelled_event_does_not_fire(self, simulator):
        fired = []
        event = simulator.schedule(1.0, lambda: fired.append(1))
        event.cancel()
        simulator.run()
        assert fired == []

    def test_run_until_stops_clock_at_bound(self, simulator):
        simulator.schedule(10.0, lambda: None)
        end = simulator.run(until=4.0)
        assert end == 4.0
        assert simulator.pending() == 1

    def test_run_until_executes_events_before_bound(self, simulator):
        fired = []
        simulator.schedule(1.0, lambda: fired.append(1))
        simulator.schedule(9.0, lambda: fired.append(2))
        simulator.run(until=5.0)
        assert fired == [1]

    def test_event_count_increments(self, simulator):
        for _ in range(4):
            simulator.schedule(1.0, lambda: None)
        simulator.run()
        assert simulator.event_count == 4

    def test_max_events_bound(self, simulator):
        for _ in range(10):
            simulator.schedule(1.0, lambda: None)
        simulator.run(max_events=3)
        assert simulator.event_count == 3

    def test_stop_terminates_run(self, simulator):
        fired = []

        def first():
            fired.append(1)
            simulator.stop()

        simulator.schedule(1.0, first)
        simulator.schedule(2.0, lambda: fired.append(2))
        simulator.run()
        assert fired == [1]
        assert simulator.pending() == 1

    def test_step_executes_single_event(self, simulator):
        fired = []
        simulator.schedule(1.0, lambda: fired.append("a"))
        simulator.schedule(2.0, lambda: fired.append("b"))
        assert simulator.step() is True
        assert fired == ["a"]
        assert simulator.step() is True
        assert simulator.step() is False

    def test_peek_returns_next_event_time(self, simulator):
        simulator.schedule(4.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        assert simulator.peek() == 2.0

    def test_peek_empty_queue(self, simulator):
        assert simulator.peek() is None


class TestKernelEdgeCases:
    def test_max_events_truncation_returns_time_of_last_executed(self, simulator):
        for time in (1.0, 2.0, 3.0):
            simulator.schedule(time, lambda: None)
        end = simulator.run(max_events=2)
        assert end == 2.0
        assert simulator.now == 2.0
        assert simulator.pending() == 1

    def test_max_events_spans_multiple_runs(self, simulator):
        for time in (1.0, 2.0, 3.0, 4.0):
            simulator.schedule(time, lambda: None)
        simulator.run(max_events=2)
        # max_events bounds the *total* executed count, not a per-call budget.
        end = simulator.run(max_events=3)
        assert simulator.event_count == 3
        assert end == 3.0

    def test_event_count_excludes_cancelled_events(self, simulator):
        kept = simulator.schedule(1.0, lambda: None)
        dropped = simulator.schedule(2.0, lambda: None)
        dropped.cancel()
        simulator.schedule(3.0, lambda: None)
        simulator.run()
        assert kept.cancelled is False
        assert simulator.event_count == 2

    def test_event_count_includes_step_executions(self, simulator):
        simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        simulator.step()
        simulator.run()
        assert simulator.event_count == 2

    def test_same_time_priority_then_fifo_ordering(self, simulator):
        order = []
        simulator.schedule(1.0, lambda: order.append("b1"), priority=0)
        simulator.schedule(1.0, lambda: order.append("a1"), priority=-1)
        simulator.schedule(1.0, lambda: order.append("b2"), priority=0)
        simulator.schedule(1.0, lambda: order.append("a2"), priority=-1)
        simulator.schedule(1.0, lambda: order.append("c"), priority=7)
        simulator.run()
        assert order == ["a1", "a2", "b1", "b2", "c"]

    def test_cancelled_periodic_task_leaves_no_pending_event(self, simulator):
        calls = []
        task = simulator.call_every(1.0, lambda: calls.append(simulator.now))
        simulator.run(until=2.5)
        task.cancel()
        assert simulator.pending() == 0
        simulator.run(until=10.0)
        assert calls == [1.0, 2.0]

    def test_periodic_task_cancelling_itself_stops_rescheduling(self, simulator):
        ticks = []

        def tick():
            ticks.append(simulator.now)
            if len(ticks) == 3:
                task.cancel()

        task = simulator.call_every(1.0, tick)
        simulator.run(until=10.0)
        assert ticks == [1.0, 2.0, 3.0]
        assert simulator.pending() == 0


class TestPeriodicTasks:
    def test_call_every_repeats(self, simulator):
        ticks = []
        simulator.call_every(1.0, lambda: ticks.append(simulator.now))
        simulator.run(until=5.5)
        assert ticks == [1.0, 2.0, 3.0, 4.0, 5.0]

    def test_call_every_custom_start(self, simulator):
        ticks = []
        simulator.call_every(2.0, lambda: ticks.append(simulator.now), start=0.5)
        simulator.run(until=5.0)
        assert ticks == [0.5, 2.5, 4.5]

    def test_cancel_stops_repetition(self, simulator):
        ticks = []
        task = simulator.call_every(1.0, lambda: ticks.append(simulator.now))
        simulator.schedule(2.5, task.cancel)
        simulator.run(until=10.0)
        assert ticks == [1.0, 2.0]
        assert task.cancelled

    def test_zero_period_rejected(self, simulator):
        with pytest.raises(SimulationError):
            simulator.call_every(0.0, lambda: None)

    @pytest.mark.parametrize("period", (math.nan, math.inf, -math.inf, -1.0))
    def test_non_finite_or_negative_period_rejected_at_creation(self, simulator, period):
        # A NaN period used to be accepted: the first tick ran, then the
        # reschedule died mid-run.  The kernel requeues tasks itself now, so
        # the period is checked once, when the task is created.
        with pytest.raises(SimulationError, match="for task 'sampler'"):
            simulator.call_every(period, lambda: None, start=0.0, name="sampler")
        assert simulator.pending() == 0

    def test_run_until_nan_rejected(self, simulator):
        # `time > nan` is always False, so a NaN bound never ended the run.
        simulator.call_every(1.0, lambda: None)
        with pytest.raises(SimulationError, match="NaN"):
            simulator.run(until=math.nan, max_events=10)
        assert simulator.event_count == 0

    def test_run_until_inf_is_unbounded(self, simulator):
        simulator.call_every(1.0, lambda: None)
        assert simulator.run(until=math.inf, max_events=10) == 10.0

    def test_run_until_inf_on_a_draining_queue_is_run_to_empty(self, simulator):
        # An infinite bound is no bound: the clock stays at the last event,
        # as with until=None, and later scheduling still works.
        simulator.schedule(3.0, lambda: None)
        assert simulator.run(until=math.inf) == 3.0
        assert simulator.now == 3.0
        simulator.schedule(1.0, lambda: None)
        assert simulator.run() == 4.0

    @pytest.mark.parametrize("later_event", (True, False))
    def test_run_until_before_now_rejected(self, simulator, later_event):
        # The clock never runs backwards, whether or not an event is queued
        # beyond the bound.
        simulator.run(until=10.0)
        fired = []
        if later_event:
            simulator.schedule(10.0, lambda: fired.append(simulator.now))
        with pytest.raises(SimulationError, match="before now"):
            simulator.run(until=5.0)
        assert simulator.now == 10.0
        assert simulator.pending() == int(later_event)
        simulator.run()
        assert fired == ([20.0] if later_event else [])

    def test_run_until_now_is_allowed(self, simulator):
        simulator.run(until=10.0)
        assert simulator.run(until=10.0) == 10.0


class _CountingProcess(Process):
    def __init__(self):
        super().__init__("counter")
        self.count = 0
        self.started = False

    def start(self):
        self.started = True
        self.every(1.0, self._tick)

    def _tick(self):
        self.count += 1


class TestProcess:
    def test_register_binds_and_starts(self, simulator):
        process = _CountingProcess()
        simulator.register(process)
        assert process.started
        assert process.simulator is simulator

    def test_process_periodic_activity(self, simulator):
        process = _CountingProcess()
        simulator.register(process)
        simulator.run(until=4.5)
        assert process.count == 4

    def test_unbound_process_raises(self):
        process = _CountingProcess()
        with pytest.raises(SimulationError):
            _ = process.simulator

    def test_unbound_process_has_no_clock(self):
        process = _CountingProcess()
        with pytest.raises(SimulationError, match="'counter' is not bound"):
            _ = process.now

    def test_process_reads_the_simulator_clock(self, simulator):
        process = _CountingProcess()
        simulator.register(process)
        simulator.run(until=2.5)
        assert process.now == simulator.now == 2.5

    def test_cancel_all_stops_tasks(self, simulator):
        process = _CountingProcess()
        simulator.register(process)
        simulator.schedule(2.5, process.cancel_all)
        simulator.run(until=10.0)
        assert process.count == 2


class TestQueueIntrospection:
    def test_cancel_is_reflected_in_pending_immediately(self, simulator):
        events = [simulator.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert simulator.pending() == 5
        events[0].cancel()
        events[3].cancel()
        assert simulator.pending() == 3
        events[3].cancel()  # double-cancel must not double-decrement
        assert simulator.pending() == 3

    def test_cancel_after_execution_does_not_corrupt_pending(self, simulator):
        first = simulator.schedule(1.0, lambda: None)
        simulator.schedule(2.0, lambda: None)
        simulator.step()
        first.cancel()  # already executed: a no-op for the queue accounting
        assert simulator.pending() == 1

    def test_peek_skips_cancelled_heads_without_sorting(self, simulator):
        victims = [simulator.schedule(1.0, lambda: None) for _ in range(50)]
        simulator.schedule(9.0, lambda: None, name="survivor")
        for event in victims:
            event.cancel()
        assert simulator.peek() == 9.0
        # The lazy discard physically drops the cancelled heads, so repeated
        # polling stays O(1) instead of rescanning them every call.
        assert len(simulator._queue) == 1
        assert simulator.pending() == 1

    def test_peek_does_not_disturb_execution_order(self, simulator):
        order = []
        simulator.schedule(2.0, lambda: order.append("b"))
        decoy = simulator.schedule(1.0, lambda: order.append("decoy"))
        decoy.cancel()
        assert simulator.peek() == 2.0
        simulator.run()
        assert order == ["b"]
        assert simulator.peek() is None


class TestGoldenDeterminism:
    """The kernel rewrite must be byte-identical to the seed kernel.

    The digests in ``tests/data/golden_traces.json`` were captured on the
    seed (pre-rewrite) kernel; these tests replay the same workloads through
    the current kernel and require identical execution logs, event counts,
    and trace snapshots.
    """

    @pytest.fixture(scope="class")
    def golden(self):
        return json.loads(GOLDEN_PATH.read_text())

    def test_synthetic_workload_matches_seed_kernel(self, golden):
        assert kernel_workload() == golden["kernel_workload"]

    def test_closed_loop_pca_system_matches_seed_kernel(self, golden):
        probe = pca_system_probe()
        assert probe["event_count"] == golden["pca_system"]["event_count"]
        assert probe["trace_digest"] == golden["pca_system"]["trace_digest"]
        assert probe["record_digest"] == golden["pca_system"]["record_digest"]


class TestFactory:
    def test_build_simulator_default(self):
        assert build_simulator().now == 0.0

    def test_build_simulator_with_start_time(self):
        assert build_simulator({"start_time": 3.0}).now == 3.0

    def test_build_simulator_ignores_unknown_keys(self):
        assert build_simulator({"whatever": 1}).now == 0.0
