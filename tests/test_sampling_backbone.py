"""Tests for the fixed-rate sampling backbone (``repro.sim.sampler``).

The backbone's contract has two halves: traces recorded through batched
writers are *byte-identical* to unbatched recording, and readers never see a
stale trace no matter when batches were last flushed (the read barrier).
"""

import json
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.loop import ClosedLoopPCASystem, PCASystemConfig
from repro.devices.base import DeviceDescriptor, MedicalDevice
from repro.devices.pulse_oximeter import PulseOximeter, PulseOximeterConfig, _RollingMean
from repro.patient.model import PatientModel
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.sampler import BatchedTraceWriter
from repro.sim.trace import TraceRecorder


def _bits(value):
    """Bit pattern of a float; every NaN compares equal to every other."""
    return "nan" if math.isnan(value) else struct.pack("<d", value)


class TestBatchedTraceWriter:
    def test_batched_trace_identical_to_direct_recording(self):
        direct, batched = TraceRecorder(), TraceRecorder()
        writer = BatchedTraceWriter(batched, prefix="dev", source="device:dev")
        writer.declare("spo2")
        samples = [(0.5 * i, 97.0 - 0.01 * i) for i in range(500)]
        for time, value in samples:
            direct.record(time, "dev:spo2", value, source="device:dev")
            writer.record(time, "spo2", value)
        writer.flush()
        assert batched.to_dict() == direct.to_dict()

    def test_declare_is_idempotent_and_precomputes_name(self):
        trace = TraceRecorder()
        writer = BatchedTraceWriter(trace, prefix="dev")
        batch = writer.declare("hr")
        assert writer.declare("hr") is batch
        assert batch.signal == "dev:hr"

    def test_undeclared_signal_created_lazily(self):
        trace = TraceRecorder()
        writer = BatchedTraceWriter(trace, prefix="dev")
        writer.record(1.0, "surprise", 42)
        assert trace.samples("dev:surprise") == [(1.0, 42)]

    def test_declared_but_never_sampled_signal_stays_absent(self):
        # An empty batch must not materialise a trace buffer: to_dict() and
        # signals() must look exactly as if the signal never existed.
        trace = TraceRecorder()
        writer = BatchedTraceWriter(trace, prefix="dev")
        writer.declare("never_sampled")
        writer.flush()
        assert trace.signals() == []
        assert trace.to_dict()["signals"] == {}

    def test_read_barrier_drains_pending_batches(self):
        trace = TraceRecorder()
        writer = BatchedTraceWriter(trace, prefix="dev")
        batch = writer.declare("spo2")
        batch.append(1.0, 97.0)
        batch.append(2.0, 96.0)
        # No explicit flush: every query must still see both samples.
        assert trace.last("dev:spo2") == (2.0, 96.0)
        assert trace.value_at("dev:spo2", 1.5) == 97.0
        assert list(trace.values("dev:spo2")) == [97.0, 96.0]
        assert len(trace) == 2
        assert writer.pending == 0

    def test_merge_drains_both_recorders(self):
        a, b = TraceRecorder(), TraceRecorder()
        writer_a = BatchedTraceWriter(a, prefix="x")
        writer_b = BatchedTraceWriter(b, prefix="y")
        writer_a.record(2.0, "s", "late")
        writer_b.record(1.0, "s", "early")
        a.merge(b)
        assert a.samples("x:s") == [(2.0, "late")]
        assert a.samples("y:s") == [(1.0, "early")]


class TestSamplingLoop:
    def test_device_loop_matches_call_every_schedule(self):
        # A device's sampling loop ticks at the same simulated times, with
        # the same kernel event count, as a bare call_every loop.
        task_sim, device_sim = Simulator(), Simulator()
        task_times, device_times = [], []
        task_sim.call_every(0.5, lambda: task_times.append(task_sim.now))
        device = MedicalDevice(DeviceDescriptor(device_id="dev-1", device_type="probe"))
        device_sim.register(device)
        task = device.sample_every(0.5, lambda: device_times.append(device_sim.now))
        assert task.name == "device:dev-1:sampler"
        device_sim.run(until=10.0)
        task_sim.run(until=10.0)
        assert device_times == task_times
        assert device_sim.event_count == task_sim.event_count

    def test_samples_reach_recorder_only_at_read_barrier(self):
        simulator = Simulator()
        trace = TraceRecorder()
        patient = PatientModel(trace=trace)
        simulator.register(patient)
        simulator.run(until=600.0)  # 120 sampling ticks
        # Nothing flushes during the run; the first read drains everything.
        assert trace._signals == {}
        assert patient._writer.pending > 0
        assert len(trace.values(f"{patient.parameters.patient_id}:spo2")) > 0
        assert patient._writer.pending == 0

    def test_crash_stops_loop_and_keeps_earlier_samples(self):
        simulator = Simulator()
        trace = TraceRecorder()
        device = MedicalDevice(DeviceDescriptor(device_id="dev-1", device_type="probe"),
                               trace=trace)
        simulator.register(device)
        calls = []

        def sample():
            calls.append(device.now)
            device._writer.record(device.now, "v", 0.0)

        task = device.sample_every(1.0, sample)
        simulator.schedule(3.5, device.crash)
        simulator.run(until=10.0)
        assert task.cancelled
        assert calls == [1.0, 2.0, 3.0]
        # Samples taken before the crash still reach the recorder at the barrier.
        assert trace.times("dev-1:v").tolist() == [1.0, 2.0, 3.0]

    def test_non_positive_period_rejected(self):
        simulator = Simulator()
        device = MedicalDevice(DeviceDescriptor(device_id="dev-1", device_type="probe"))
        simulator.register(device)
        with pytest.raises(SimulationError):
            device.sample_every(0.0, lambda: None)
        with pytest.raises(SimulationError):
            device.sample_every(-1.0, lambda: None)


class TestRollingMean:
    def test_matches_deque_reference(self):
        from collections import deque

        rng = np.random.default_rng(7)
        window = _RollingMean(4)
        reference = deque(maxlen=4)
        for value in rng.normal(95.0, 2.0, size=50):
            reference.append(float(value))
            # Bit-identical to the old np.mean(deque) implementation.
            assert window.push(float(value)) == float(np.mean(reference))
            assert window.mean == float(np.mean(reference))
        assert len(window) == 4

    @settings(max_examples=150, deadline=None)
    @given(size=st.integers(1, 130),
           operations=st.lists(st.one_of(
               st.tuples(st.just("push"), st.floats(-1e6, 1e6)),
               st.tuples(st.just("push"), st.sampled_from([-0.0, 0.0, math.inf, math.nan])),
               st.tuples(st.just("mean"), st.none()),
               st.tuples(st.just("bias"), st.floats(-100.0, 100.0)),
               st.tuples(st.just("clear"), st.none())), max_size=300))
    def test_push_returns_the_numpy_mean(self, size, operations):
        window = _RollingMean(size)
        held = []
        for operation, value in operations:
            if operation == "push":
                held = (held + [value])[-size:]
                with np.errstate(invalid="ignore"):
                    expected = np.mean(np.array(held))
                mean = window.push(value)
                assert type(mean) is float
                assert _bits(mean) == _bits(expected)
            elif operation == "bias":
                held = [sample + value for sample in held]
                window.bias(value)
            elif operation == "clear":
                held = []
                window.clear()
            if held:
                with np.errstate(invalid="ignore"):
                    assert _bits(window.mean) == _bits(np.mean(np.array(held)))
            else:
                assert math.isnan(window.mean)
            assert len(window) == len(held)

    def test_empty_window_is_nan(self):
        window = _RollingMean(4)
        assert np.isnan(window.mean)
        assert len(window) == 0

    def test_clear_and_bias(self):
        window = _RollingMean(3)
        for value in (1.0, 2.0, 3.0):
            window.push(value)
        window.bias(10.0)
        assert window.mean == pytest.approx(12.0)
        window.clear()
        assert np.isnan(window.mean)


class TestDeviceIntegration:
    def _run_oximeter(self, duration=30.0):
        simulator = Simulator()
        trace = TraceRecorder()
        patient = PatientModel(trace=trace)
        oximeter = PulseOximeter("ox-1", patient,
                                 PulseOximeterConfig(sample_period_s=2.0),
                                 trace=trace)
        simulator.register(patient)
        simulator.register(oximeter)
        simulator.run(until=duration)
        return simulator, trace, oximeter

    def test_oximeter_records_through_backbone(self):
        simulator, trace, oximeter = self._run_oximeter()
        times = trace.times("ox-1:spo2_reading")
        assert len(times) == 15
        assert list(times[:3]) == [2.0, 4.0, 6.0]
        assert list(trace.values("ox-1:spo2_reading")) == pytest.approx(
            [oximeter.current_spo2] * 15)  # flat patient => flat readings

    def test_crash_cancels_sampler_and_preserves_samples(self):
        simulator, trace, oximeter = self._run_oximeter(duration=10.0)
        count_at_crash = len(trace.times("ox-1:spo2_reading"))
        oximeter.crash()
        simulator.run(until=20.0)
        assert len(trace.times("ox-1:spo2_reading")) == count_at_crash

    def test_trace_attached_after_construction_records_signals(self):
        # `device.trace = recorder` after __init__ must behave exactly like
        # passing trace= to the constructor (the writer is rebuilt by the
        # property), not silently record events-but-no-samples.
        simulator = Simulator()
        patient = PatientModel()
        oximeter = PulseOximeter("ox-1", patient,
                                 PulseOximeterConfig(sample_period_s=2.0))
        trace = TraceRecorder()
        oximeter.trace = trace
        patient.trace = trace
        simulator.register(patient)
        simulator.register(oximeter)
        simulator.run(until=10.0)
        assert len(trace.times("ox-1:spo2_reading")) == 5
        prefix = patient.parameters.patient_id
        assert len(trace.times(f"{prefix}:spo2")) == 2

    def test_trace_attached_after_start_records_later_samples(self):
        # A trace attached while the sampling loop is already running gets
        # every later sample: the loop appends through the device's current
        # writer, which the new recorder drains at its read barrier.
        simulator = Simulator()
        patient = PatientModel()
        oximeter = PulseOximeter("ox-1", patient,
                                 PulseOximeterConfig(sample_period_s=2.0))
        simulator.register(patient)
        simulator.register(oximeter)
        simulator.run(until=10.0)
        trace = TraceRecorder()
        oximeter.trace = trace
        simulator.run(until=10.0 + 2.0 * 70)
        times = trace.times("ox-1:spo2_reading")
        assert len(times) == 70
        assert list(times[[0, -1]]) == [12.0, 150.0]

    def test_trace_reassignment_detaches_old_writer(self):
        simulator = Simulator()
        patient = PatientModel()
        oximeter = PulseOximeter("ox-1", patient)
        trace = TraceRecorder()
        oximeter.trace = trace
        oximeter.trace = trace  # reassign: old writer must unregister
        assert len(trace._pending_flushes) == 1
        other = TraceRecorder()
        oximeter.trace = other  # move to a fresh recorder
        assert trace._pending_flushes == []
        assert len(other._pending_flushes) == 1

    def test_detach_flushes_pending_samples(self):
        trace = TraceRecorder()
        writer = BatchedTraceWriter(trace, prefix="dev")
        writer.record(1.0, "s", 42)
        writer.detach()
        assert trace._pending_flushes == []
        assert trace.samples("dev:s") == [(1.0, 42)]

    def test_patient_model_signals_complete(self):
        simulator = Simulator()
        trace = TraceRecorder()
        patient = PatientModel(trace=trace)
        simulator.register(patient)
        simulator.run(until=60.0)
        prefix = patient.parameters.patient_id
        for signal in ("plasma_mg_per_l", "effect_site_mg_per_l", "spo2",
                       "heart_rate", "respiratory_rate", "pain", "true_map"):
            assert len(trace.times(f"{prefix}:{signal}")) == 12


class TestReadBarrierDuringRun:
    """The read barrier is the one flush point: reading mid-run changes nothing."""

    @staticmethod
    def _canonical(payload):
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def test_closed_loop_run_read_mid_run_matches_run_read_at_end(self):
        config = PCASystemConfig(mode="closed_loop", duration_s=1800.0, seed=424242)
        reference = ClosedLoopPCASystem(config)
        expected_record = reference.run().as_record()

        system = ClosedLoopPCASystem(config).build()
        trace = system.trace
        spo2 = f"{config.patient.patient_id}:spo2"
        counts = []
        for instant in (1.0, 97.5, 600.0, 1234.5):
            system.simulator.run(until=instant)
            for signal in trace.signals():
                last = trace.last(signal)
                assert last is not None and last[0] <= instant
            counts.append(len(trace.values(spo2)))
        result = system.run()

        assert counts == sorted(counts) and counts[0] < counts[-1]
        assert system.simulator.event_count == reference.simulator.event_count
        assert self._canonical(trace.to_dict()) == self._canonical(reference.trace.to_dict())
        assert self._canonical(result.as_record()) == self._canonical(expected_record)
