"""Tests for trace recording, random streams, and fault injection."""

import numpy as np
import pytest

from repro.sim.channel import Channel, ChannelConfig
from repro.sim.faults import FaultInjector, FaultSpec
from repro.sim.kernel import Simulator
from repro.sim.random import RandomStreams
from repro.sim.trace import TraceRecorder


class TestTraceRecorder:
    def test_record_and_read_samples(self, trace):
        trace.record(0.0, "spo2", 98.0)
        trace.record(1.0, "spo2", 97.0)
        assert trace.samples("spo2") == [(0.0, 98.0), (1.0, 97.0)]
        assert list(trace.values("spo2")) == [98.0, 97.0]
        assert list(trace.times("spo2")) == [0.0, 1.0]

    def test_signals_sorted(self, trace):
        trace.record(0.0, "b", 1)
        trace.record(0.0, "a", 1)
        assert trace.signals() == ["a", "b"]

    def test_last_and_value_at(self, trace):
        trace.record(0.0, "hr", 70)
        trace.record(5.0, "hr", 80)
        assert trace.last("hr") == (5.0, 80)
        assert trace.value_at("hr", 3.0) == 70
        assert trace.value_at("hr", 6.0) == 80
        assert trace.value_at("hr", -1.0) is None

    def test_events_and_counts(self, trace):
        trace.event(1.0, "alarm", "low_spo2")
        trace.event(2.0, "alarm", "low_spo2")
        trace.event(3.0, "stop")
        assert trace.count_events("alarm") == 2
        assert trace.first_event_time("alarm") == 1.0
        assert trace.first_event_time("missing") is None
        assert len(trace.events()) == 3

    def test_duration_below_and_above(self, trace):
        for t, v in [(0.0, 95.0), (10.0, 85.0), (20.0, 85.0), (30.0, 95.0)]:
            trace.record(t, "spo2", v)
        assert trace.duration_below("spo2", 90.0) == pytest.approx(20.0)
        assert trace.duration_above("spo2", 90.0) == pytest.approx(10.0)

    def test_min_max_mean(self, trace):
        for t, v in enumerate([3.0, 1.0, 2.0]):
            trace.record(float(t), "x", v)
        assert trace.max("x") == 3.0
        assert trace.min("x") == 1.0
        assert trace.mean("x") == pytest.approx(2.0)

    def test_statistics_on_missing_signal_raise(self, trace):
        with pytest.raises(KeyError):
            trace.max("nothing")

    def test_merge_combines_and_sorts(self, trace):
        other = TraceRecorder()
        trace.record(2.0, "x", 2)
        other.record(1.0, "x", 1)
        other.event(0.5, "e")
        trace.merge(other)
        assert trace.samples("x") == [(1.0, 1), (2.0, 2)]
        assert trace.count_events("e") == 1

    def test_to_dict_roundtrip_structure(self, trace):
        trace.record(0.0, "x", 1)
        trace.event(1.0, "e", "v")
        data = trace.to_dict()
        assert "x" in data["signals"]
        assert data["events"][0]["signal"] == "e"

    def test_len(self, trace):
        trace.record(0.0, "x", 1)
        trace.event(1.0, "e")
        assert len(trace) == 2

    def test_record_many_bulk_append(self, trace):
        trace.record(0.0, "spo2", 99.0)
        trace.record_many("spo2", [1.0, 2.0, 3.0], [98.0, 97.0, 96.0])
        assert trace.samples("spo2") == [(0.0, 99.0), (1.0, 98.0),
                                         (2.0, 97.0), (3.0, 96.0)]
        assert list(trace.times("spo2")) == [0.0, 1.0, 2.0, 3.0]
        assert len(trace) == 4

    def test_record_many_accepts_numpy_arrays(self, trace):
        # Regression: the emptiness guard used `not times`, which raises on
        # multi-element ndarrays — the primary bulk-sampler input type.
        trace.record_many("x", np.array([1.0, 2.0]), np.array([10.0, 20.0]))
        trace.record_many("x", np.array([]), np.array([]))
        assert trace.samples("x") == [(1.0, 10.0), (2.0, 20.0)]
        # ndarray values must land as Python floats, or to_dict() stops
        # being JSON-serialisable.
        import json as json_module
        json_module.dumps(trace.to_dict())

    def test_record_many_new_signal_and_empty(self, trace):
        trace.record_many("fresh", [], [])
        assert trace.samples("fresh") == []
        trace.record_many("fresh", (0.5,), (1.0,))
        assert trace.last("fresh") == (0.5, 1.0)

    def test_record_many_length_mismatch_rejected(self, trace):
        with pytest.raises(ValueError):
            trace.record_many("x", [1.0, 2.0], [1.0])

    def test_times_values_arrays_are_cached_until_write(self, trace):
        trace.record(0.0, "x", 1.0)
        trace.record(1.0, "x", 2.0)
        first = trace.values("x")
        assert trace.values("x") is first  # cached between reads
        assert trace.times("x") is trace.times("x")
        trace.record(2.0, "x", 3.0)
        second = trace.values("x")
        assert second is not first  # invalidated by the write
        assert list(second) == [1.0, 2.0, 3.0]
        trace.record_many("x", [3.0], [4.0])
        assert list(trace.values("x")) == [1.0, 2.0, 3.0, 4.0]

    def test_cached_arrays_are_read_only(self, trace):
        trace.record(0.0, "x", 1.0)
        values = trace.values("x")
        with pytest.raises(ValueError):
            values[0] = 99.0  # mutating the shared cache would corrupt it

    def test_merge_invalidates_caches(self, trace):
        trace.record(2.0, "x", 2.0)
        stale = trace.values("x")
        other = TraceRecorder()
        other.record(1.0, "x", 1.0)
        trace.merge(other)
        assert list(trace.values("x")) == [1.0, 2.0]
        assert list(stale) == [2.0]  # the old array is simply detached

    def test_missing_signal_queries(self, trace):
        assert trace.samples("nope") == []
        assert trace.times("nope").size == 0
        assert trace.values("nope").size == 0
        assert trace.last("nope") is None
        assert trace.value_at("nope", 1.0) is None


class TestRandomStreams:
    def test_same_name_same_stream_object(self):
        streams = RandomStreams(1)
        assert streams.stream("a") is streams.stream("a")

    def test_reproducible_across_instances(self):
        a = RandomStreams(42).stream("patients").random(5)
        b = RandomStreams(42).stream("patients").random(5)
        assert np.allclose(a, b)

    def test_order_independent(self):
        one = RandomStreams(42)
        two = RandomStreams(42)
        one.stream("x")
        a = one.stream("y").random(3)
        b = two.stream("y").random(3)
        assert np.allclose(a, b)

    def test_different_names_differ(self):
        streams = RandomStreams(0)
        assert not np.allclose(streams.stream("a").random(5), streams.stream("b").random(5))

    def test_different_seeds_differ(self):
        assert not np.allclose(
            RandomStreams(1).stream("a").random(5), RandomStreams(2).stream("a").random(5)
        )

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            RandomStreams(-1)

    def test_spawn_independent_child(self):
        parent = RandomStreams(5)
        child = parent.spawn("child")
        assert not np.allclose(parent.stream("a").random(4), child.stream("a").random(4))

    def test_contains_and_reset(self):
        streams = RandomStreams(0)
        streams.stream("a")
        assert "a" in streams
        streams.reset()
        assert "a" not in streams


class _FakeDevice:
    def __init__(self):
        self.crashed = False
        self.restarted = False
        self.frozen = False
        self.reprogram_args = None
        self.proxy_count = 0

    def crash(self):
        self.crashed = True

    def restart(self):
        self.restarted = True

    def freeze(self):
        self.frozen = True

    def unfreeze(self):
        self.frozen = False

    def reprogram(self, **kwargs):
        self.reprogram_args = kwargs

    def proxy_request(self, count=1):
        self.proxy_count += count


class TestFaultSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="nonsense", start=0.0)

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="device_crash", start=-1.0)

    def test_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(kind="channel_outage", start=0.0, duration=-1.0)

    @pytest.mark.parametrize("kind", ["channel_outage", "stuck_sensor"])
    def test_zero_duration_extent_fault_rejected(self, kind):
        # Regression: a zero-length outage failed at its fault instant
        # ("outage end must be after start") and a zero-length stuck sensor
        # stayed frozen for the rest of the run.
        with pytest.raises(ValueError, match=f"fault duration .*{kind}"):
            FaultSpec(kind=kind, start=1.0, duration=0.0, target="x")

    def test_end_property(self):
        spec = FaultSpec(kind="channel_outage", start=2.0, duration=3.0)
        assert spec.end == 5.0


class TestFaultInjector:
    def test_device_crash_fault(self):
        sim = Simulator()
        injector = FaultInjector(sim)
        device = _FakeDevice()
        injector.register_device("pump", device)
        injector.add(FaultSpec(kind="device_crash", start=5.0, target="pump"))
        injector.arm()
        sim.run(until=10.0)
        assert device.crashed
        assert len(injector.injected) == 1

    def test_device_restart_fault(self):
        sim = Simulator()
        injector = FaultInjector(sim)
        device = _FakeDevice()
        injector.register_device("pump", device)
        injector.extend([
            FaultSpec(kind="device_crash", start=1.0, target="pump"),
            FaultSpec(kind="device_restart", start=2.0, target="pump"),
        ])
        injector.arm()
        sim.run()
        assert device.restarted

    def test_misprogramming_passes_parameters(self):
        sim = Simulator()
        injector = FaultInjector(sim)
        device = _FakeDevice()
        injector.register_device("pump", device)
        injector.add(FaultSpec(kind="misprogramming", start=1.0, target="pump",
                               parameters={"rate_multiplier": 4.0}))
        injector.arm()
        sim.run()
        assert device.reprogram_args == {"rate_multiplier": 4.0}

    def test_pca_by_proxy(self):
        sim = Simulator()
        injector = FaultInjector(sim)
        device = _FakeDevice()
        injector.register_device("pump", device)
        injector.add(FaultSpec(kind="pca_by_proxy", start=1.0, target="pump", parameters={"count": 3}))
        injector.arm()
        sim.run()
        assert device.proxy_count == 3

    def test_stuck_sensor_freezes_then_unfreezes(self):
        sim = Simulator()
        injector = FaultInjector(sim)
        device = _FakeDevice()
        injector.register_device("ox", device)
        injector.add(FaultSpec(kind="stuck_sensor", start=1.0, duration=2.0, target="ox"))
        injector.arm()
        sim.run(until=2.0)
        assert device.frozen
        sim.run(until=5.0)
        assert not device.frozen

    def test_channel_outage_fault(self):
        sim = Simulator()
        injector = FaultInjector(sim)
        channel = Channel(sim, "link", ChannelConfig())
        injector.register_channel(channel)
        injector.add(FaultSpec(kind="channel_outage", start=1.0, duration=2.0, target="link"))
        injector.arm()
        sim.run(until=1.5)
        assert channel.in_outage(1.5)

    def test_unknown_target_raises_at_apply_time(self):
        sim = Simulator()
        injector = FaultInjector(sim)
        injector.add(FaultSpec(kind="device_crash", start=1.0, target="missing"))
        injector.arm()
        with pytest.raises(KeyError):
            sim.run()

    def test_custom_fault_handler(self):
        sim = Simulator()
        injector = FaultInjector(sim)
        called = []
        injector.register_custom("thing", lambda spec: called.append(spec.kind))
        injector.add(FaultSpec(kind="custom", start=1.0, target="thing"))
        injector.arm()
        sim.run()
        assert called == ["custom"]

    def test_arm_twice_is_an_error_not_a_double_schedule(self):
        # arm() twice used to schedule every fault twice (double outages,
        # double proxy boluses) — silent experiment corruption.
        sim = Simulator()
        injector = FaultInjector(sim)
        device = _FakeDevice()
        injector.register_device("pump", device)
        injector.add(FaultSpec(kind="pca_by_proxy", start=1.0, target="pump",
                               parameters={"count": 3}))
        injector.arm()
        with pytest.raises(RuntimeError, match="arm.*twice"):
            injector.arm()
        sim.run()
        assert device.proxy_count == 3  # injected exactly once
        assert injector.armed

    def test_add_after_arm_schedules_immediately(self):
        # add() after arm() used to silently never fire — the worst failure
        # mode for a fault campaign that believes it injected something.
        sim = Simulator()
        injector = FaultInjector(sim)
        device = _FakeDevice()
        injector.register_device("pump", device)
        injector.arm()
        injector.add(FaultSpec(kind="device_crash", start=2.0, target="pump"))
        sim.run()
        assert device.crashed
        assert len(injector.injected) == 1

    def test_add_before_arm_schedules_once(self):
        sim = Simulator()
        injector = FaultInjector(sim)
        device = _FakeDevice()
        injector.register_device("pump", device)
        injector.add(FaultSpec(kind="device_crash", start=1.0, target="pump"))
        assert not injector.armed
        injector.arm()
        sim.run()
        assert len(injector.injected) == 1


class TestFaultSpecRoundtrip:
    def test_as_dict_from_dict_roundtrip(self):
        spec = FaultSpec(kind="channel_outage", start=10.0, duration=5.0,
                         target="link", parameters={"x": 1})
        assert FaultSpec.from_dict(spec.as_dict()) == spec

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown fault spec fields"):
            FaultSpec.from_dict({"kind": "device_crash", "start": 0.0,
                                 "severity": "high"})

    def test_from_dict_requires_kind_and_start(self):
        with pytest.raises(ValueError, match="requires 'kind' and 'start'"):
            FaultSpec.from_dict({"kind": "device_crash"})

    @pytest.mark.parametrize("field, value", [
        ("start", float("nan")),
        ("start", float("inf")),
        ("start", None),
        ("start", True),
        ("duration", float("inf")),
        ("duration", float("nan")),
        ("duration", "long"),
        ("parameters", [1, 2]),
        ("parameters", "x"),
    ])
    def test_from_dict_rejects_bad_values_naming_the_field(self, field, value):
        # Regression: NaN and infinite times were accepted (a NaN start then
        # failed inside the kernel), and a non-object parameters raised a
        # bare TypeError.
        data = {"kind": "channel_outage", "start": 1.0, "target": "uplink:x"}
        data[field] = value
        with pytest.raises(ValueError, match=f"fault {field}"):
            FaultSpec.from_dict(data)

    def test_fault_plan_specs_compiles_plan(self):
        from repro.sim.faults import fault_plan_specs

        plan = [{"kind": "channel_outage", "start": 30.0, "duration": 10.0,
                 "target": "uplink:pulse-ox-1"}]
        specs = fault_plan_specs(plan)
        assert len(specs) == 1
        assert specs[0].end == 40.0


class TestFaultInjectorMetrics:
    def test_faults_injected_counter_increments_when_enabled(self):
        from repro.obs import metrics as obsm

        was_enabled = obsm.enabled()
        obsm.enable()
        obsm.registry().reset()
        try:
            sim = Simulator()
            injector = FaultInjector(sim)
            device = _FakeDevice()
            injector.register_device("pump", device)
            injector.add(FaultSpec(kind="device_crash", start=1.0, target="pump"))
            injector.arm()
            sim.run()
            assert obsm.registry().get("campaign.faults_injected").value == 1
        finally:
            obsm.registry().reset()
            if not was_enabled:
                obsm.disable()
