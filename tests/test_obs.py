"""Unit tests for the ``repro.obs`` observability package.

Covers the metric types and registry, deterministic span tracing, event
owner attribution and the dispatch hook, NDJSON export ordering, the
shard-merge semantics, and the structured logging facade.  Integration with the simulation layers
(golden-digest invariance, CLI, campaign export) lives in
``test_obs_integration.py``.
"""

import io
import json

import pytest

from repro.obs import metrics as obsm
from repro.obs.export import (
    dump_lines,
    merge_lines,
    merge_snapshots,
    read_snapshot,
    snapshot_lines,
    write_snapshot,
)
from repro.obs.logging import StructLogger
from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.obs.profiler import owner_of
from repro.obs.spans import SpanTracer, derive_id
from repro.sim.kernel import Simulator


@pytest.fixture
def obs_on():
    """Enable observability for the test, restoring prior state after."""
    was_enabled = obsm.enabled()
    obsm.enable()
    obsm.registry().reset()
    from repro.obs.spans import tracer
    tracer().reset()
    yield obsm.registry()
    obsm.registry().reset()
    tracer().reset()
    if not was_enabled:
        obsm.disable()


class TestMetricTypes:
    def test_counter_inc_and_direct_value(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(5)
        counter.value += 2
        assert counter.value == 8
        assert counter.line() == {"type": "counter", "name": "c", "value": 8}

    def test_gauge_aggs(self):
        gauge = Gauge("g", agg="max")
        gauge.set(3.0)
        gauge.set_max(1.0)
        assert gauge.value == 3.0
        gauge.set_max(7.0)
        assert gauge.value == 7.0
        with pytest.raises(ValueError):
            Gauge("bad", agg="median")

    def test_histogram_bucket_edges_are_upper_inclusive(self):
        hist = Histogram("h", bounds=(1.0, 2.0, 5.0))
        for value in (0.5, 1.0, 1.5, 2.0, 4.9, 5.0, 100.0):
            hist.observe(value)
        # le-semantics: 1.0 lands in the first bucket, 5.0 in the third,
        # 100.0 overflows.
        assert hist.counts == [2, 2, 2, 1]
        assert hist.count == 7
        assert hist.sum == pytest.approx(114.9)

    def test_histogram_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            Histogram("h", bounds=())
        with pytest.raises(ValueError):
            Histogram("h", bounds=(1.0, 1.0))
        with pytest.raises(ValueError):
            Histogram("h", bounds=(2.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")

    def test_kind_conflicts_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.gauge("x")
        reg.gauge("g", agg="max")
        with pytest.raises(ValueError):
            reg.gauge("g", agg="last")
        reg.histogram("h", bounds=(1.0, 2.0))
        with pytest.raises(ValueError):
            reg.histogram("h", bounds=(1.0, 3.0))

    def test_snapshot_sorted_by_name(self):
        reg = MetricsRegistry()
        reg.counter("zz")
        reg.counter("aa")
        reg.gauge("mm")
        assert [line["name"] for line in reg.snapshot()] == ["aa", "mm", "zz"]

    def test_reset_preserves_cached_references(self):
        reg = MetricsRegistry()
        counter = reg.counter("c")
        counter.value = 10
        reg.reset()
        assert counter.value == 0
        counter.value += 1  # a cached bundle reference keeps working
        assert reg.counter("c").value == 1


class TestEnableSwitch:
    def test_bundles_are_none_when_disabled(self):
        was_enabled = obsm.enabled()
        obsm.disable()
        try:
            assert obsm.kernel_instruments() is None
            assert obsm.channel_instruments() is None
            assert obsm.bus_instruments() is None
            assert obsm.sampler_instruments() is None
            assert obsm.campaign_instruments() is None
            assert Simulator()._metrics is None
        finally:
            if was_enabled:
                obsm.enable()

    def test_bundles_share_registry_metrics_when_enabled(self, obs_on):
        a = obsm.channel_instruments()
        b = obsm.channel_instruments()
        assert a is not None and b is not None
        assert a.delivered is b.delivered  # process-level aggregate

    def test_kernel_flush_run_accounts_deltas(self, obs_on):
        inst = obsm.kernel_instruments()
        inst.heap_peak = 17
        inst.flush_run(100, 50.0, 0.5)
        assert obs_on.counter("kernel.events_fired").value == 100
        assert obs_on.counter("kernel.sim_seconds_total").value == 50.0
        assert obs_on.gauge("kernel.heap_peak", agg="max").value == 17
        assert obs_on.gauge("kernel.events_per_s", agg="max").value == 200.0


class TestSpans:
    def test_ids_are_deterministic(self):
        assert derive_id("run-1") == derive_id("run-1")
        assert derive_id("run-1") != derive_id("run-2")
        tracer_a, tracer_b = SpanTracer(), SpanTracer()
        for tracer in (tracer_a, tracer_b):
            with tracer.trace("seed").span("outer"):
                pass
        ids = lambda t: [(s["trace_id"], s["span_id"], s["parent_id"])
                         for s in t.lines()]
        assert ids(tracer_a) == ids(tracer_b)  # wall timestamps may differ

    def test_nesting_sets_parent_ids(self):
        tracer = SpanTracer()
        context = tracer.trace("run")
        with context.span("outer") as outer:
            with context.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id == ""
        assert outer.trace_id == inner.trace_id == derive_id("run")

    def test_custom_clock_and_attrs(self):
        tracer = SpanTracer()
        ticks = iter([1.0, 4.5])
        with tracer.trace("s", clock=lambda: next(ticks),
                          clock_name="sim").span("phase", mode="x") as span:
            pass
        assert span.start == 1.0 and span.end == 4.5
        assert span.duration == 3.5
        line = span.line()
        assert line["clock"] == "sim"
        assert line["attrs"] == {"mode": "x"}

    def test_cap_counts_dropped_spans(self):
        tracer = SpanTracer(cap=2)
        context = tracer.trace("s")
        for i in range(5):
            with context.span(f"p{i}"):
                pass
        assert len(tracer.spans) == 2
        assert tracer.dropped == 3


class TestProfiler:
    def test_owner_attribution(self):
        assert owner_of("") == "<anonymous>"
        assert owner_of("channel:uplink:dev-a:deliver") == "channel:uplink:dev-a"
        assert owner_of("bus:forward") == "bus"
        assert owner_of("pump-1:_tick") == "pump-1"
        assert owner_of("plain") == "plain"

    def test_attached_dispatcher_runs_every_event(self):
        class Counting:
            def __init__(self):
                self.owners = []

            def dispatch(self, event):
                self.owners.append(owner_of(event.name))
                event.callback()

        fired = []
        dispatcher = Counting()
        sim = Simulator()
        sim.attach_profiler(dispatcher)
        sim.schedule(1.0, lambda: fired.append("a"), name="a:x")
        sim.schedule(2.0, lambda: fired.append("b"), name="b:y")
        sim.run()
        assert dispatcher.owners == ["a", "b"]
        assert fired == ["a", "b"]

    def test_stepped_events_reach_the_dispatcher_and_fired_counter(self, obs_on):
        class Counting:
            def __init__(self):
                self.calls = 0

            def dispatch(self, event):
                self.calls += 1
                event.callback()

        dispatcher = Counting()
        sim = Simulator()
        sim.attach_profiler(dispatcher)
        sim.call_every(1.0, lambda: None, name="tick:a")
        sim.call_every(1.0, lambda: None, name="tick:b")
        sim.schedule(1.5, lambda: None, name="one:x")
        fired = obs_on.counter("kernel.events_fired")
        before = fired.value
        steps = 7
        for _ in range(steps):
            assert sim.step()
        assert dispatcher.calls == steps
        assert fired.value - before == steps
        assert sim.event_count == steps


class TestExport:
    def test_snapshot_line_ordering(self):
        reg = MetricsRegistry()
        reg.histogram("h", bounds=(1.0,)).observe(0.5)
        reg.counter("z_counter").inc()
        reg.gauge("a_gauge").set(1.0)
        tracer = SpanTracer()
        with tracer.trace("s").span("phase"):
            pass
        lines = snapshot_lines(registry=reg, tracer=tracer)
        kinds = [line["type"] for line in lines]
        assert kinds == ["meta", "counter", "gauge", "histogram", "span"]

    def test_dump_is_sorted_compact_ndjson(self):
        text = dump_lines([{"b": 1, "a": 2, "type": "meta"}])
        assert text == '{"a":2,"b":1,"type":"meta"}\n'

    def test_write_and_read_roundtrip(self, tmp_path, obs_on):
        obs_on.counter("c").inc(3)
        path = write_snapshot(tmp_path / "snap.ndjson")
        lines = read_snapshot(path)
        assert lines[0]["type"] == "meta"
        assert {"type": "counter", "name": "c", "value": 3} in lines


class TestMerge:
    def shard(self, counter=0, gauge=0.0, counts=(0, 0)):
        return [
            {"type": "meta", "schema": 1},
            {"type": "counter", "name": "c", "value": counter},
            {"type": "gauge", "name": "g", "value": gauge, "agg": "max"},
            {"type": "histogram", "name": "h", "bounds": [1.0],
             "counts": list(counts), "sum": float(sum(counts)),
             "count": sum(counts)},
        ]

    def test_counters_sum_gauges_fold_histograms_add(self):
        merged = merge_lines([self.shard(2, 5.0, (1, 0)),
                              self.shard(3, 1.0, (0, 2))])
        by_name = {line.get("name"): line for line in merged}
        assert by_name["c"]["value"] == 5
        assert by_name["g"]["value"] == 5.0  # agg=max
        assert by_name["h"]["counts"] == [1, 2]
        assert by_name["h"]["count"] == 3
        assert merged[0]["merged_shards"] == 2

    def test_last_gauge_takes_final_shard(self):
        shards = [[{"type": "gauge", "name": "g", "value": v, "agg": "last"}]
                  for v in (1.0, 2.0, 3.0)]
        merged = merge_lines(shards)
        assert merged[-1]["value"] == 3.0

    def test_conflicting_gauge_aggs_rejected(self):
        with pytest.raises(ValueError):
            merge_lines([[{"type": "gauge", "name": "g", "value": 1, "agg": "max"}],
                         [{"type": "gauge", "name": "g", "value": 1, "agg": "sum"}]])

    def test_mismatched_histogram_bounds_rejected(self):
        hist = {"type": "histogram", "name": "h", "counts": [0, 0],
                "sum": 0.0, "count": 0}
        with pytest.raises(ValueError):
            merge_lines([[dict(hist, bounds=[1.0])],
                         [dict(hist, bounds=[2.0])]])

    def test_spans_concatenate(self):
        span = {"type": "span", "trace_id": "t", "span_id": "s1",
                "parent_id": "", "name": "p", "clock": "sim",
                "start": 0.0, "end": 1.0}
        merged = merge_lines([[span], [dict(span, span_id="s2")]])
        spans = [line for line in merged if line["type"] == "span"]
        assert {s["span_id"] for s in spans} == {"s1", "s2"}

    def test_unknown_line_type_rejected(self):
        line = {"type": "profile", "owner": "o", "samples": 2}
        with pytest.raises(ValueError, match="unknown line type 'profile'"):
            merge_lines([[line], [dict(line)]])

    def test_merge_snapshot_files_in_sorted_order(self, tmp_path):
        for name, value in (("b.ndjson", 2.0), ("a.ndjson", 1.0)):
            (tmp_path / name).write_text(dump_lines(
                [{"type": "gauge", "name": "g", "value": value,
                  "agg": "last"}]), encoding="utf-8")
        out = tmp_path / "merged.ndjson"
        merged = merge_snapshots([tmp_path / "b.ndjson", tmp_path / "a.ndjson"],
                                 out=out)
        # Sorted path order: a.ndjson merges first, b.ndjson last -> 2.0.
        assert merged[-1]["value"] == 2.0
        assert read_snapshot(out) == merged


class TestStructLogger:
    def capture(self, mode):
        out, err = io.StringIO(), io.StringIO()
        return StructLogger("t", mode=mode, out=out, err=err), out, err

    def test_human_mode_prints_message_verbatim(self):
        log, out, err = self.capture("human")
        log.info("hello world", event="greeting", n=1)
        assert out.getvalue() == "hello world\n"
        assert err.getvalue() == ""

    def test_json_mode_emits_structured_ndjson(self):
        log, out, _ = self.capture("json")
        log.info("msg", event="thing", n=2)
        record = json.loads(out.getvalue())
        assert record == {"level": "info", "logger": "t", "event": "thing",
                          "msg": "msg", "n": 2}

    def test_quiet_suppresses_info_but_not_errors(self):
        log, out, err = self.capture("quiet")
        log.info("nope")
        log.error("bad")
        assert out.getvalue() == ""
        assert err.getvalue() == "bad\n"

    def test_errors_go_to_stderr_in_every_mode(self):
        for mode in ("human", "json", "quiet"):
            log, out, err = self.capture(mode)
            log.error("boom", event="err")
            assert out.getvalue() == ""
            assert err.getvalue() != ""

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            StructLogger(mode="verbose")
