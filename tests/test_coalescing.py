"""Tests for same-tick delivery coalescing in :class:`repro.sim.channel.Channel`.

Messages landing on the same ``(channel, delivery-time)`` share one kernel
event whose per-tick queue drains in FIFO send order.  These tests pin:

* the event-count saving itself (one event per coalesced tick),
* FIFO order within a tick and the new cross-channel grouping semantics,
* equivalence with one event per message: the same latencies, in the same
  order, and the same send, delivery and drop counts,
* the jitter (random delivery time) vs zero-jitter paths,
* the obs metrics that record coalescing and latency, and
* hash-seed independence of coalesced delivery order (subprocess check).
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.obs import metrics as obsm
from repro.obs.spans import tracer
from repro.sim.channel import Channel, ChannelConfig
from repro.sim.kernel import Simulator

SRC = Path(__file__).resolve().parents[1] / "src"


def make_channel(sim, name="c", **kwargs):
    rng = kwargs.pop("rng", None)
    return Channel(sim, name, ChannelConfig(**kwargs), rng=rng)


def collect_latencies(channel):
    """Subscribe a handler recording each delivery's latency, in delivery order."""
    latencies = []
    channel.subscribe(lambda m: latencies.append(m.delivered_at - m.sent_at))
    return latencies


def counts(channel):
    return channel.sent, channel.delivered, channel.dropped


class TestEventCoalescing:
    def test_same_tick_sends_share_one_kernel_event(self):
        sim = Simulator()
        channel = make_channel(sim, latency_s=0.05)
        received = []
        channel.subscribe(lambda m: received.append(m.payload))
        for i in range(5):
            channel.send("a", "t", i)
        # Five same-instant messages, ONE pending kernel event.
        assert sim.pending() == 1
        sim.run()
        assert received == [0, 1, 2, 3, 4]
        assert channel.delivered == 5
        assert sim.event_count == 1

    def test_distinct_ticks_get_their_own_events(self):
        sim = Simulator()
        channel = make_channel(sim, latency_s=0.05)
        channel.subscribe(lambda m: None)
        sim.schedule(0.0, lambda: channel.send("a", "t", 1))
        sim.schedule(0.1, lambda: channel.send("a", "t", 2))
        sim.run()
        # Two trigger events + two distinct delivery events.
        assert sim.event_count == 4
        assert channel.delivered == 2

    def test_cross_channel_same_tick_groups_per_channel(self):
        # Interleaved sends on two channels with equal delivery times now
        # deliver grouped per channel (batch order = first-send order), not
        # interleaved per message.  This is the documented semantic change
        # behind the PR's golden regeneration.
        sim = Simulator()
        a = make_channel(sim, name="a", latency_s=0.05)
        b = make_channel(sim, name="b", latency_s=0.05)
        order = []
        a.subscribe(lambda m: order.append(("a", m.payload)))
        b.subscribe(lambda m: order.append(("b", m.payload)))
        a.send("s", "t", 1)
        b.send("s", "t", 2)
        a.send("s", "t", 3)
        sim.run()
        assert order == [("a", 1), ("a", 3), ("b", 2)]

    def test_handler_send_for_same_instant_gets_fresh_event(self):
        # A zero-latency echo during a batch drain must be delivered via a
        # new kernel event at the same instant, exactly like the old
        # one-event-per-message scheduling did.
        sim = Simulator()
        channel = make_channel(sim, latency_s=0.0)
        log = []

        def echo_once(message):
            log.append(message.payload)
            if message.payload == "ping":
                channel.send("echo", "t", "pong")

        channel.subscribe(echo_once)
        channel.send("a", "t", "ping")
        sim.run()
        assert log == ["ping", "pong"]
        assert sim.event_count == 2
        assert channel._pending == {}

    def test_pending_queue_is_bounded_by_in_flight_messages(self):
        sim = Simulator()
        channel = make_channel(sim, latency_s=0.01)
        channel.subscribe(lambda m: None)
        for tick in range(100):
            sim.schedule(tick * 0.5, lambda: [channel.send("a", "t", i) for i in range(3)])
        sim.run()
        assert channel.delivered == 300
        assert channel._pending == {}  # fully drained, no leak

    def test_delivery_events_share_one_hoisted_callback(self):
        # HOT03 regression: send() must schedule the pre-bound
        # _deliver_batch_cb, never a per-tick closure.  Every queued
        # delivery event carries the identical callable object.
        sim = Simulator()
        channel = make_channel(sim, latency_s=0.05)
        channel.subscribe(lambda m: None)

        def queued_delivery_callbacks():
            return [
                entry[3].callback
                for entry in sim._queue
                if entry[3].name == channel._deliver_name
            ]

        channel.send("a", "t", 1)
        first = queued_delivery_callbacks()
        assert first == [channel._deliver_batch_cb]
        sim.run()
        channel.send("a", "t", 2)
        second = queued_delivery_callbacks()
        assert second == [channel._deliver_batch_cb]
        assert first[0] is second[0]
        sim.run()
        assert channel.delivered == 2


class TestStatsEquivalence:
    """Coalescing moves no latency and no count vs one event per message."""

    def test_zero_jitter_stats_match_unbatched_reference(self):
        # Reference: the same five messages sent at five distinct ticks
        # (nothing coalesces — the per-message scheduling of PR 3).
        sim_ref = Simulator()
        ref = make_channel(sim_ref, latency_s=0.25)
        ref_latencies = collect_latencies(ref)
        for i in range(5):
            sim_ref.schedule(i * 1.0, lambda: ref.send("a", "t", 0))
        sim_ref.run()

        sim = Simulator()
        coalesced = make_channel(sim, latency_s=0.25)
        coalesced_latencies = collect_latencies(coalesced)
        for _ in range(5):
            coalesced.send("a", "t", 0)
        sim.run()

        assert coalesced_latencies == ref_latencies == [0.25] * 5
        assert counts(coalesced) == counts(ref) == (5, 5, 0)
        # Only the schedule differs: one delivery event against five.
        assert sim.event_count == 1
        assert sim_ref.event_count == 10

    def test_jitter_latencies_match_rng_draw_order(self):
        # With jitter, per-message latencies are sampled in send order
        # regardless of how deliveries batch; the latencies a subscriber sees
        # must be exactly the rng's draws, ordered by delivery time (stable
        # for equal times).
        reference_rng = np.random.default_rng(7)
        expected = sorted(
            max(0.0, 0.5 + reference_rng.uniform(-0.2, 0.2)) for _ in range(20)
        )

        sim = Simulator()
        channel = make_channel(sim, latency_s=0.5, jitter_s=0.2,
                               rng=np.random.default_rng(7))
        latencies = collect_latencies(channel)
        for _ in range(20):
            channel.send("a", "t", 0)
        sim.run()
        assert counts(channel) == (20, 20, 0)
        # Deliveries happen in delivery-time order, so the subscriber sees
        # the sorted rng draws.
        assert latencies == pytest.approx(expected)

    def test_jitter_coalesces_only_bit_identical_times(self):
        # Random latencies virtually never collide, so the jitter path keeps
        # one event per message: event count == messages delivered.
        sim = Simulator()
        channel = make_channel(sim, latency_s=0.5, jitter_s=0.2,
                               rng=np.random.default_rng(3))
        channel.subscribe(lambda m: None)
        for _ in range(50):
            channel.send("a", "t", 0)
        assert sim.pending() == 50
        sim.run()
        assert channel.delivered == 50

    def test_loss_and_outage_paths_unchanged(self):
        sim = Simulator()
        channel = make_channel(sim, latency_s=0.1, loss_probability=1.0,
                               rng=np.random.default_rng(0))
        channel.subscribe(lambda m: None)
        for _ in range(10):
            channel.send("a", "t", 0)
        assert sim.pending() == 0  # dropped messages schedule nothing
        sim.run()
        assert channel.dropped == 10
        assert channel.delivered == 0


@pytest.fixture
def channel_metrics():
    """Observability on for the channels a test builds; the switch, the
    registry and the tracer are restored afterwards."""
    was_enabled = obsm.enabled()
    obsm.enable()
    obsm.registry().reset()
    tracer().reset()
    try:
        yield obsm.registry()
    finally:
        obsm.registry().reset()
        tracer().reset()
        if not was_enabled:
            obsm.disable()


def coalescing_record(registry):
    """The obs record of shared delivery ticks: (coalesced_ticks, max_batch)."""
    return (registry.counter("channel.coalesced_ticks").value,
            registry.gauge("channel.max_batch", agg="max").value)


class TestObsCoalescingRecord:
    """The obs bundle is the channel's one record of coalescing and latency."""

    def test_record_starts_at_zero(self, channel_metrics):
        sim = Simulator()
        channel = make_channel(sim, latency_s=0.05)
        channel.send("a", "t", 0)
        assert coalescing_record(channel_metrics) == (0, 0.0)

    def test_single_message_ticks_never_count_as_coalesced(self, channel_metrics):
        sim = Simulator()
        channel = make_channel(sim, latency_s=0.05)
        channel.subscribe(lambda m: None)
        for tick in range(4):
            sim.schedule(tick * 1.0, lambda: channel.send("a", "t", 0))
        sim.run()
        assert channel.delivered == 4
        assert coalescing_record(channel_metrics) == (0, 0.0)

    def test_record_tracks_ticks_and_largest_batch(self, channel_metrics):
        sim = Simulator()
        channel = make_channel(sim, latency_s=0.05)
        latencies = collect_latencies(channel)
        # Tick 1: batch of 3; tick 2: batch of 2; tick 3: single message.
        for _ in range(3):
            channel.send("a", "t", 0)
        sim.schedule(1.0, lambda: [channel.send("a", "t", 0) for _ in range(2)])
        sim.schedule(2.0, lambda: channel.send("a", "t", 0))
        sim.run()
        assert channel.delivered == 6
        assert coalescing_record(channel_metrics) == (2, 3.0)
        histogram = channel_metrics.histogram("channel.latency_s", obsm.LATENCY_BOUNDS_S)
        assert histogram.count == channel_metrics.counter("channel.delivered").value == 6
        assert histogram.sum == sum(latencies)

    def test_max_batch_is_monotone_across_ticks(self, channel_metrics):
        sim = Simulator()
        channel = make_channel(sim, latency_s=0.05)
        channel.subscribe(lambda m: None)
        sim.schedule(0.0, lambda: [channel.send("a", "t", 0) for _ in range(4)])
        sim.schedule(1.0, lambda: [channel.send("a", "t", 0) for _ in range(2)])
        sim.run()
        # The later, smaller batch must not shrink the recorded maximum.
        assert coalescing_record(channel_metrics) == (2, 4.0)

    def test_jittered_channel_coalesces_only_clamped_draws(self, channel_metrics):
        # Jitter wider than the latency clamps every negative draw to zero
        # latency: those messages share the delivery instant "now", and
        # every other one gets an instant of its own.
        clamped = sum(np.random.default_rng(11).uniform(-0.2, 0.2, 20) <= 0.0)
        assert 1 < clamped < 20
        sim = Simulator()
        channel = make_channel(sim, latency_s=0.0, jitter_s=0.2, rng=np.random.default_rng(11))
        latencies = collect_latencies(channel)
        for _ in range(20):
            channel.send("a", "t", 0)
        sim.run()
        assert counts(channel) == (20, 20, 0)
        assert coalescing_record(channel_metrics) == (1, float(clamped))
        histogram = channel_metrics.histogram("channel.latency_s", obsm.LATENCY_BOUNDS_S)
        assert histogram.count == channel_metrics.counter("channel.delivered").value == 20
        assert histogram.sum == sum(latencies)
        assert latencies[:clamped] == [0.0] * clamped


#: Two devices publish two topics each at coinciding ticks to endpoints whose
#: ids hash differently across seeds — exercising the coalesced uplink AND
#: downlink batch paths end-to-end through the bus.
_COALESCE_SCRIPT = """
import json
from repro.devices.base import DeviceDescriptor, DeviceState, MedicalDevice
from repro.middleware.bus import DeviceBus
from repro.sim.kernel import Simulator

class Sensor(MedicalDevice):
    def __init__(self, device_id):
        super().__init__(DeviceDescriptor(
            device_id=device_id, device_type="s",
            published_topics=("vitals", "status")))
    def start(self):
        self.transition(DeviceState.RUNNING)
        self.sample_every(0.5, self._tick)
    def _tick(self):
        self.publish_reading("vitals", self.now)
        self.publish_reading("status", -self.now)

sim = Simulator()
bus = DeviceBus(sim)
for device_id in ("dev-a", "dev-b"):
    device = Sensor(device_id)
    bus.attach_device(device)
    sim.register(device)
order = []
for endpoint in {endpoints!r}:
    for topic in ("vitals", "status"):
        bus.subscribe(endpoint, topic,
                      lambda t, p, m, e=endpoint: order.append([e, t, p.value]))
sim.run(until=2.0)
print(json.dumps({{"order": order, "events": sim.event_count}}))
"""

ENDPOINTS = ["alpha", "omega", "Z", "aa", "ab", "ba", "qq-7", "watcher-42"]


class TestCoalescedOrderDeterminism:
    def _run(self, hash_seed: str):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        script = _COALESCE_SCRIPT.format(endpoints=ENDPOINTS)
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, env=env, check=True)
        return json.loads(out.stdout)

    def test_coalesced_delivery_order_identical_across_hash_seeds(self):
        run_1, run_4242 = self._run("1"), self._run("4242")
        assert run_1["order"], "workload delivered nothing"
        assert run_1 == run_4242
