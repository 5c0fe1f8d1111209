"""Regression tests for the deterministic, leak-free messaging layer.

Covers four fixes:

* The bus forwarder iterated a ``set`` of endpoint ids, making downlink
  delivery order (and hence sequence numbers and kernel tiebreaks) depend on
  ``PYTHONHASHSEED``.
* ``Channel`` retained every delivered message and latency forever — an
  O(events) memory leak at campaign scale.
* ``DeviceBus.send_command`` messages also hit the topic-less uplink
  subscription, scheduling one phantom forward event per command.
* ``Channel`` silently disabled configured jitter/loss when no rng was
  provided.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.devices.base import DeviceDescriptor, DeviceState, MedicalDevice
from repro.middleware.bus import DeviceBus
from repro.sim.channel import Channel, ChannelConfig
from repro.sim.faults import FaultInjector, FaultSpec
from repro.sim.kernel import Simulator

SRC = Path(__file__).resolve().parents[1] / "src"


class _Sensor(MedicalDevice):
    """Minimal publishing device accepting a 'ping' command."""

    def __init__(self, device_id="dev-1"):
        super().__init__(DeviceDescriptor(
            device_id=device_id,
            device_type="sensor",
            published_topics=("t",),
            accepted_commands=("ping",),
        ))
        self.pings = []
        self.register_command("ping", self.pings.append)

    def start(self):
        self.transition(DeviceState.RUNNING)


def _make_bus(armed=False):
    """One sensor on a bus; ``armed`` plans a far-future outage on the
    downlink of endpoint "listener", which then takes its copies from
    ``bus:forward`` events."""
    simulator = Simulator()
    bus = DeviceBus(simulator)
    device = _Sensor()
    bus.attach_device(device)
    simulator.register(device)
    if armed:
        bus.attach_endpoint("listener")
        injector = FaultInjector(simulator)
        for channel in bus.channels:
            injector.register_channel(channel)
        injector.add(FaultSpec(kind="channel_outage", start=1e6, duration=1.0,
                               target="downlink:listener"))
        injector.arm()
    return simulator, bus, device


#: Endpoint ids whose string hashes scatter differently per PYTHONHASHSEED.
ENDPOINTS = ["alpha", "omega", "Z", "aa", "ab", "ba", "qq-7", "watcher-42"]

_ORDER_SCRIPT = """
import json
from repro.devices.base import DeviceDescriptor, DeviceState, MedicalDevice
from repro.middleware.bus import DeviceBus
from repro.sim.kernel import Simulator

class Sensor(MedicalDevice):
    def __init__(self):
        super().__init__(DeviceDescriptor(
            device_id="dev-1", device_type="s", published_topics=("t",)))
    def start(self):
        self.transition(DeviceState.RUNNING)

sim = Simulator()
bus = DeviceBus(sim)
device = Sensor()
bus.attach_device(device)
sim.register(device)
order = []
for endpoint in {endpoints!r}:
    bus.subscribe(endpoint, "t", lambda t, p, m, e=endpoint: order.append(e))
device.publish_reading("t", 1)
sim.run()
print(json.dumps(order))
"""


class TestForwardOrderDeterminism:
    def _delivery_order(self, hash_seed: str):
        env = dict(os.environ)
        env["PYTHONHASHSEED"] = hash_seed
        env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
        script = _ORDER_SCRIPT.format(endpoints=ENDPOINTS)
        out = subprocess.run([sys.executable, "-c", script],
                             capture_output=True, text=True, env=env, check=True)
        return json.loads(out.stdout)

    def test_order_identical_across_hash_seeds(self):
        # Two interpreter runs under different PYTHONHASHSEED values must
        # deliver to subscribers in the identical (subscription) order.
        assert self._delivery_order("1") == self._delivery_order("4242") == ENDPOINTS

    def test_order_follows_subscription_order(self):
        simulator, bus, device = _make_bus()
        order = []
        for endpoint in ENDPOINTS:
            bus.subscribe(endpoint, "t",
                          lambda t, p, m, e=endpoint: order.append(e))
        device.publish_reading("t", 1)
        simulator.run()
        assert order == ENDPOINTS

    def test_duplicate_subscription_forwards_once_per_endpoint(self):
        simulator, bus, device = _make_bus()
        received = []
        bus.subscribe("listener", "t", lambda t, p, m: received.append("first"))
        bus.subscribe("listener", "t", lambda t, p, m: received.append("second"))
        device.publish_reading("t", 1)
        simulator.run()
        # One downlink send (dedup), fanned out to both handlers.
        assert bus.forwarded_count == 1
        assert received == ["first", "second"]


class TestChannelRetention:
    def test_long_run_keeps_no_per_message_state(self):
        simulator = Simulator()
        channel = Channel(simulator, "bulk", ChannelConfig(latency_s=0.001))
        channel.subscribe(lambda m: None)
        for i in range(10_000):
            channel.send("a", "t", i)
        simulator.run()
        assert channel.delivered == 10_000
        # The leak fix: no container on the channel grows with the traffic.
        sizes = {name: len(value) for name, value in vars(channel).items()
                 if isinstance(value, (list, dict, tuple))}
        assert max(sizes.values()) < 10, sizes

    def test_subscriber_latencies_are_the_jitter_draws(self):
        config = ChannelConfig(latency_s=0.05, jitter_s=0.02)
        simulator = Simulator()
        channel = Channel(simulator, "jittery", config, rng=np.random.default_rng(3))
        latencies = []
        channel.subscribe(lambda m: latencies.append(m.delivered_at - m.sent_at))
        for i in range(200):
            channel.send("a", "t", i)
        simulator.run()
        # The channel keeps counts only; each message's latency is what its
        # subscriber reads, the rng's draws in delivery order.
        draws = np.random.default_rng(3)
        assert latencies == sorted(0.05 + draws.uniform(-0.02, 0.02) for _ in range(200))
        assert (channel.sent, channel.delivered, channel.dropped) == (200, 200, 0)

    def test_subscriber_sees_each_message_latency(self):
        simulator = Simulator()
        channel = Channel(simulator, "single", ChannelConfig(latency_s=0.25))
        delivered = []
        channel.subscribe(delivered.append)
        channel.send("a", "t", "x")
        simulator.run()
        assert [m.delivered_at - m.sent_at for m in delivered] == [pytest.approx(0.25)]
        assert len(delivered) == 1
        assert delivered[0].payload == "x"


class TestCommandPathIsolation:
    def test_commands_do_not_enter_forwarding_path(self):
        simulator, bus, device = _make_bus(armed=True)
        forwarded_topics = []

        class _ForwardRecorder:
            # Profiler hook: sees each bus:forward event before it fires,
            # while its batch still sits in the bus's pending queue.
            def dispatch(self, event):
                if event.name == "bus:forward":
                    forwarded_topics.extend(
                        topic for _, _, topic, _, _ in bus._pending_forwards[event.time])
                event.callback()

        simulator.attach_profiler(_ForwardRecorder())
        bus.subscribe("listener", "t", lambda t, p, m: None)
        bus.send_command("supervisor", "dev-1", "ping", {"n": 1})
        bus.send_command("supervisor", "dev-1", "ping", {"n": 2})
        device.publish_reading("t", 1)
        simulator.run()
        # Commands reached the device...
        assert device.pings == [{"n": 1}, {"n": 2}]
        # ...but never rode a bus:forward event; only the real publish did.
        assert forwarded_topics == ["t"]
        assert bus.forwarded_count == 1

    def test_commands_ride_the_uplink_alone_on_compiled_routes(self):
        simulator, bus, device = _make_bus()
        names = []

        class _Names:
            def dispatch(self, event):
                names.append(event.name)
                event.callback()

        simulator.attach_profiler(_Names())
        bus.subscribe("listener", "t", lambda t, p, m: None)
        bus.send_command("supervisor", "dev-1", "ping", {"n": 1})
        bus.send_command("supervisor", "dev-1", "ping", {"n": 2})
        device.publish_reading("t", 1)
        simulator.run()
        assert device.pings == [{"n": 1}, {"n": 2}]
        # The sample's uplink hop was decided at publish: one downlink
        # event, and the uplink delivered the two commands only.
        assert names == ["channel:uplink:dev-1:deliver", "channel:downlink:listener:deliver"]
        assert bus.uplink("dev-1").sent == 3
        assert bus.uplink("dev-1").delivered == 2
        assert bus.forwarded_count == 1

    def test_command_only_traffic_forwards_nothing(self):
        simulator, bus, device = _make_bus()
        bus.send_command("supervisor", "dev-1", "ping")
        events_before = simulator.event_count
        simulator.run()
        assert device.pings == [{}]
        assert bus.forwarded_count == 0
        # Exactly one channel delivery event: no phantom forward rode along.
        assert simulator.event_count - events_before == 1


class TestChannelRngValidation:
    def test_jitter_without_rng_rejected(self):
        with pytest.raises(ValueError, match="rng"):
            Channel(Simulator(), "c", ChannelConfig(jitter_s=0.1))

    def test_loss_without_rng_rejected(self):
        with pytest.raises(ValueError, match="rng"):
            Channel(Simulator(), "c", ChannelConfig(loss_probability=0.5))

    def test_randomness_with_rng_accepted(self):
        channel = Channel(Simulator(), "c",
                          ChannelConfig(jitter_s=0.1, loss_probability=0.5),
                          rng=np.random.default_rng(0))
        assert channel.config.jitter_s == 0.1

    def test_deterministic_config_needs_no_rng(self):
        channel = Channel(Simulator(), "c", ChannelConfig(latency_s=0.1))
        assert channel._rng is None

    def test_config_mutated_after_construction_raises_not_silences(self):
        # The constructor guard can be sidestepped by mutating the config on
        # a live channel; sampling must then fail loudly, never quietly run
        # the experiment on a deterministic link.
        simulator = Simulator()
        channel = Channel(simulator, "c", ChannelConfig(latency_s=0.1))
        channel.config.loss_probability = 0.3
        with pytest.raises(ValueError, match="rng"):
            channel.send("a", "t", 1)
        channel.config.loss_probability = 0.0
        channel.config.jitter_s = 0.05
        with pytest.raises(ValueError, match="rng"):
            channel.send("a", "t", 1)
