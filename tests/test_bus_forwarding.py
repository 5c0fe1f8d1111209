"""The coalesced bus forwarder against the per-message reference forwarder.

``DeviceBus`` drops a message whose topic has no subscriber when it
reaches the bus, and sends everything forwarded at one exact instant from
one ``bus:forward`` kernel event.  ``bus_reference.ReferenceBus`` keeps the
old path (one event per message, subscribers looked up when it fires).
On random topologies, channel configs and outage plans the two must agree
on everything a subscriber or an analysis can see: per-endpoint delivery
order, delivery times, handler payloads, and every channel's statistics.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bus_reference import ReferenceBus

from repro.devices.base import DeviceDescriptor, DeviceState, MedicalDevice
from repro.middleware.bus import COMMAND_TOPIC_PREFIX, BusConfig, DeviceBus
from repro.sim.channel import ChannelConfig
from repro.sim.faults import FaultInjector, FaultSpec
from repro.sim.kernel import Simulator

TOPICS = ("a", "b", "c", "d")
ENDPOINTS = ("alpha", "omega-9", "Z", "ab")


class _Sensor(MedicalDevice):
    """Publishes every declared topic each period; accepts 'ping'."""

    def __init__(self, device_id, topics, period):
        super().__init__(DeviceDescriptor(
            device_id=device_id,
            device_type="sensor",
            published_topics=tuple(topics),
            accepted_commands=("ping",),
        ))
        self._topics = topics
        self._period = period
        self.ticks = 0
        self.pings = []
        self.register_command("ping", self.pings.append)

    def start(self):
        self.transition(DeviceState.RUNNING)
        self.every(self._period, self._tick)

    def _tick(self):
        self.ticks += 1
        for topic in self._topics:
            self.publish(topic, {"device": self.name, "tick": self.ticks})


class _EventNames:
    """Profiler hook that records the name of every fired kernel event."""

    def __init__(self):
        self.names = []

    def dispatch(self, event):
        self.names.append(event.name)
        event.callback()


channel_configs = st.builds(
    ChannelConfig,
    latency_s=st.sampled_from([0.0, 0.003, 0.01, 0.02]),
    jitter_s=st.sampled_from([0.0, 0.0, 0.004]),
    loss_probability=st.sampled_from([0.0, 0.0, 0.2]),
    bandwidth_msgs_per_s=st.sampled_from([None, None, 40.0, 400.0]),
)

scenarios = st.fixed_dictionaries({
    "uplink": channel_configs,
    "downlink": channel_configs,
    "processing_delay_s": st.sampled_from([0.0, 0.001, 0.003, 0.005]),
    "devices": st.lists(
        st.tuples(st.lists(st.sampled_from(TOPICS), min_size=1, max_size=3, unique=True),
                  st.sampled_from([0.25, 0.5, 0.75])),
        min_size=1, max_size=4),
    "subscriptions": st.lists(
        st.tuples(st.sampled_from(ENDPOINTS), st.sampled_from(TOPICS)), max_size=8),
    "outages": st.lists(
        st.tuples(st.integers(min_value=0, max_value=7),
                  st.sampled_from([0.0, 0.5, 1.0, 1.25]),
                  st.sampled_from([0.25, 0.6, 2.0])),
        max_size=3),
    "commands": st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                                   st.sampled_from([0.5, 1.0, 1.5])), max_size=3),
    "seed": st.integers(min_value=0, max_value=2**16),
})


def _run(bus_class, scenario, until=3.0):
    """Run one scenario on ``bus_class``; returns everything observable."""
    simulator = Simulator()
    bus = bus_class(simulator, BusConfig(
        uplink=scenario["uplink"], downlink=scenario["downlink"],
        processing_delay_s=scenario["processing_delay_s"],
    ), rng=np.random.default_rng(scenario["seed"]))
    devices = []
    for index, (topics, period) in enumerate(scenario["devices"]):
        device = _Sensor(f"dev-{index}", topics, period)
        bus.attach_device(device)
        simulator.register(device)
        devices.append(device)

    deliveries = {}
    for endpoint, topic in scenario["subscriptions"]:
        log = deliveries.setdefault(endpoint, [])
        bus.subscribe(endpoint, topic, lambda t, p, m, log=log: log.append(
            (simulator.now, t, p, m.sender, m.sequence, m.sent_at, m.delivered_at)))

    injector = FaultInjector(simulator)
    channels = bus.channels
    for channel in channels:
        injector.register_channel(channel)
    for target, start, duration in scenario["outages"]:
        injector.add(FaultSpec(kind="channel_outage", start=start, duration=duration,
                               target=channels[target % len(channels)].name))
    injector.arm()
    for target, at in scenario["commands"]:
        device_id = f"dev-{target % len(devices)}"
        simulator.schedule_at(at, lambda d=device_id: bus.send_command("sup", d, "ping", {"at": d}))

    names = _EventNames()
    simulator.attach_profiler(names)
    simulator.run(until=until)
    stats = {channel.name: channel.stats() for channel in bus.channels}
    return {
        "deliveries": deliveries,
        "stats": stats,
        "published": bus.published_count,
        "forwarded": bus.forwarded_count,
        "pings": [device.pings for device in devices],
    }, names.names


class TestAgainstPerMessageReference:
    @given(scenario=scenarios)
    @settings(max_examples=60, deadline=None)
    def test_same_deliveries_times_payloads_and_stats(self, scenario):
        observed, names = _run(DeviceBus, scenario)
        expected, reference_names = _run(ReferenceBus, scenario)
        assert observed == expected
        # Never more forward events than the per-message path.
        forwards = names.count("bus:forward")
        assert forwards <= sum(name.startswith("bus:forward:") for name in reference_names)


def _one_topic_bus(device_count=1):
    simulator = Simulator()
    bus = DeviceBus(simulator)
    devices = []
    for index in range(device_count):
        device = _Sensor(f"dev-{index}", ["t", "u"], period=1.0)
        bus.attach_device(device)
        devices.append(device)
    return simulator, bus, devices


class TestForwardEvents:
    def test_unsubscribed_topic_schedules_no_forward_event(self):
        simulator, bus, (device,) = _one_topic_bus()
        bus.subscribe("listener", "u", lambda t, p, m: None)
        names = _EventNames()
        simulator.attach_profiler(names)
        device.publish("t", {"v": 1})
        simulator.run()
        assert bus.uplink("dev-0").delivered == 1
        assert "bus:forward" not in names.names
        assert bus.forwarded_count == 0
        assert bus._pending_forwards == {}

    @pytest.mark.parametrize("device_count, per_device", [(1, 3), (3, 1), (3, 2)])
    def test_messages_at_one_instant_share_one_event(self, device_count, per_device):
        simulator, bus, devices = _one_topic_bus(device_count)
        received = []
        bus.subscribe("listener", "t", lambda t, p, m: received.append(p["v"]))
        names = _EventNames()
        simulator.attach_profiler(names)
        sent = []
        for device in devices:
            for index in range(per_device):
                value = f"{device.name}:{index}"
                device.publish("t", {"v": value})
                sent.append(value)
        simulator.run()
        assert names.names.count("bus:forward") == 1
        assert received == sent  # arrival (FIFO) order across uplinks
        assert bus.forwarded_count == len(sent)
        assert bus._pending_forwards == {}

    def test_forward_instants_differ_get_own_events(self):
        simulator, bus, (device,) = _one_topic_bus()
        bus.subscribe("listener", "t", lambda t, p, m: None)
        names = _EventNames()
        simulator.attach_profiler(names)
        device.publish("t", {"v": 1})
        simulator.schedule(0.5, lambda: device.publish("t", {"v": 2}))
        simulator.run()
        assert names.names.count("bus:forward") == 2

    def test_command_topics_cannot_be_subscribed(self):
        simulator, bus, _ = _one_topic_bus()
        with pytest.raises(ValueError, match="reserved"):
            bus.subscribe("listener", f"{COMMAND_TOPIC_PREFIX}dev-0:ping", lambda t, p, m: None)
        assert bus.subscribers(f"{COMMAND_TOPIC_PREFIX}dev-0:ping") == []
