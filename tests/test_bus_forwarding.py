"""The production bus against the per-message reference forwarder.

``DeviceBus`` compiles the route of a sample into one downlink send at
publish while every link is deterministic, and otherwise forwards hop by
hop: it drops a message whose topic has no subscriber when it reaches the
bus, and sends everything forwarded at one exact instant from one
``bus:forward`` kernel event.  ``bus_reference.ReferenceBus`` keeps the old
path (every sample rides its uplink, one event per forward, subscribers
looked up when it fires).  On random topologies, per-link channel configs,
outage plans, commands and devices' publishes interleaved within an
instant, the two must agree on everything a subscriber or
an analysis can see: per-endpoint delivery order, sequence numbers and
times, handler payloads, the forward count, and every downlink's
statistics.  Uplinks agree too on the hop-by-hop path; on compiled routes
they carry only commands.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from bus_reference import ReferenceBus

from repro.devices.base import DeviceDescriptor, DeviceState, MedicalDevice
from repro.middleware.bus import COMMAND_TOPIC_PREFIX, BusConfig, DeviceBus
from repro.obs import metrics as obsm
from repro.sim import channel as channel_module
from repro.sim.channel import ChannelConfig
from repro.sim.faults import FaultInjector, FaultSpec
from repro.sim.kernel import Simulator

TOPICS = ("a", "b", "c", "d")
ENDPOINTS = ("alpha", "omega-9", "Z", "ab")


class _Sensor(MedicalDevice):
    """Publishes its ``topics`` each period, may publish any of TOPICS, accepts 'ping'."""

    def __init__(self, device_id, topics, period):
        super().__init__(DeviceDescriptor(
            device_id=device_id,
            device_type="sensor",
            published_topics=tuple(dict.fromkeys((*topics, *TOPICS))),
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

#: Per-link replacements: deterministic ones (a downlink of its own
#: latency keeps routes compiled; an uplink of its own latency does not)
#: and stochastic ones, which send the whole bus hop by hop.
deterministic_links = [ChannelConfig(latency_s=0.01), ChannelConfig(latency_s=0.0)]
link_configs = st.sampled_from(deterministic_links + [
    ChannelConfig(latency_s=0.01, jitter_s=0.004),
    ChannelConfig(latency_s=0.01, loss_probability=0.2),
    ChannelConfig(latency_s=0.01, bandwidth_msgs_per_s=40.0),
])


def _scenarios(uplinks, downlinks, links, outage_count):
    return st.fixed_dictionaries({
        "uplink": uplinks,
        "downlink": downlinks,
        "links": st.lists(st.tuples(st.integers(min_value=0, max_value=7), links), max_size=2),
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
            max_size=outage_count),
        "commands": st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                                       st.sampled_from([0.5, 1.0, 1.5])), max_size=3),
        # Extra samples, one kernel event each, at instants the periodic
        # ticks also hit: devices' publishes interleave within an instant,
        # subscribed topics or not.
        "bursts": st.lists(
            st.tuples(st.sampled_from([0.5, 1.0, 1.5, 2.25]),
                      st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                                         st.sampled_from(TOPICS)), min_size=1, max_size=5)),
            max_size=3),
        "seed": st.integers(min_value=0, max_value=2**16),
    })


#: Half the examples draw any links and outage plan (mostly hop by hop);
#: the other half draw deterministic links and no outage, where routes
#: compile unless a replaced uplink latency breaks uniformity.
scenarios = st.one_of(
    _scenarios(channel_configs, channel_configs, link_configs, 3),
    _scenarios(st.builds(ChannelConfig, latency_s=st.sampled_from([0.003, 0.01, 0.02])),
               st.builds(ChannelConfig, latency_s=st.sampled_from([0.0, 0.003, 0.01, 0.02])),
               st.sampled_from(deterministic_links), 0),
)


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

    channels = bus.channels
    for target, config in scenario["links"]:
        channels[target % len(channels)].config = config

    injector = FaultInjector(simulator)
    for channel in channels:
        injector.register_channel(channel)
    for target, start, duration in scenario["outages"]:
        injector.add(FaultSpec(kind="channel_outage", start=start, duration=duration,
                               target=channels[target % len(channels)].name))
    injector.arm()
    for target, at in scenario["commands"]:
        device_id = f"dev-{target % len(devices)}"
        simulator.schedule_at(at, lambda d=device_id: bus.send_command("sup", d, "ping", {"at": d}))
    for burst, (at, publishes) in enumerate(scenario["bursts"]):
        for target, topic in publishes:
            device = devices[target % len(devices)]
            simulator.schedule_at(at, lambda d=device, t=topic, b=burst: d.publish(
                t, {"device": d.name, "burst": b}))

    names = _EventNames()
    simulator.attach_profiler(names)
    simulator.run(until=until)
    return {
        "deliveries": deliveries,
        "downlinks": {name: bus.downlink(name).stats() for name in sorted(deliveries)},
        "published": bus.published_count,
        "forwarded": bus.forwarded_count,
        "pings": [device.pings for device in devices],
    }, {device.descriptor.device_id: bus.uplink(device.descriptor.device_id).stats()
        for device in devices}, bus, names.names


class TestAgainstPerMessageReference:
    @given(scenario=scenarios)
    @settings(max_examples=150, deadline=None)
    def test_same_deliveries_times_payloads_and_stats(self, scenario):
        observed, uplinks, bus, names = _run(DeviceBus, scenario)
        expected, reference_uplinks, _, reference_names = _run(ReferenceBus, scenario)
        assert observed == expected
        # Never more forward events than the per-message path.
        forwards = names.count("bus:forward")
        assert forwards <= sum(name.startswith("bus:forward:") for name in reference_names)
        compiled = bool(bus._compiled)
        event("compiled routes" if compiled else "hop by hop")
        if not compiled:
            assert uplinks == reference_uplinks
            return
        # Compiled: no forward events, and uplinks carried only commands.
        assert forwards == 0
        commands = {}
        for target, _ in scenario["commands"]:
            device_id = f"dev-{target % len(scenario['devices'])}"
            commands[device_id] = commands.get(device_id, 0) + 1
        assert {device_id: stats["sent"] for device_id, stats in uplinks.items()} == {
            device_id: float(commands.get(device_id, 0)) for device_id in uplinks}


def _one_topic_bus(device_count=1, armed=True, bus_class=DeviceBus, config=None):
    """Devices publishing "t" and "u" on one bus.

    ``armed`` plans an outage, far in the future, on the first uplink: the
    bus then forwards hop by hop, the path :class:`TestForwardEvents` tests.
    """
    simulator = Simulator()
    bus = bus_class(simulator, config)
    devices = []
    for index in range(device_count):
        device = _Sensor(f"dev-{index}", ["t", "u"], period=1.0)
        bus.attach_device(device)
        devices.append(device)
    if armed:
        injector = FaultInjector(simulator)
        for channel in bus.channels:
            injector.register_channel(channel)
        injector.add(FaultSpec(kind="channel_outage", start=1e6, duration=1.0,
                               target="uplink:dev-0"))
        injector.arm()
    return simulator, bus, devices


class TestForwardEvents:
    """The hop-by-hop path, on a bus with an outage armed on one link."""

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


def _publish_log(bus, endpoint, topic, simulator):
    log = []
    bus.subscribe(endpoint, topic, lambda t, p, m: log.append(
        (simulator.now, p, m.sender, m.sequence, m.sent_at, m.delivered_at)))
    return log


class TestCompiledRoutes:
    """The compiled path: every link deterministic, no outage armed."""

    def test_one_event_per_downlink_and_delivery_instant(self):
        simulator, bus, devices = _one_topic_bus(3, armed=False)
        both = _publish_log(bus, "both", "t", simulator)
        bus.subscribe("both", "u", lambda t, p, m: both.append((simulator.now, p)))
        only_t = _publish_log(bus, "only-t", "t", simulator)
        names = _EventNames()
        simulator.attach_profiler(names)
        for device in devices:
            device.publish("t", {"v": f"{device.name}:t"})
            device.publish("u", {"v": f"{device.name}:u"})
        simulator.run()
        assert names.names == ["channel:downlink:both:deliver", "channel:downlink:only-t:deliver"]
        assert [entry[1]["v"] for entry in both] == [
            f"{device.name}:{topic}" for device in devices for topic in ("t", "u")]
        assert [entry[1]["v"] for entry in only_t] == [f"{device.name}:t" for device in devices]
        assert all(channel.sent == 0 for channel in bus.channels if channel.name.startswith("uplink:"))
        assert bus.forwarded_count == 9
        # ((0 + uplink) + processing) + downlink, as on the hop-by-hop path.
        assert both[0][0] == ((0.0 + 0.02) + 0.005) + 0.02
        assert both[0][4] == (0.0 + 0.02) + 0.005

    def test_unsubscribed_topic_costs_no_event_and_no_message(self, monkeypatch):
        simulator, bus, (device,) = _one_topic_bus(armed=False)
        bus.subscribe("listener", "u", lambda t, p, m: None)
        created = []
        message_class = channel_module.Message

        def counting_message(*args):
            created.append(args)
            return message_class(*args)

        monkeypatch.setattr(channel_module, "Message", counting_message)
        device.publish("t", {"v": 1})
        assert simulator.pending() == 0
        assert created == []
        assert bus.published_count == 1
        simulator.run()
        assert all(channel.sent == 0 for channel in bus.channels)
        assert bus.forwarded_count == 0

    def test_same_deliveries_as_the_hop_by_hop_path(self):
        runs = []
        for bus_class in (DeviceBus, ReferenceBus):
            simulator, bus, devices = _one_topic_bus(2, armed=False, bus_class=bus_class)
            log = _publish_log(bus, "listener", "t", simulator)
            for device in devices:
                simulator.register(device)
            simulator.run(until=4.5)
            runs.append((log, bus.forwarded_count))
        assert runs[0] == runs[1]
        assert len(runs[0][0]) == 2 * 4

    def test_sample_overtakes_uplinks_that_reached_the_bus_after_its_own(self):
        # A command opens dev-0's uplink batch first, so on the hop-by-hop
        # path dev-0's later sample joins that batch and reaches the bus
        # before dev-1's, although dev-1 published first.
        runs = []
        for bus_class in (DeviceBus, ReferenceBus):
            simulator, bus, devices = _one_topic_bus(3, armed=False, bus_class=bus_class)
            log = _publish_log(bus, "listener", "t", simulator)
            bus.send_command("sup", "dev-0", "ping", {})
            devices[1].publish("t", {"v": "dev-1:a"})
            devices[2].publish("t", {"v": "dev-2:a"})
            devices[0].publish("t", {"v": "dev-0:a"})
            devices[1].publish("t", {"v": "dev-1:b"})
            simulator.run()
            runs.append(log)
        assert [entry[1]["v"] for entry in runs[1]] == ["dev-0:a", "dev-1:a", "dev-1:b", "dev-2:a"]
        assert runs[0] == runs[1]
        assert [entry[3] for entry in runs[0]] == [0, 1, 2, 3]

    def test_unsubscribed_sample_opens_its_uplink_batch_too(self):
        # On the hop-by-hop path dev-0's unsubscribed "u" rides its uplink
        # and opens that batch, so dev-0's "t" reaches the bus before
        # dev-1's, although dev-1 published "t" first.
        runs = []
        for bus_class in (DeviceBus, ReferenceBus):
            simulator, bus, devices = _one_topic_bus(2, armed=False, bus_class=bus_class)
            log = _publish_log(bus, "listener", "t", simulator)
            devices[0].publish("u", {"v": "dev-0:u"})
            devices[1].publish("t", {"v": "dev-1:t"})
            devices[0].publish("t", {"v": "dev-0:t"})
            simulator.run()
            runs.append(log)
        assert [entry[1]["v"] for entry in runs[1]] == ["dev-0:t", "dev-1:t"]
        assert runs[0] == runs[1]
        assert [entry[3] for entry in runs[0]] == [0, 1]

    @pytest.mark.parametrize("publish_at", [1.75, 2.0])
    def test_forwarded_count_exact_at_until(self, publish_at):
        # Uplink 0.25 + processing 0.0: a sample published at 1.75 is
        # forwarded exactly at until=2.0, which the kernel still fires; one
        # published at until is forwarded after it.
        config = BusConfig(uplink=ChannelConfig(latency_s=0.25),
                           downlink=ChannelConfig(latency_s=0.5), processing_delay_s=0.0)
        counts = []
        for bus_class in (DeviceBus, ReferenceBus):
            simulator, bus, (device,) = _one_topic_bus(
                armed=False, bus_class=bus_class, config=config)
            bus.subscribe("a", "t", lambda t, p, m: None)
            bus.subscribe("b", "t", lambda t, p, m: None)
            simulator.schedule_at(publish_at, lambda: device.publish("t", {"v": 1}))
            simulator.run(until=2.0)
            counts.append(bus.forwarded_count)
            simulator.run()
            counts.append(bus.forwarded_count)
        expected_at_until = 2 if publish_at + 0.25 <= 2.0 else 0
        assert counts == [expected_at_until, 2, expected_at_until, 2]

    def test_obs_forwarded_counter_equal_on_both_paths(self):
        was_enabled = obsm.enabled()
        obsm.enable()
        try:
            totals = []
            for armed in (False, True):
                obsm.registry().reset()
                simulator, bus, devices = _one_topic_bus(2, armed=armed)
                bus.subscribe("a", "t", lambda t, p, m: None)
                bus.subscribe("b", "t", lambda t, p, m: None)
                bus.subscribe("b", "u", lambda t, p, m: None)
                for device in devices:
                    simulator.register(device)
                simulator.run(until=3.5)
                totals.append((obsm.registry().counter("bus.forwarded").value,
                               bus.forwarded_count, bool(bus._compiled)))
        finally:
            obsm.registry().reset()
            if not was_enabled:
                obsm.disable()
        assert totals == [(18, 18, True), (18, 18, False)]

    @pytest.mark.parametrize("register_first", [True, False])
    def test_planned_outage_sends_the_bus_hop_by_hop(self, register_first):
        # However the injector learns of the channel, an outage planned
        # against it marks it before the run: the first publish finds a
        # non-deterministic link and the bus forwards hop by hop.
        simulator, bus, (device,) = _one_topic_bus(armed=False)
        bus.subscribe("listener", "t", lambda t, p, m: None)
        injector = FaultInjector(simulator)
        spec = FaultSpec(kind="channel_outage", start=50.0, duration=1.0,
                         target="downlink:listener")
        if register_first:
            for channel in bus.channels:
                injector.register_channel(channel)
            injector.add(spec)
        else:
            injector.add(spec)
            for channel in bus.channels:
                injector.register_channel(channel)
        assert bus.downlink("listener").outage_armed
        assert not bus.downlink("listener").deterministic
        names = _EventNames()
        simulator.attach_profiler(names)
        device.publish("t", {"v": 1})
        simulator.run()
        assert names.names == ["channel:uplink:dev-0:deliver", "bus:forward",
                               "channel:downlink:listener:deliver"]

    def test_outage_added_mid_run_applies_to_samples_published_after_the_add(self):
        # Uplink, processing and downlink take 0.25 s each; dev-0 publishes
        # every 0.5 s.  At 0.75 an outage [0.75, 1.75) is added against the
        # downlink.  The sample published at 0.5 is forwarded at 1.0, inside
        # the window, but its compiled route was queued before the add, so
        # it is delivered; hop by hop it would have been dropped.  Samples
        # published after the add take the hop-by-hop path, where the
        # outage applies: 1.0 (forwarded at 1.5) is dropped.
        config = BusConfig(uplink=ChannelConfig(latency_s=0.25),
                           downlink=ChannelConfig(latency_s=0.25), processing_delay_s=0.25)
        logs = []
        for bus_class in (DeviceBus, ReferenceBus):
            simulator = Simulator()
            bus = bus_class(simulator, config)
            device = _Sensor("dev-0", ["t"], period=0.5)
            bus.attach_device(device)
            simulator.register(device)
            log = _publish_log(bus, "listener", "t", simulator)
            injector = FaultInjector(simulator)
            for channel in bus.channels:
                injector.register_channel(channel)
            injector.arm()
            simulator.schedule_at(0.75, lambda injector=injector: injector.add(FaultSpec(
                kind="channel_outage", start=0.75, duration=1.0, target="downlink:listener")))
            simulator.run(until=3.0)
            logs.append([(entry[0], entry[4]) for entry in log])
        compiled, reference = logs
        assert compiled[0] == (1.25, 1.0)
        assert compiled[1:] == reference
        assert reference[0] == (2.25, 2.0)

    def test_order_at_the_switch_instant_is_not_pinned(self):
        # dev-0 and dev-1 publish compiled samples at 0; then an outage far
        # in the future is armed against the subscriber's downlink and dev-0
        # publishes again at 0, hop by hop.  The reference lets that sample join dev-0's uplink batch,
        # ahead of dev-1's; the switching bus forwards it after dev-1's
        # compiled copy.  Only that instant's order (and with it its
        # sequence numbers) differs: the delivered samples and their times
        # agree, and from the next instant on everything does.
        runs = []
        for bus_class in (DeviceBus, ReferenceBus):
            simulator, bus, devices = _one_topic_bus(2, armed=False, bus_class=bus_class)
            log = _publish_log(bus, "listener", "t", simulator)
            injector = FaultInjector(simulator)
            for channel in bus.channels:
                injector.register_channel(channel)

            def at_zero(devices=devices, injector=injector):
                devices[0].publish("t", {"v": "dev-0:a"})
                devices[1].publish("t", {"v": "dev-1:a"})
                injector.add(FaultSpec(kind="channel_outage", start=1e6, duration=1.0,
                                       target="downlink:listener"))
                devices[0].publish("t", {"v": "dev-0:b"})

            def at_one(devices=devices):
                devices[1].publish("t", {"v": "dev-1:c"})
                devices[0].publish("t", {"v": "dev-0:c"})

            simulator.schedule_at(0.0, at_zero)
            simulator.schedule_at(1.0, at_one)
            simulator.run()
            runs.append(log)
        switching, reference = runs
        assert [entry[1]["v"] for entry in reference[:3]] == ["dev-0:a", "dev-0:b", "dev-1:a"]
        assert [entry[1]["v"] for entry in switching[:3]] == ["dev-0:a", "dev-1:a", "dev-0:b"]

        def unordered(entries):
            return sorted((entry[1]["v"], entry[0], entry[2], entry[4], entry[5])
                          for entry in entries)

        assert unordered(switching[:3]) == unordered(reference[:3])
        assert switching[3:] == reference[3:]
        assert [entry[1]["v"] for entry in switching[3:]] == ["dev-1:c", "dev-0:c"]

    def test_unsubscribed_sample_on_a_turned_stochastic_uplink_draws_jitter(self):
        # dev-0's uplink turns jittered mid-run.  Its unsubscribed "u" at 1.0
        # rides that uplink on the per-message path and draws from the rng,
        # so the bus must switch there too, or the jitter of "t" at 2.0
        # comes from the wrong draw.
        runs = []
        for bus_class in (DeviceBus, ReferenceBus):
            simulator = Simulator()
            bus = bus_class(simulator, rng=np.random.default_rng(5))
            device = _Sensor("dev-0", ["t", "u"], period=1.0)
            bus.attach_device(device)
            log = _publish_log(bus, "listener", "t", simulator)
            device.publish("t", {"v": 0})

            def turn_stochastic(bus=bus, device=device):
                bus.uplink("dev-0").config = ChannelConfig(latency_s=0.02, jitter_s=0.004)
                device.publish("u", {"v": 1})

            simulator.schedule_at(1.0, turn_stochastic)
            simulator.schedule_at(2.0, lambda device=device: device.publish("t", {"v": 2}))
            simulator.run()
            runs.append(log)
        assert runs[0] == runs[1]
        assert [entry[1]["v"] for entry in runs[0]] == [0, 2]
