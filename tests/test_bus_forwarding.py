"""The production bus against the per-message reference forwarder.

``DeviceBus`` decides a sample's uplink hop at publish and takes the
subscribers then.  A deterministic downlink gets its copy queued at once;
any other downlink gets it from the one ``bus:forward`` kernel event of its
forward instant.  ``bus_reference.ReferenceBus`` keeps the old path (every
sample is delivered over its uplink, one event per forward, subscribers
looked up when it fires).  On random topologies, per-link channel configs,
outage plans (some added mid-run), commands and devices' publishes
interleaved within an instant, and samples valid or not (sent unboxed
through ``publish_reading``, so the production bus builds a ``Reading``
only for a routed topic), the two must agree on everything a subscriber or
an analysis can see: per-endpoint delivery order, sequence numbers and
times, handler payloads, the forward count, every downlink's sends,
deliveries and drops, and every uplink's sends and drops.  Uplinks deliver
commands only.
"""

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from bus_reference import ReferenceBus

from repro.core.loop import ClosedLoopPCASystem, PCASystemConfig
from repro.devices import base as device_base
from repro.devices.base import DeviceDescriptor, DeviceState, MedicalDevice
from repro.middleware import bus as bus_module
from repro.middleware.bus import COMMAND_TOPIC_PREFIX, BusConfig, DeviceBus
from repro.obs import metrics as obsm
from repro.readings import Reading
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
            self.publish_reading(topic, (self.name, self.ticks))


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
)

#: Per-link replacements: deterministic ones (an uplink of its own latency
#: reaches the bus at other instants than the rest) and stochastic ones
#: (a downlink among them takes its copies from ``bus:forward``).
deterministic_links = [ChannelConfig(latency_s=0.01), ChannelConfig(latency_s=0.0)]
link_configs = st.sampled_from(deterministic_links + [
    ChannelConfig(latency_s=0.01, jitter_s=0.004),
    ChannelConfig(latency_s=0.01, loss_probability=0.2),
])


def _scenarios(uplinks, downlinks, links, outage_count, late_outage_count):
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
        # Outages a kernel event adds to the armed injector mid-run:
        # (target, add at, start, duration); a start before the add is
        # clamped to it.  Each add lands a few ms after a sample instant,
        # while that instant's copies are still queued for their forward
        # instants.  No add or start shares an instant with a forward: there
        # the per-message path drops or keeps a copy by the kernel order of
        # its per-hop events (test_outage_at_a_forward_instant_follows_kernel_order).
        "late_outages": st.lists(
            st.tuples(st.integers(min_value=0, max_value=7),
                      st.sampled_from([0.502, 1.0125, 1.507]),
                      st.sampled_from([0.0, 0.502, 1.0125, 1.9]),
                      st.sampled_from([0.25, 0.6, 2.0])),
            max_size=late_outage_count),
        "commands": st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                                       st.sampled_from([0.5, 1.0, 1.5])), max_size=3),
        # Extra samples, one kernel event each, at instants the periodic
        # ticks also hit: devices' publishes interleave within an instant,
        # subscribed topics or not, valid or not.
        "bursts": st.lists(
            st.tuples(st.sampled_from([0.5, 1.0, 1.5, 2.25]),
                      st.lists(st.tuples(st.integers(min_value=0, max_value=3),
                                         st.sampled_from(TOPICS),
                                         st.booleans()),
                               min_size=1, max_size=5)),
            max_size=3),
        "seed": st.integers(min_value=0, max_value=2**16),
    })


#: Half the examples draw any links and outage plan (mostly with some
#: ``bus:forward`` traffic); the other half draw deterministic links and no
#: planned outage, where every copy is queued at publish until an outage
#: added mid-run takes back a downlink's queued copies.
scenarios = st.one_of(
    _scenarios(channel_configs, channel_configs, link_configs, 3, 2),
    _scenarios(st.builds(ChannelConfig, latency_s=st.sampled_from([0.003, 0.01, 0.02])),
               st.builds(ChannelConfig, latency_s=st.sampled_from([0.0, 0.003, 0.01, 0.02])),
               st.sampled_from(deterministic_links), 0, 2),
)


def _counts(channel):
    return channel.sent, channel.delivered, channel.dropped


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
    for target, at, start, duration in scenario["late_outages"]:
        spec = FaultSpec(kind="channel_outage", start=start, duration=duration,
                         target=channels[target % len(channels)].name)
        simulator.schedule_at(at, lambda spec=spec: injector.add(spec))
    for target, at in scenario["commands"]:
        device_id = f"dev-{target % len(devices)}"
        simulator.schedule_at(at, lambda d=device_id: bus.send_command("sup", d, "ping", {"at": d}))
    for burst, (at, publishes) in enumerate(scenario["bursts"]):
        for target, topic, valid in publishes:
            device = devices[target % len(devices)]
            simulator.schedule_at(at, lambda d=device, t=topic, b=burst, v=valid:
                                  d.publish_reading(t, (d.name, b), valid=v))

    names = _EventNames()
    simulator.attach_profiler(names)
    simulator.run(until=until)
    return {
        "deliveries": deliveries,
        "downlinks": {name: _counts(bus.downlink(name)) for name in sorted(deliveries)},
        "published": bus.published_count,
        "forwarded": bus.forwarded_count,
        "pings": [device.pings for device in devices],
    }, {device.descriptor.device_id: _counts(bus.uplink(device.descriptor.device_id))
        for device in devices}, names.names


class TestAgainstPerMessageReference:
    @given(scenario=scenarios)
    @settings(max_examples=150, deadline=None)
    def test_same_deliveries_times_payloads_and_stats(self, scenario):
        observed, uplinks, names = _run(DeviceBus, scenario)
        expected, reference_uplinks, reference_names = _run(ReferenceBus, scenario)
        assert observed == expected
        # Never more forward events than the per-message path.
        forwards = names.count("bus:forward")
        assert forwards <= sum(name.startswith("bus:forward:") for name in reference_names)
        event("some bus:forward" if forwards else "every copy queued at publish")
        # Uplinks: the same sends and drops as the reference; they deliver
        # the commands a device received, and nothing else.
        assert {device_id: (sent, dropped) for device_id, (sent, _, dropped) in uplinks.items()} == {
            device_id: (sent, dropped) for device_id, (sent, _, dropped) in reference_uplinks.items()}
        assert [delivered for _, delivered, _ in uplinks.values()] == [
            len(pings) for pings in observed["pings"]]


def _one_topic_bus(device_count=1, armed="listener", bus_class=DeviceBus, config=None):
    """Devices publishing "t" and "u" on one bus.

    ``armed`` names an endpoint whose downlink gets an outage planned far
    in the future: it then takes its copies from ``bus:forward`` events,
    the path :class:`TestForwardEvents` tests.  None plans no outage.
    """
    simulator = Simulator()
    bus = bus_class(simulator, config)
    devices = []
    for index in range(device_count):
        device = _Sensor(f"dev-{index}", ["t", "u"], period=1.0)
        bus.attach_device(device)
        device.bind(simulator)  # a sample's time is read off the clock; no ticks yet
        devices.append(device)
    if armed is not None:
        bus.attach_endpoint(armed)
        injector = FaultInjector(simulator)
        for channel in bus.channels:
            injector.register_channel(channel)
        injector.add(FaultSpec(kind="channel_outage", start=1e6, duration=1.0,
                               target=f"downlink:{armed}"))
        injector.arm()
    return simulator, bus, devices


class TestForwardEvents:
    """The ``bus:forward`` path, to a downlink with an outage armed."""

    def test_unsubscribed_topic_schedules_no_forward_event(self):
        simulator, bus, (device,) = _one_topic_bus()
        bus.subscribe("listener", "u", lambda t, p, m: None)
        names = _EventNames()
        simulator.attach_profiler(names)
        device.publish_reading("t", 1)
        simulator.run()
        assert bus.uplink("dev-0").sent == 1
        assert bus.uplink("dev-0").delivered == 0
        assert "bus:forward" not in names.names
        assert bus.forwarded_count == 0
        assert bus._pending_forwards == {}

    @pytest.mark.parametrize("device_count, per_device", [(1, 3), (3, 1), (3, 2)])
    def test_messages_at_one_instant_share_one_event(self, device_count, per_device):
        simulator, bus, devices = _one_topic_bus(device_count)
        received = []
        bus.subscribe("listener", "t", lambda t, p, m: received.append(p.value))
        names = _EventNames()
        simulator.attach_profiler(names)
        sent = []
        for device in devices:
            for index in range(per_device):
                value = f"{device.name}:{index}"
                device.publish_reading("t", value)
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
        device.publish_reading("t", 1)
        simulator.schedule(0.5, lambda: device.publish_reading("t", 2))
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
    """Copies queued at publish on deterministic downlinks."""

    def test_one_event_per_downlink_and_delivery_instant(self):
        simulator, bus, devices = _one_topic_bus(3, armed=None)
        both = _publish_log(bus, "both", "t", simulator)
        bus.subscribe("both", "u", lambda t, p, m: both.append((simulator.now, p)))
        only_t = _publish_log(bus, "only-t", "t", simulator)
        names = _EventNames()
        simulator.attach_profiler(names)
        for device in devices:
            device.publish_reading("t", f"{device.name}:t")
            device.publish_reading("u", f"{device.name}:u")
        simulator.run()
        assert names.names == ["channel:downlink:both:deliver", "channel:downlink:only-t:deliver"]
        assert [entry[1].value for entry in both] == [
            f"{device.name}:{topic}" for device in devices for topic in ("t", "u")]
        assert [entry[1].value for entry in only_t] == [f"{device.name}:t" for device in devices]
        # Uplinks send every sample and deliver none of them.
        assert [(uplink.sent, uplink.delivered) for uplink in bus.channels[:3]] == [(2, 0)] * 3
        assert bus.forwarded_count == 9
        # ((0 + uplink) + processing) + downlink, as on the per-message path.
        assert both[0][0] == ((0.0 + 0.02) + 0.005) + 0.02
        assert both[0][4] == (0.0 + 0.02) + 0.005

    def test_unsubscribed_topic_costs_no_event_and_no_message(self, monkeypatch):
        simulator, bus, (device,) = _one_topic_bus(armed=None)
        bus.subscribe("listener", "u", lambda t, p, m: None)
        created = []
        message_class = channel_module.Message

        def counting_message(*args):
            created.append(args)
            return message_class(*args)

        monkeypatch.setattr(channel_module, "Message", counting_message)
        device.publish_reading("t", 1)
        assert simulator.pending() == 0
        assert created == []
        assert bus.published_count == 1
        simulator.run()
        assert (bus.uplink("dev-0").sent, bus.uplink("dev-0").delivered) == (1, 0)
        assert bus.downlink("listener").sent == 0
        assert bus.forwarded_count == 0

    def test_same_deliveries_as_the_hop_by_hop_path(self):
        runs = []
        for bus_class in (DeviceBus, ReferenceBus):
            simulator, bus, devices = _one_topic_bus(2, armed=None, bus_class=bus_class)
            log = _publish_log(bus, "listener", "t", simulator)
            for device in devices:
                simulator.register(device)
            simulator.run(until=4.5)
            runs.append((log, bus.forwarded_count))
        assert runs[0] == runs[1]
        assert len(runs[0][0]) == 2 * 4

    def test_sample_overtakes_uplinks_that_reached_the_bus_after_its_own(self):
        # A command opens dev-0's uplink batch first, so on the per-message
        # path dev-0's later sample joins that batch and reaches the bus
        # before dev-1's, although dev-1 published first.
        runs = []
        for bus_class in (DeviceBus, ReferenceBus):
            simulator, bus, devices = _one_topic_bus(3, armed=None, bus_class=bus_class)
            log = _publish_log(bus, "listener", "t", simulator)
            bus.send_command("sup", "dev-0", "ping", {})
            devices[1].publish_reading("t", "dev-1:a")
            devices[2].publish_reading("t", "dev-2:a")
            devices[0].publish_reading("t", "dev-0:a")
            devices[1].publish_reading("t", "dev-1:b")
            simulator.run()
            runs.append(log)
        assert [entry[1].value for entry in runs[1]] == ["dev-0:a", "dev-1:a", "dev-1:b", "dev-2:a"]
        assert runs[0] == runs[1]
        assert [entry[3] for entry in runs[0]] == [0, 1, 2, 3]

    def test_unsubscribed_sample_opens_its_uplink_batch_too(self):
        # On the per-message path dev-0's unsubscribed "u" rides its uplink
        # and opens that batch, so dev-0's "t" reaches the bus before
        # dev-1's, although dev-1 published "t" first.
        runs = []
        for bus_class in (DeviceBus, ReferenceBus):
            simulator, bus, devices = _one_topic_bus(2, armed=None, bus_class=bus_class)
            log = _publish_log(bus, "listener", "t", simulator)
            devices[0].publish_reading("u", "dev-0:u")
            devices[1].publish_reading("t", "dev-1:t")
            devices[0].publish_reading("t", "dev-0:t")
            simulator.run()
            runs.append(log)
        assert [entry[1].value for entry in runs[1]] == ["dev-0:t", "dev-1:t"]
        assert runs[0] == runs[1]
        assert [entry[3] for entry in runs[0]] == [0, 1]

    def test_uplink_back_at_an_earlier_instant_keeps_its_first_rank(self):
        # dev-0's uplink has no latency and a jitter, so a draw below zero
        # reaches the bus at once: under seed 8 its samples a, c and d, all
        # published at 0, arrive at 0, 0.0039 and 0 again.  a opened dev-0's
        # batch at 0 ahead of dev-1's b, and on the per-message path d joins
        # that batch, so it reaches the bus before b too, although dev-0's
        # uplink was last ranked at 0.0039.
        runs = []
        for bus_class in (DeviceBus, ReferenceBus):
            simulator = Simulator()
            bus = bus_class(simulator, BusConfig(uplink=ChannelConfig(latency_s=0.0)),
                            rng=np.random.default_rng(8))
            devices = [_Sensor(f"dev-{index}", ["t"], period=1.0) for index in range(2)]
            for device in devices:
                bus.attach_device(device)
                device.bind(simulator)
            bus.uplink("dev-0").config = ChannelConfig(latency_s=0.0, jitter_s=0.004)
            log = _publish_log(bus, "listener", "t", simulator)
            for device, value in zip((0, 1, 0, 0), "abcd"):
                devices[device].publish_reading("t", value)
            simulator.run()
            runs.append(log)
        assert [(entry[1].value, entry[3]) for entry in runs[1]] == [
            ("a", 0), ("d", 1), ("b", 2), ("c", 3)]
        assert runs[0] == runs[1]
        assert 0.0 < runs[0][3][4] - 0.005 < 0.004  # c reached the bus at T2

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
                armed=None, bus_class=bus_class, config=config)
            bus.subscribe("a", "t", lambda t, p, m: None)
            bus.subscribe("b", "t", lambda t, p, m: None)
            simulator.schedule_at(publish_at, lambda: device.publish_reading("t", 1))
            simulator.run(until=2.0)
            counts.append(bus.forwarded_count)
            simulator.run()
            counts.append(bus.forwarded_count)
        expected_at_until = 2 if publish_at + 0.25 <= 2.0 else 0
        assert counts == [expected_at_until, 2, expected_at_until, 2]

    def test_obs_forwarded_counter_equal_on_both_paths(self):
        # Once with every copy queued at publish, once with the copies to
        # "b" (an outage armed on its downlink) sent from bus:forward.
        was_enabled = obsm.enabled()
        obsm.enable()
        try:
            totals = []
            for armed in (None, "b"):
                obsm.registry().reset()
                simulator, bus, devices = _one_topic_bus(2, armed=armed)
                bus.subscribe("a", "t", lambda t, p, m: None)
                bus.subscribe("b", "t", lambda t, p, m: None)
                bus.subscribe("b", "u", lambda t, p, m: None)
                for device in devices:
                    simulator.register(device)
                names = _EventNames()
                simulator.attach_profiler(names)
                simulator.run(until=3.5)
                totals.append((obsm.registry().counter("bus.forwarded").value,
                               bus.forwarded_count, names.names.count("bus:forward")))
        finally:
            obsm.registry().reset()
            if not was_enabled:
                obsm.disable()
        assert totals == [(18, 18, 0), (18, 18, 3)]

    def test_obs_counters_settle_after_a_mid_run_outage(self):
        # The obs counters count a queued copy at publish; an outage added
        # while copies are queued takes them back, and each is counted
        # again when bus:forward sends it.  Once nothing is in flight the
        # registry agrees with the bus and every channel.
        was_enabled = obsm.enabled()
        obsm.enable()
        obsm.registry().reset()
        try:
            simulator, bus, devices = _one_topic_bus(2, armed=None)
            for endpoint in ("a", "b"):
                bus.subscribe(endpoint, "t", lambda t, p, m: None)
            for device in devices:
                simulator.register(device)
            injector = FaultInjector(simulator)
            for channel in bus.channels:
                injector.register_channel(channel)
            injector.arm()
            simulator.schedule_at(2.01, lambda: injector.add(FaultSpec(
                "channel_outage", start=2.0, duration=1.0, target="downlink:b")))
            simulator.run(until=4.5)
            registry = obsm.registry()
            counts = [sum(getattr(channel, name) for channel in bus.channels)
                      for name in ("sent", "delivered", "dropped")]
            observed = [registry.counter(f"channel.{name}").value
                        for name in ("sent", "delivered", "dropped")]
            forwarded = (registry.counter("bus.forwarded").value, bus.forwarded_count)
        finally:
            obsm.registry().reset()
            if not was_enabled:
                obsm.disable()
        assert observed == counts
        # Each device's 2.0 sample is forwarded to b at 2.025, inside the
        # outage [2.0, 3.0), and dropped there.
        assert bus.downlink("b").dropped == 2
        assert forwarded == (16, 16)

    @pytest.mark.parametrize("register_first", [True, False])
    def test_planned_outage_reroutes_only_a_downlink(self, register_first):
        # However the injector learns of a channel, an outage planned
        # against it marks it before the run.  An uplink outage still
        # leaves every copy queued at publish; a downlink outage sends that
        # downlink's copies, and no others, through bus:forward.
        simulator, bus, (device,) = _one_topic_bus(armed=None)
        bus.subscribe("listener", "t", lambda t, p, m: None)
        bus.subscribe("other", "t", lambda t, p, m: None)
        injector = FaultInjector(simulator)
        specs = [FaultSpec(kind="channel_outage", start=50.0, duration=1.0, target=target)
                 for target in ("uplink:dev-0", "downlink:listener")]
        if register_first:
            for channel in bus.channels:
                injector.register_channel(channel)
            injector.extend(specs)
        else:
            injector.extend(specs)
            for channel in bus.channels:
                injector.register_channel(channel)
        for name in ("dev-0", "listener"):
            channel = bus.uplink(name) if name == "dev-0" else bus.downlink(name)
            assert channel.outage_armed
            assert not channel.deterministic
        assert bus.downlink("other").deterministic
        names = _EventNames()
        simulator.attach_profiler(names)
        device.publish_reading("t", 1)
        simulator.run()
        assert names.names == ["bus:forward", "channel:downlink:other:deliver",
                               "channel:downlink:listener:deliver"]
        assert bus.forwarded_count == 2

    def test_outage_added_mid_run_applies_to_copies_already_queued(self):
        # Uplink, processing and downlink take 0.25 s each; dev-0 publishes
        # every 0.5 s.  At 0.75 an outage [0.75, 1.75) is added against the
        # downlink.  The sample published at 0.5 is forwarded at 1.0, inside
        # the window: its copy was queued at publish, before the add, and
        # the add takes it back, so it is dropped as on the per-message
        # path.  So is 1.0 (forwarded at 1.5), which goes through bus:forward.
        config = BusConfig(uplink=ChannelConfig(latency_s=0.25),
                           downlink=ChannelConfig(latency_s=0.25), processing_delay_s=0.25)
        runs = []
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
            downlink = bus.downlink("listener")
            runs.append(([(entry[0], entry[4]) for entry in log],
                         (downlink.sent, downlink.delivered, downlink.dropped), bus.forwarded_count))
        production, reference = runs
        assert production == reference
        assert reference[0][0] == (2.25, 2.0)
        assert reference[1][2] == 2

    @pytest.mark.parametrize("until", [1.0, 1.03, 3.0])
    def test_outage_added_after_a_sample_drops_its_queued_copy(self, until):
        # A sensor publishes every 0.5 s on the default links (0.02 s up and
        # down, 0.005 s processing).  At 1.0, after that instant's sample,
        # an outage [1.0, 1.9) is added against the subscriber's downlink.
        # The sample's copy was queued at publish for its forward instant
        # 1.025, inside the window, so it is dropped there, and counts as
        # sent and dropped from 1.025 on, not from the add.
        runs = []
        for bus_class in (DeviceBus, ReferenceBus):
            simulator = Simulator()
            bus = bus_class(simulator)
            device = _Sensor("dev-0", ["t"], period=0.5)
            bus.attach_device(device)
            simulator.register(device)
            log = _publish_log(bus, "sup", "t", simulator)
            injector = FaultInjector(simulator)
            for channel in bus.channels:
                injector.register_channel(channel)
            injector.arm()
            simulator.run(until=1.0)
            injector.add(FaultSpec("channel_outage", start=1.0, duration=0.9, target="downlink:sup"))
            simulator.run(until=until)
            downlink = bus.downlink("sup")
            runs.append(([(entry[0], entry[4]) for entry in log],
                         (downlink.sent, downlink.delivered, downlink.dropped), bus.forwarded_count))
        production, reference = runs
        assert production == reference
        forwarded_at = [sent_at for _, sent_at in reference[0]]
        assert (forwarded_at, reference[1]) == {
            1.0: ([0.525], (1, 1, 0)),
            1.03: ([0.525], (2, 1, 1)),
            3.0: ([0.525, 2.025, 2.525], (5, 3, 2)),
        }[until]

    @pytest.mark.parametrize("armed", [False, True])
    @pytest.mark.xfail(strict=True, reason=(
        "ROADMAP item 11: an outage opening at a copy's forward instant drops it on the "
        "per-message path only if its forward event was scheduled after the fault event"))
    def test_outage_at_a_forward_instant_follows_kernel_order(self, armed):
        # No uplink, processing or downlink delay: the sample published at
        # 0.5 is forwarded at 0.5.  A kernel event at 0.5, scheduled before
        # the run, adds an outage that is already open.  The per-message
        # path forwards the sample from an event the uplink's delivery
        # schedules after that add, so after the fault event, and drops it.
        # The bus forwarded it at publish and delivers it, whether the
        # downlink was deterministic or already armed.
        config = BusConfig(uplink=ChannelConfig(latency_s=0.0),
                           downlink=ChannelConfig(latency_s=0.0), processing_delay_s=0.0)
        logs = []
        for bus_class in (DeviceBus, ReferenceBus):
            simulator = Simulator()
            bus = bus_class(simulator, config)
            device = _Sensor("dev-0", ["t"], period=0.5)
            bus.attach_device(device)
            simulator.register(device)
            log = _publish_log(bus, "sup", "t", simulator)
            injector = FaultInjector(simulator)
            for channel in bus.channels:
                injector.register_channel(channel)
            if armed:
                injector.add(FaultSpec("channel_outage", start=1e6, duration=1.0, target="downlink:sup"))
            injector.arm()
            simulator.schedule_at(0.5, lambda injector=injector: injector.add(FaultSpec(
                "channel_outage", start=0.0, duration=0.6, target="downlink:sup")))
            simulator.run(until=1.0)
            logs.append([entry[4] for entry in log])
        production, reference = logs
        assert reference == [1.0]
        assert production == reference

    def test_order_kept_where_downlink_turns_stochastic(self):
        # dev-0 and dev-1 publish at 0 and their copies are queued on the
        # listener's deterministic downlink.  Then an outage far in the
        # future is armed against that downlink and dev-0 publishes again
        # at 0.  The add takes the queued copies back into bus:forward,
        # where the new copy joins them by its order key: it rides dev-0's
        # uplink batch, ahead of dev-1's, as on the per-message path.
        runs = []
        for bus_class in (DeviceBus, ReferenceBus):
            simulator, bus, devices = _one_topic_bus(2, armed=None, bus_class=bus_class)
            log = _publish_log(bus, "listener", "t", simulator)
            injector = FaultInjector(simulator)
            for channel in bus.channels:
                injector.register_channel(channel)

            def at_zero(devices=devices, injector=injector):
                devices[0].publish_reading("t", "dev-0:a")
                devices[1].publish_reading("t", "dev-1:a")
                injector.add(FaultSpec(kind="channel_outage", start=1e6, duration=1.0,
                                       target="downlink:listener"))
                devices[0].publish_reading("t", "dev-0:b")

            def at_one(devices=devices):
                devices[1].publish_reading("t", "dev-1:c")
                devices[0].publish_reading("t", "dev-0:c")

            simulator.schedule_at(0.0, at_zero)
            simulator.schedule_at(1.0, at_one)
            simulator.run()
            runs.append(log)
        production, reference = runs
        assert production == reference
        assert [(entry[1].value, entry[3]) for entry in reference] == [
            ("dev-0:a", 0), ("dev-0:b", 1), ("dev-1:a", 2), ("dev-1:c", 3), ("dev-0:c", 4)]

    def test_arrival_order_map_forgets_past_instants(self):
        # A jittered uplink reaches the bus at a new instant with every
        # sample; the map that ranks arrivals must not keep them all.
        simulator = Simulator()
        bus = DeviceBus(simulator, BusConfig(uplink=ChannelConfig(latency_s=0.02, jitter_s=0.004)),
                        rng=np.random.default_rng(3))
        device = _Sensor("dev-0", ["t", "u"], period=0.25)
        bus.attach_device(device)
        simulator.register(device)
        _publish_log(bus, "listener", "t", simulator)
        simulator.run(until=300.0)
        assert bus.published_count == 2 * 1200
        assert len(bus._arrivals) <= 16

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
            device.bind(simulator)
            log = _publish_log(bus, "listener", "t", simulator)
            device.publish_reading("t", 0)

            def turn_stochastic(bus=bus, device=device):
                bus.uplink("dev-0").config = ChannelConfig(latency_s=0.02, jitter_s=0.004)
                device.publish_reading("u", 1)

            simulator.schedule_at(1.0, turn_stochastic)
            simulator.schedule_at(2.0, lambda device=device: device.publish_reading("t", 2))
            simulator.run()
            runs.append(log)
        assert runs[0] == runs[1]
        assert [entry[1].value for entry in runs[0]] == [0, 2]


@pytest.fixture
def built_readings(monkeypatch):
    """Counts every Reading the devices and the bus build (real ones)."""
    built = []

    def counting_reading(*args):
        built.append(None)
        return Reading(*args)

    monkeypatch.setattr(device_base, "Reading", counting_reading)
    monkeypatch.setattr(bus_module, "Reading", counting_reading)
    return built


def _pca_run(mode, duration_s=1800.0):
    system = ClosedLoopPCASystem(PCASystemConfig(mode=mode, duration_s=duration_s, seed=3))
    system.run()
    return system


class TestSamplesEnterTheBusUnboxed:
    """A device's sample reaches DeviceBus.publish as its value, validity and
    time; the bus builds its Reading only for a topic with a subscriber."""

    def test_open_loop_run_builds_no_reading(self, built_readings):
        # Nobody subscribes in an open loop: every sample is published,
        # fated and ranked, and none is boxed.
        system = _pca_run("open_loop")
        assert system.oximeter.readings_published == 900
        assert system.bus.published_count > 2000
        assert built_readings == []

    def test_closed_loop_builds_one_reading_per_routed_copy(self, built_readings):
        # The supervisor is the one endpoint, subscribed to sample topics
        # only, so each routed sample is one forwarded copy.  The run ends
        # between sample instants, so no copy is still in flight.
        system = _pca_run("closed_loop", duration_s=1800.5)
        assert system.bus.subscribers("spo2") == ["supervisor_host:pca-safety"]
        assert 0 < len(built_readings) == system.bus.forwarded_count
        assert len(built_readings) < system.bus.published_count

    def test_every_publish_is_one_bus_publish_call(self, monkeypatch):
        # perfbench charges DeviceBus.publish to the bus layer: samples must
        # enter the bus there and nowhere else.
        calls = []
        publish = DeviceBus.publish

        def counting_publish(self, *args, **kwargs):
            calls.append(None)
            return publish(self, *args, **kwargs)

        monkeypatch.setattr(DeviceBus, "publish", counting_publish)
        system = _pca_run("closed_loop")
        assert system.bus.published_count > 2000
        assert len(calls) == system.bus.published_count
