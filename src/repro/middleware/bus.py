"""Topic-based publish/subscribe bus over simulated network channels.

The bus is the ICE "network controller": every attached device gets its own
uplink channel to the bus and the bus forwards messages to subscriber
downlink channels, so end-to-end latency is the sum of two channel delays
plus any bus processing delay.  Channels can be degraded or cut by the fault
injector to model communication failures.

One payload type: every bus message is a sample, read by its subscribers
as a :class:`~repro.readings.Reading` and nothing else.  A status (a pump
stopped, a probe detached) is a sample too, its state coded in the value.
There is no envelope: a Reading's own ``time`` is its publish instant, so
the copy a subscriber gets carries everything end-to-end latency needs.

One route: a device's sample enters the bus in one call,
:meth:`DeviceBus.publish`, with its value, validity and time unboxed.  Its
uplink hop is decided then (:meth:`~repro.sim.channel.Channel.fate`
applies outages, loss and jitter), so the bus takes the subscribers then,
builds the sample's :class:`~repro.readings.Reading` only if there are
any, and queues each copy for its forward instant
``arrival + processing_delay_s``.  A
:attr:`~repro.sim.channel.Channel.deterministic` downlink gets the copy at
once through :meth:`~repro.sim.channel.Channel.send_at`; any other downlink
gets it from the one ``bus:forward`` event of that instant, where it draws
the copy's fate.  An outage armed against a downlink later takes back its
copies queued for a forward instant still to come, and the bus forwards
them from ``bus:forward`` too.  Both take copies in the order they reach
the bus: by arrival instant, then by the order in which their uplinks'
messages first reached the bus at that instant (the order of the uplinks'
delivery batches on the per-message path), then in publish order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.devices.base import MedicalDevice
from repro.obs.metrics import bus_instruments
from repro.readings import Reading
from repro.sim.channel import Channel, ChannelConfig, Message
from repro.sim.kernel import Simulator

#: Topic prefix reserved for the reverse (command) path.  Command messages
#: ride the device uplink but must never enter the pub/sub forwarding path.
COMMAND_TOPIC_PREFIX = "__command__:"


@dataclass
class BusConfig:
    """Network parameters for the device bus.

    uplink / downlink:
        Channel configurations for device-to-bus and bus-to-subscriber links.
    processing_delay_s:
        Fixed forwarding delay inside the bus (message validation, routing).
    """

    uplink: ChannelConfig = field(default_factory=lambda: ChannelConfig(latency_s=0.02))
    downlink: ChannelConfig = field(default_factory=lambda: ChannelConfig(latency_s=0.02))
    processing_delay_s: float = 0.005

    def validate(self) -> None:
        self.uplink.validate()
        self.downlink.validate()
        delay = self.processing_delay_s
        if not (math.isfinite(delay) and delay >= 0):
            raise ValueError(f"processing_delay_s must be finite and non-negative, got {delay!r}")


class DeviceBus:
    """Publish/subscribe message bus connecting devices and supervisors.

    The bus keeps no trace.  A sample is recorded once, as a signal of the
    device that took it, and a command by the host that sends it; a log
    here would hold every published payload for the whole run.
    """

    def __init__(
        self,
        simulator: Simulator,
        config: Optional[BusConfig] = None,
        *,
        rng=None,
    ) -> None:
        self.simulator = simulator
        self.config = config or BusConfig()
        self.config.validate()
        self._rng = rng
        self._uplinks: Dict[str, Channel] = {}
        self._downlinks: Dict[str, Channel] = {}
        self._subscriptions: Dict[str, List[Tuple[str, Callable[[str, Reading, Message], None]]]] = {}
        # topic -> downlinks of its subscribed endpoints, each once, in
        # subscription order.  Insertion order, never a set: delivery order
        # (and hence downlink sequence numbers and kernel tiebreaks) must not
        # depend on PYTHONHASHSEED.
        self._routes: Dict[str, Tuple[Channel, ...]] = {}
        # Forwards to downlinks that are not deterministic, coalesced as
        # Channel coalesces deliveries: forward instant -> (order, sender,
        # topic, reading, downlinks) in arrival order, sharing one kernel
        # event, popped when it fires.
        self._pending_forwards: Dict[float, List[Tuple[Tuple[float, int], str, str, Reading,
                                                       List[Channel]]]] = {}
        self._forward_batch_cb = self._forward_batch
        # Arrival order at the bus: arrival instant -> {uplink: order key}.
        # The key (instant, rank) ranks an uplink by when its first message
        # for that instant was sent, as its delivery batch would be.
        self._arrivals: Dict[float, Dict[Channel, Tuple[float, int]]] = {}
        # uplink -> its order key at the last instant it was ranked at.  A
        # key never changes once given, and an instant is forgotten only
        # once past, so the memo is exact; a miss asks _order.
        self._ranked: Dict[Channel, Tuple[float, int]] = {}
        self._sweep_at = 8
        self._attached_devices: Dict[str, MedicalDevice] = {}
        self._command_routes: set = set()
        self.published_count = 0
        self._forwarded = 0
        # Registry-backed metrics; None unless repro.obs was enabled when
        # this bus was constructed.
        self._obs = bus_instruments()

    # ------------------------------------------------------------ attachment
    def attach_device(self, device: MedicalDevice) -> Channel:
        """Attach a device: create its uplink and make it publish here."""
        device_id = device.descriptor.device_id
        if device_id in self._attached_devices:
            raise ValueError(f"device {device_id!r} is already attached to the bus")
        uplink = self._make_uplink(device_id)
        self._attached_devices[device_id] = device
        device.attach_bus(self)
        return uplink

    def attach_endpoint(self, endpoint_id: str) -> None:
        """Attach a non-device endpoint (supervisor, logger) for subscriptions."""
        if endpoint_id not in self._downlinks:
            downlink = self._downlinks[endpoint_id] = Channel(
                self.simulator,
                name=f"downlink:{endpoint_id}",
                config=self.config.downlink,
                rng=self._rng,
            )
            downlink.reroute = self._reroute

    def _make_uplink(self, device_id: str) -> Channel:
        if device_id not in self._uplinks:
            self._uplinks[device_id] = Channel(
                self.simulator,
                name=f"uplink:{device_id}",
                config=self.config.uplink,
                rng=self._rng,
            )
        return self._uplinks[device_id]

    def uplink(self, device_id: str) -> Channel:
        return self._uplinks[device_id]

    def downlink(self, endpoint_id: str) -> Channel:
        return self._downlinks[endpoint_id]

    @property
    def devices(self) -> Dict[str, MedicalDevice]:
        return dict(self._attached_devices)

    @property
    def channels(self) -> List[Channel]:
        return list(self._uplinks.values()) + list(self._downlinks.values())

    @property
    def forwarded_count(self) -> int:
        """Copies forwarded to subscriber downlinks so far.

        A copy queued at publish counts from its forward instant on.
        """
        now = self.simulator.now
        return self._forwarded - sum(downlink.queued_after(now)
                                     for downlink in self._downlinks.values())

    # ------------------------------------------------------------ publishing
    def publish(  # repro-lint: hot
        self, device_id: str, topic: str, value: Any, valid: bool, time: float,
    ) -> None:
        """Called by devices; routes one sample to its subscribers.

        The sample is ``value``, taken at ``time`` and flagged ``valid``
        (what :meth:`~repro.devices.base.MedicalDevice.publish_reading`
        sends); subscribers receive it as ``Reading(value, valid, time)``.

        The uplink decides the sample's fate now.  A delivered sample is
        ranked among the arrivals at its instant even if nobody subscribes
        to its topic (it still orders its device's later samples there),
        but only a subscribed one makes a ``Reading``, a ``Message`` or an
        event.
        """
        uplink = self._uplinks.get(device_id)
        if uplink is None:
            uplink = self._make_uplink(device_id)
        self.published_count += 1
        obs = self._obs
        if obs is not None:
            obs.published.value += 1
        arrival_at = uplink.fate()
        if arrival_at is None:
            return
        order = self._ranked.get(uplink)
        if order is None or order[0] != arrival_at:
            order = self._order(uplink, arrival_at)
        routes = self._routes.get(topic)
        if routes is None:
            return
        reading = Reading(value, valid, time)
        forward_at = arrival_at + self.config.processing_delay_s
        later: Optional[List[Channel]] = None
        for downlink in routes:
            if downlink.deterministic:
                downlink.send_at(forward_at, device_id, topic, reading, order)
            elif later is None:
                later = [downlink]
            else:
                later.append(downlink)
        queued = len(routes)
        if later is not None:
            queued -= len(later)
            forward = (order, device_id, topic, reading, later)
            batch = self._pending_forwards.get(forward_at)
            if batch is None:
                self._pending_forwards[forward_at] = [forward]
                self.simulator.schedule_at(forward_at, self._forward_batch_cb, name="bus:forward")
            else:
                index = len(batch)
                while index and batch[index - 1][0] > order:
                    index -= 1
                batch.insert(index, forward)
        self._forwarded += queued
        if obs is not None:
            obs.forwarded.value += queued

    def _order(self, uplink: Channel, arrival_at: float) -> Tuple[float, int]:
        """The order key of ``uplink`` at ``arrival_at``, ranking it last if new.

        Instants already past are forgotten once the map doubles in size:
        kept longer, they pin allocator arenas and raise peak memory.
        """
        ranks = self._arrivals.get(arrival_at)
        if ranks is None:
            if len(self._arrivals) >= self._sweep_at:
                now = self.simulator.now
                self._arrivals = {instant: ranks for instant, ranks in self._arrivals.items()
                                  if instant >= now}
                self._sweep_at = 2 * len(self._arrivals) + 8
            ranks = self._arrivals[arrival_at] = {}
        order = ranks.get(uplink)
        if order is None:
            order = ranks[uplink] = (arrival_at, len(ranks))
        self._ranked[uplink] = order
        return order

    def _reroute(self, downlink: Channel, copies: List[Message]) -> None:
        """Forward ``copies``, which ``downlink`` took back when an outage was
        armed against it, from the ``bus:forward`` of their send times, by
        order key: as if queued there at publish."""
        self._forwarded -= len(copies)
        if self._obs is not None:
            self._obs.forwarded.value -= len(copies)
        for message in copies:
            batch = self._pending_forwards.setdefault(message.sent_at, [])
            if not batch:
                self.simulator.schedule_at(message.sent_at, self._forward_batch_cb, name="bus:forward")
            batch.append((message.order, message.sender, message.topic, message.payload, [downlink]))
            batch.sort(key=lambda forward: forward[0])

    def _forward_batch(self) -> None:  # repro-lint: hot
        # The kernel fires this event at exactly the pending key's time, so
        # `now` IS the key.  Pop before sending, as Channel._deliver_batch
        # does: a zero processing delay must open a fresh batch.  Each
        # downlink draws its copy's fate as it is sent; the sample's own
        # time is its publish instant, for end-to-end latency accounting.
        batch = self._pending_forwards.pop(self.simulator.now)
        obs = self._obs
        for _, sender, topic, reading, downlinks in batch:
            self._forwarded += len(downlinks)
            if obs is not None:
                obs.forwarded.value += len(downlinks)
            for downlink in downlinks:
                downlink.send(sender, topic, reading)

    # ---------------------------------------------------------- subscribing
    def subscribe(
        self,
        endpoint_id: str,
        topic: str,
        handler: Callable[[str, Reading, Message], None],
    ) -> None:
        """Subscribe ``endpoint_id`` to ``topic``.

        ``handler(topic, reading, message)`` is called on each delivery, where
        ``reading`` is the sample and ``message`` the downlink delivery
        record (``reading.time`` to ``message.delivered_at`` is the
        end-to-end latency).

        Command topics (``__command__:`` prefix) belong to the reverse path
        and cannot be subscribed to.
        """
        if topic.startswith(COMMAND_TOPIC_PREFIX):
            raise ValueError(
                f"topic {topic!r} is reserved for device commands and cannot be subscribed to"
            )
        self.attach_endpoint(endpoint_id)
        downlink = self._downlinks[endpoint_id]

        def _deliver(message: Message, topic=topic, handler=handler) -> None:
            handler(topic, message.payload, message)

        downlink.subscribe(_deliver, topic=topic)
        self._subscriptions.setdefault(topic, []).append((endpoint_id, handler))
        routes = self._routes.get(topic, ())
        if downlink not in routes:
            self._routes[topic] = routes + (downlink,)

    def subscribers(self, topic: str) -> List[str]:
        return [endpoint for endpoint, _ in self._subscriptions.get(topic, [])]

    # -------------------------------------------------------------- commands
    def send_command(
        self,
        sender_id: str,
        device_id: str,
        command: str,
        parameters: Optional[Dict[str, Any]] = None,
    ) -> bool:
        """Send a command to a device through its uplink channel (reverse path).

        Returns True if the command was handed to the network (delivery may
        still fail if the channel drops it or the device rejects it).
        """
        device = self._attached_devices.get(device_id)
        if device is None:
            return False
        channel = self._make_uplink(device_id)
        command_topic = f"{COMMAND_TOPIC_PREFIX}{device_id}:{command}"
        if command_topic not in self._command_routes:
            def _deliver(message: Message, device=device, command=command) -> None:
                device.handle_command(command, message.payload)

            channel.subscribe(_deliver, topic=command_topic)
            self._command_routes.add(command_topic)
        if self._obs is not None:
            self._obs.commands.value += 1
        # The command opens (or joins) its uplink's batch, which ranks that
        # device's later samples at the same arrival instant.
        arrival_at = channel.fate()
        if arrival_at is not None:
            self._order(channel, arrival_at)
            channel.enqueue(arrival_at, Message(sender_id, command_topic, parameters or {},
                                               self.simulator.now, -1))
        return True
