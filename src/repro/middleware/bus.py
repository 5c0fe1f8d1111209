"""Topic-based publish/subscribe bus over simulated network channels.

The bus is the ICE "network controller": every attached device gets its own
uplink channel to the bus and the bus forwards messages to subscriber
downlink channels, so end-to-end latency is the sum of two channel delays
plus any bus processing delay.  Channels can be degraded or cut by the fault
injector to model communication failures.

Compiled routes: while every link of the bus is deterministic (see
:attr:`~repro.sim.channel.Channel.deterministic`), a sample's route is fixed
when it is published, so :meth:`DeviceBus.publish` queues it straight into
each subscriber's downlink at the instant it would have been forwarded.  One
downlink event then replaces the uplink delivery, the ``bus:forward`` event
and the downlink event, with bit-identical delivery times, per-downlink
order and sequence numbers.  The first publish that finds a link
non-deterministic switches the whole bus to the hop-by-hop path for the rest
of the run: a downlink fed by both paths would see same-instant messages in
a different order.  Only the samples published at the switching instant
itself can still leave in another order than the hop-by-hop path gives
them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.devices.base import MedicalDevice
from repro.obs.metrics import bus_instruments
from repro.sim.channel import Channel, ChannelConfig, Message
from repro.sim.kernel import Simulator
from repro.sim.trace import TraceRecorder

#: Topic prefix reserved for the reverse (command) path.  Command messages
#: ride the device uplink but must never enter the pub/sub forwarding path.
COMMAND_TOPIC_PREFIX = "__command__:"


class Envelope:
    """Bus forwarding envelope: the original payload plus its publish time.

    One envelope is built per forwarded message (shared by every subscriber
    copy) on the simulation's hottest messaging path; a slotted class keeps
    that cheaper than a fresh two-key dict per subscriber and makes the
    contract explicit.  Treat instances as immutable.
    """

    __slots__ = ("payload", "published_at")

    def __init__(self, payload: Any, published_at: float) -> None:
        self.payload = payload
        self.published_at = published_at

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Envelope published_at={self.published_at} {self.payload!r}>"


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
    """Publish/subscribe message bus connecting devices and supervisors."""

    def __init__(
        self,
        simulator: Simulator,
        config: Optional[BusConfig] = None,
        *,
        rng=None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        self.simulator = simulator
        self.config = config or BusConfig()
        self.config.validate()
        self._rng = rng
        self.trace = trace
        self._uplinks: Dict[str, Channel] = {}
        self._downlinks: Dict[str, Channel] = {}
        self._subscriptions: Dict[str, List[Tuple[str, Callable[[str, Any, Message], None]]]] = {}
        # topic -> downlinks of its subscribed endpoints, each once, in
        # subscription order.  Insertion order, never a set: delivery order
        # (and hence downlink sequence numbers and kernel tiebreaks) must not
        # depend on PYTHONHASHSEED.
        self._routes: Dict[str, Tuple[Channel, ...]] = {}
        # Forward coalescing, the pattern Channel uses for deliveries:
        # forward instant -> FIFO queue of (message, routes) sharing one
        # kernel event, popped when that event fires.
        self._pending_forwards: Dict[float, List[Tuple[Message, Tuple[Channel, ...]]]] = {}
        self._forward_batch_cb = self._forward_batch
        # Compiled routes: None until the first publish checks every link,
        # then True until a publish finds a non-deterministic link.
        self._compiled: Optional[bool] = None
        self._uplink_latency = 0.0
        # The bus-arrival instant of the newest compiled sample, and the
        # uplinks with a message arriving then, in the order their uplink
        # batches would have been created (the order the bus takes them in).
        self._arrival_at = -math.inf
        self._arrivals: List[Channel] = []
        self._attached_devices: Dict[str, MedicalDevice] = {}
        self._command_routes: set = set()
        self.published_count = 0
        self._forwarded = 0
        # Registry-backed metrics; None unless repro.obs was enabled when
        # this bus was constructed.
        self._obs = bus_instruments()

    # ------------------------------------------------------------ attachment
    def attach_device(self, device: MedicalDevice) -> Channel:
        """Attach a device: create its uplink and wire its publish method."""
        device_id = device.descriptor.device_id
        if device_id in self._attached_devices:
            raise ValueError(f"device {device_id!r} is already attached to the bus")
        uplink = self._make_uplink(device_id)
        self._attached_devices[device_id] = device
        device.attach_publisher(lambda topic, payload, d=device_id: self.publish(d, topic, payload))
        return uplink

    def attach_endpoint(self, endpoint_id: str) -> None:
        """Attach a non-device endpoint (supervisor, logger) for subscriptions."""
        if endpoint_id not in self._downlinks:
            self._downlinks[endpoint_id] = Channel(
                self.simulator,
                name=f"downlink:{endpoint_id}",
                config=self.config.downlink,
                rng=self._rng,
            )

    def _make_uplink(self, device_id: str) -> Channel:
        if device_id not in self._uplinks:
            channel = Channel(
                self.simulator,
                name=f"uplink:{device_id}",
                config=self.config.uplink,
                rng=self._rng,
            )
            channel.subscribe(self._on_uplink_message)
            self._uplinks[device_id] = channel
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

        Counted at each copy's forward instant on both paths: a compiled
        copy is queued at publish, stamped with its forward instant, and is
        not counted before that instant.
        """
        now = self.simulator.now
        return self._forwarded - sum(downlink.queued_after(now)
                                     for downlink in self._downlinks.values())

    # ------------------------------------------------------------ publishing
    def publish(self, device_id: str, topic: str, payload: Any) -> None:  # repro-lint: hot
        """Called by devices; routes the message to its subscribers.

        On a compiled bus the subscribers are taken now, and each
        subscribed downlink gets a send stamped with the forward instant
        ``(now + uplink latency) + processing delay``, the same float
        additions the hop-by-hop path makes.  A topic nobody subscribes to
        makes no ``Message`` and no event; only its uplink's arrival at the
        bus is noted, since it orders the device's later samples at that
        instant.  Otherwise the message rides the device's uplink.
        """
        uplink = self._uplinks.get(device_id)
        if uplink is None:
            uplink = self._make_uplink(device_id)
        self.published_count += 1
        obs = self._obs
        if obs is not None:
            obs.published.value += 1
        if self.trace is not None:
            self.trace.event(self.simulator.now, f"bus:publish:{topic}", payload, source=device_id)
        compiled = self._compiled
        if compiled is None:
            compiled = self._compile()
        if compiled:
            # The uplink is checked for an unsubscribed topic too: on a
            # stochastic uplink the sample must draw from the rng as it
            # rides the link.
            routes = self._routes.get(topic)
            compiled = uplink.deterministic and uplink.config.latency_s == self._uplink_latency
            if routes is not None:
                for downlink in routes:
                    compiled = compiled and downlink.deterministic
            if compiled:
                # Every sample, subscribed or not, would have opened or
                # joined its uplink's batch at the bus-arrival instant.
                now = self.simulator.now
                arrival_at = now + self._uplink_latency
                overtakes = None
                if arrival_at != self._arrival_at:
                    self._arrival_at = arrival_at
                    self._arrivals = [uplink]
                elif self._arrivals[-1] is not uplink:
                    if uplink in self._arrivals:
                        overtakes = self._overtaken_by(uplink, arrival_at)
                    else:
                        self._arrivals.append(uplink)
                if routes is None:
                    return
                forward_at = arrival_at + self.config.processing_delay_s
                envelope = Envelope(payload, now)
                self._forwarded += len(routes)
                if obs is not None:
                    obs.forwarded.value += len(routes)
                for downlink in routes:
                    downlink.send_at(forward_at, device_id, topic, envelope, overtakes)
                return
            self._compiled = False
        uplink.send(device_id, topic, payload)

    def _compile(self) -> bool:
        """Decide, at the first publish, whether routes can be compiled."""
        latency = self.config.uplink.latency_s
        compiled = latency > 0.0 and all(
            channel.deterministic for channel in self.channels
        ) and all(uplink.config.latency_s == latency for uplink in self._uplinks.values())
        self._uplink_latency = latency
        self._compiled = compiled
        return compiled

    def _overtaken_by(self, uplink: Channel, arrival_at: float) -> Callable[[Message], bool]:
        """Which queued copies a sample from ``uplink`` goes ahead of.

        ``uplink`` already has a message reaching the bus at
        ``arrival_at``, and uplinks after it have too.  On the hop-by-hop
        path its new message would join its uplink's batch and reach the
        bus before theirs, so its copies go ahead of their copies.
        """
        later = set(self._arrivals[self._arrivals.index(uplink) + 1:])
        latency = self._uplink_latency
        uplinks = self._uplinks

        def overtakes(message: Message) -> bool:
            return (message.payload.published_at + latency == arrival_at
                    and uplinks[message.sender] in later)

        return overtakes

    def _on_uplink_message(self, message: Message) -> None:  # repro-lint: hot
        """Uplink delivery: queue the message for forwarding after the bus delay.

        The subscribers are taken now, as the message reaches the bus.  A
        topic nobody subscribes to is dropped here and costs no kernel
        event; that includes every command topic, which ``subscribe``
        refuses.  Messages forwarded at the same exact instant share one
        ``bus:forward`` event and leave in arrival order.
        """
        routes = self._routes.get(message.topic)
        if routes is None:
            return
        forward_at = self.simulator.now + self.config.processing_delay_s
        batch = self._pending_forwards.get(forward_at)
        if batch is not None:
            batch.append((message, routes))
        else:
            self._pending_forwards[forward_at] = [(message, routes)]
            self.simulator.schedule_at(forward_at, self._forward_batch_cb, name="bus:forward")

    def _forward_batch(self) -> None:  # repro-lint: hot
        # The kernel fires this event at exactly the pending key's time, so
        # `now` IS the key.  Pop before sending, as Channel._deliver_batch
        # does: a zero processing delay must open a fresh batch.  One copy
        # goes to each subscribed endpoint's downlink, which fans it out to
        # the handlers registered at subscribe() time; the original publish
        # time travels in the envelope for end-to-end latency accounting.
        batch = self._pending_forwards.pop(self.simulator.now)
        obs = self._obs
        for message, downlinks in batch:
            envelope = Envelope(message.payload, message.sent_at)
            self._forwarded += len(downlinks)
            if obs is not None:
                obs.forwarded.value += len(downlinks)
            for downlink in downlinks:
                downlink.send(message.sender, message.topic, envelope)

    # ---------------------------------------------------------- subscribing
    def subscribe(
        self,
        endpoint_id: str,
        topic: str,
        handler: Callable[[str, Any, Message], None],
    ) -> None:
        """Subscribe ``endpoint_id`` to ``topic``.

        ``handler(topic, payload, message)`` is called on each delivery, where
        ``message`` is the downlink delivery record (including end-to-end
        latency information).

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
            envelope = message.payload
            handler(topic, envelope.payload, message)

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
        channel.send(sender_id, command_topic, parameters or {})
        if self._compiled is not False:
            # The command opens (or joins) its uplink's batch, which fixes
            # where that device's later samples reach the bus in turn.
            arrival_at = self.simulator.now + channel.config.latency_s
            if arrival_at > self._arrival_at:
                self._arrival_at = arrival_at
                self._arrivals = [channel]
            elif arrival_at == self._arrival_at and channel not in self._arrivals:
                self._arrivals.append(channel)
        if self.trace is not None:
            self.trace.event(
                self.simulator.now,
                f"bus:command:{command}",
                {"target": device_id, "sender": sender_id},
                source=sender_id,
            )
        return True

    # ------------------------------------------------------------ statistics
    def stats(self) -> Dict[str, Any]:
        return {
            "published": self.published_count,
            "forwarded": self.forwarded_count,
            "uplinks": {name: ch.stats() for name, ch in self._uplinks.items()},
            "downlinks": {name: ch.stats() for name, ch in self._downlinks.items()},
        }
