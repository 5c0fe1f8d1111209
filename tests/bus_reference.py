"""Per-message bus forwarder, kept only as a test oracle.

:class:`ReferenceBus` is :class:`~repro.middleware.bus.DeviceBus` with the
naive forwarding path: every published message rides its device's uplink
to a delivery there, every message that reaches the bus schedules its own
kernel event ``processing_delay_s`` later, named after its topic, and the
subscribers are looked up when that event fires.  The production bus
decides the uplink hop at publish, queues copies for deterministic
downlinks at once and coalesces the other forwards per exact instant;
``tests/test_bus_forwarding.py`` checks that the two deliver the same
messages, at the same times, in the same order.
"""

from __future__ import annotations

from repro.middleware.bus import COMMAND_TOPIC_PREFIX, DeviceBus
from repro.readings import Reading
from repro.sim.channel import Channel, Message


class ReferenceBus(DeviceBus):
    """DeviceBus forwarding each message with its own kernel event."""

    def _make_uplink(self, device_id: str) -> Channel:
        if device_id not in self._uplinks:
            super()._make_uplink(device_id).subscribe(self._on_uplink_message)
        return self._uplinks[device_id]

    def publish(self, device_id: str, topic: str, value, valid, time) -> None:
        # Always delivered over the uplink, the sample boxed first: the
        # production bus decides the uplink hop at publish instead, and
        # boxes only a routed sample.
        uplink = self._make_uplink(device_id)
        self.published_count += 1
        uplink.send(device_id, topic, Reading(value, valid, time))

    def _on_uplink_message(self, message: Message) -> None:
        if message.topic.startswith(COMMAND_TOPIC_PREFIX):
            return
        self.simulator.schedule(
            self.config.processing_delay_s,
            lambda: self._forward(message),
            name=f"bus:forward:{message.topic}",
        )

    def _forward(self, message: Message) -> None:
        subscriptions = self._subscriptions.get(message.topic)
        if not subscriptions:
            return
        endpoints = {}
        for endpoint_id, _ in subscriptions:
            if endpoint_id not in endpoints:
                endpoints[endpoint_id] = None
        for endpoint_id in endpoints:
            downlink = self._downlinks.get(endpoint_id)
            if downlink is None:
                continue
            self._forwarded += 1
            downlink.send(message.sender, message.topic, message.payload)
