"""Network channels between medical devices.

The paper's closed-loop scenarios hinge on communication timing: the
supervisor must account for transmission delays and tolerate communication
failures (Section II(c)), and the X-ray/ventilator scenario requires the
X-ray machine to reason about "enough time -- taking transmission delays into
account" (Section II(b)).  :class:`Channel` models a point-to-point or
broadcast link with configurable latency, jitter, loss probability, and
scripted outages.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.obs.metrics import channel_instruments
from repro.sim.kernel import Simulator


@dataclass(slots=True, unsafe_hash=True)
class Message:
    """A datagram exchanged between devices or middleware components.

    Slotted but not frozen: one Message is created per sent datagram on
    the simulation's hottest path, and a frozen dataclass pays
    ``object.__setattr__`` per field on every construction.  The channel
    stamps ``delivered_at`` when it delivers the message; treat every other
    field as immutable.  ``order`` is the queueing key of
    :meth:`Channel.enqueue`.
    """

    sender: str
    topic: str
    payload: Any
    sent_at: float
    sequence: int
    delivered_at: Optional[float] = None
    order: Optional[Tuple[float, int]] = field(default=None, compare=False, repr=False)


@dataclass
class ChannelConfig:
    """Timing and reliability parameters of a network link.

    latency_s:
        Fixed propagation plus processing delay in seconds.
    jitter_s:
        Half-width of a uniform jitter added to the latency.
    loss_probability:
        Probability that an individual message is silently dropped.
    """

    latency_s: float = 0.05
    jitter_s: float = 0.0
    loss_probability: float = 0.0

    def validate(self) -> None:
        # A NaN passes every ``< 0`` test, so bounds are checked as
        # "finite and in range", which rejects NaN and infinities.
        if not (math.isfinite(self.latency_s) and self.latency_s >= 0):
            raise ValueError(f"latency_s must be finite and non-negative, got {self.latency_s!r}")
        if not (math.isfinite(self.jitter_s) and self.jitter_s >= 0):
            raise ValueError(f"jitter_s must be finite and non-negative, got {self.jitter_s!r}")
        if not 0.0 <= self.loss_probability <= 1.0:
            raise ValueError("loss_probability must be within [0, 1]")


#: The dispatch table of every channel with no subscriber: shared, read-only.
_NO_HANDLERS = MappingProxyType({None: ()})


class Channel:
    """A lossy, delaying message channel.

    Receivers subscribe with :meth:`subscribe`; senders call :meth:`send`.
    Delivery is simulated by scheduling a kernel event after the sampled
    latency.  Messages that land on the same ``(channel, delivery-time)``
    share ONE kernel event: the first message schedules it, later ones join
    its per-tick queue, and the event drains the queue in FIFO send order.
    On the zero-jitter fast path (fixed latency, multi-topic device ticks)
    this halves-or-better the kernel events per sample without reordering
    any deliveries within a channel.  A message is delivered in place: the
    record :meth:`send` returns is the object handlers receive, and
    delivery stamps its ``delivered_at``.  The channel counts sends,
    deliveries and drops; the :mod:`repro.obs` bundle is its one record of
    shared ticks and latency, and a caller that needs each message's
    latency subscribes and reads ``delivered_at - sent_at``.
    Dispatch is one lookup per message in a table rebuilt on (un)subscribe:
    topic -> its handlers in subscription order (key None: all-topic ones).
    A handler's (un)subscribe mid-batch applies from the batch's next message.

    A config that demands randomness (jitter or loss) without an ``rng`` is
    rejected at construction time: silently degrading to a deterministic
    channel would invalidate any loss/jitter experiment built on it.

    :meth:`send` is :meth:`fate` (the delivery instant, or None for a
    drop) then :meth:`enqueue`.  A :attr:`deterministic` link (no jitter,
    loss, outage window, or outage armed against it by the fault injector,
    :attr:`outage_armed`) also accepts :meth:`send_at`, a send stamped with
    a later send time.
    """

    def __init__(
        self,
        simulator: Simulator,
        name: str,
        config: Optional[ChannelConfig] = None,
        rng=None,
    ) -> None:
        config = config or ChannelConfig()
        config.validate()
        if rng is None and (config.jitter_s > 0 or config.loss_probability > 0):
            raise ValueError(
                f"channel {name!r} is configured with randomness "
                f"(jitter_s={config.jitter_s}, loss_probability="
                f"{config.loss_probability}) but no rng was provided; "
                "pass rng= or zero the stochastic parameters"
            )
        self.simulator = simulator
        self.name = name
        self.config = config
        self._rng = rng
        self._subscribers: List[Tuple[Optional[str], Callable[[Message], None]]] = []
        self._dispatch: Mapping[Optional[str], Tuple[Callable[[Message], None], ...]] = _NO_HANDLERS
        self._sequence = itertools.count()
        self._outages: List[Tuple[float, float]] = []
        # Set when a channel_outage fault is planned against this link, so
        # it counts as non-deterministic before the outage window opens.
        self.outage_armed = False
        # reroute(channel, copies) sends again the send_at copies that
        # arm_outage takes back; whoever queues them (a device bus) sets it.
        self.reroute: Optional[Callable[["Channel", List[Message]], None]] = None
        self._deliver_name = f"channel:{name}:deliver"
        # Same-tick coalescing: delivery-time -> FIFO queue of in-flight
        # messages sharing one kernel event.  Keyed by exact float time, so
        # only bit-identical delivery times ever share an event; entries are
        # popped when their event fires (bounded by in-flight messages).
        self._pending: Dict[float, List[Message]] = {}
        # Hoisted once: scheduling the bound method directly (the kernel
        # fires it at exactly the pending key's time) avoids allocating a
        # closure per scheduled delivery tick on the hot send path.
        self._deliver_batch_cb = self._deliver_batch
        self._sent = 0
        self.delivered: int = 0
        self.dropped: int = 0
        # Registry-backed metrics; None unless repro.obs was enabled when
        # this channel was constructed.
        self._obs = channel_instruments()

    # ----------------------------------------------------------- subscription
    def subscribe(self, handler: Callable[[Message], None], topic: Optional[str] = None) -> None:
        """Register ``handler`` for every message (or only ``topic`` if given)."""
        self._subscribers.append((topic, handler))
        self._rebuild_dispatch()

    def unsubscribe(self, handler: Callable[[Message], None]) -> None:
        self._subscribers = [(t, h) for t, h in self._subscribers if h is not handler]
        self._rebuild_dispatch()

    def _rebuild_dispatch(self) -> None:
        subscribers = self._subscribers
        # dict.fromkeys, not a set: the order must not depend on hashing.
        self._dispatch = {key: tuple(h for t, h in subscribers if t is None or t == key)
                          for key in dict.fromkeys([None] + [t for t, _ in subscribers])}

    # ---------------------------------------------------------------- outages
    def add_outage(self, start: float, end: float) -> None:
        """Drop every message sent while ``start <= now < end`` (scripted fault).

        ``start`` must be finite; ``end`` may be infinite (the link never
        comes back).
        """
        if not math.isfinite(start):
            raise ValueError(f"outage start must be finite, got {start!r}")
        if not end > start:
            raise ValueError(f"outage end must be after start, got start={start!r}, end={end!r}")
        self._outages.append((start, end))

    def in_outage(self, time: float) -> bool:
        for start, end in self._outages:
            if start <= time < end:
                return True
        return False

    def arm_outage(self) -> None:
        """Mark a ``channel_outage`` planned against this link (:attr:`outage_armed`).

        Each copy :meth:`send_at` queued is settled now: one already sent
        takes its sequence number, ahead of any later send; one with a send
        time still to come goes back, uncounted, to :attr:`reroute`, to be
        sent again then (a batch left empty delivers nothing).
        """
        self.outage_armed = True
        now = self.simulator.now
        queued = [message for time in sorted(self._pending) for message in self._pending[time]]
        withdrawn = [message for message in queued if message.sent_at > now]
        for message in queued:
            if message.sequence < 0 and message.sent_at <= now:
                message.sequence = next(self._sequence)
        if withdrawn:
            for time, batch in self._pending.items():
                self._pending[time] = [message for message in batch if message.sent_at <= now]
            self._sent -= len(withdrawn)
            if self._obs is not None:
                self._obs.sent.value -= len(withdrawn)
            self.reroute(self, withdrawn)

    @property
    def deterministic(self) -> bool:
        """Whether every send's delivery time is fixed when it is sent.

        Read from the live config on each call, so a config mutated to
        jitter or loss stops qualifying at once.
        """
        config = self.config
        return (config.jitter_s == 0.0 and config.loss_probability == 0.0
                and not self._outages and not self.outage_armed)

    # ---------------------------------------------------------------- sending
    def send(self, sender: str, topic: str, payload: Any) -> Message:  # repro-lint: hot
        """Send a message; returns its record (``delivered_at`` set on delivery)."""
        message = Message(sender, topic, payload, self.simulator.now, next(self._sequence))
        delivery_time = self.fate()
        if delivery_time is not None:
            self.enqueue(delivery_time, message)
        return message

    def fate(self) -> Optional[float]:  # repro-lint: hot
        """Count one send now; returns its delivery instant, or None if dropped.

        The one place outages, loss and jitter apply.
        """
        now = self.simulator.now
        self._sent += 1
        # Inlined guards: the common case (no outages, loss or jitter) pays
        # no method call.  Loss is only sampled outside an outage window.
        config = self.config
        obs = self._obs
        if obs is not None:
            obs.sent.value += 1
        if self._outages and self.in_outage(now):
            self.dropped += 1
            if obs is not None:
                obs.outage_hits.value += 1
                obs.dropped.value += 1
            return None
        if config.loss_probability > 0.0 and self._require_rng().random() < config.loss_probability:
            self.dropped += 1
            if obs is not None:
                obs.dropped.value += 1
            return None

        latency = config.latency_s
        if config.jitter_s > 0.0:
            latency += self._require_rng().uniform(-config.jitter_s, config.jitter_s)
            if latency < 0.0:
                latency = 0.0
        return now + latency

    def send_at(  # repro-lint: hot
        self,
        sent_at: float,
        sender: str,
        topic: str,
        payload: Any,
        order: Tuple[float, int],
    ) -> Message:
        """Queue a message as if :meth:`send` were called at ``sent_at``.

        For :attr:`deterministic` links only, and ``sent_at >= now``: the
        message is stamped ``sent_at`` and joins the delivery batch at
        ``sent_at + latency_s``, the time a send at ``sent_at`` computes,
        in ``order`` (see :meth:`enqueue`).  It takes its sequence number
        when it is delivered (on a fixed-latency link, delivery order is
        send order), or when an outage is armed (:meth:`arm_outage`).
        """
        message = Message(sender, topic, payload, sent_at, -1, None, order)
        self._sent += 1
        obs = self._obs
        if obs is not None:
            obs.sent.value += 1
        self.enqueue(sent_at + self.config.latency_s, message)
        return message

    def enqueue(self, delivery_time: float, message: Message) -> None:  # repro-lint: hot
        """Queue ``message`` for delivery at ``delivery_time``.

        A message with an ``order`` key goes ahead of the trailing queued
        messages whose keys are greater than its own; any other message
        goes last.  A ``sequence`` of -1 is assigned at delivery.
        """
        batch = self._pending.get(delivery_time)
        if batch is None:
            self._pending[delivery_time] = [message]
            self.simulator.schedule_at(
                delivery_time,
                self._deliver_batch_cb,
                name=self._deliver_name,
            )
            return
        # Another message is already in flight for this exact instant:
        # ride its kernel event instead of scheduling a second one.
        order = message.order
        index = len(batch)
        while order is not None and index:
            ahead = batch[index - 1].order
            if ahead is None or ahead <= order:
                break
            index -= 1
        batch.insert(index, message)

    def queued_after(self, time: float) -> int:
        """How many queued messages carry a send time later than ``time``."""
        return sum(message.sent_at > time
                   for batch in self._pending.values() for message in batch)

    def _require_rng(self):
        # The constructor rejects random configs without an rng; this trips
        # only on a config mutated after construction.
        rng = self._rng
        if rng is None:
            raise ValueError(
                f"channel {self.name!r} config now demands randomness "
                "(mutated after construction?) but the channel has no rng"
            )
        return rng

    def _deliver_batch(self) -> None:  # repro-lint: hot
        # `now` IS the batch key: the kernel fires this event at exactly that
        # float.  Pop before draining: a handler's zero-latency send for this
        # instant must get a fresh event, run after this one.
        now = self.simulator.now
        batch = self._pending.pop(now)
        obs = self._obs
        if obs is not None and len(batch) > 1:
            obs.coalesced_ticks.value += 1
            obs.max_batch.set_max(len(batch))
        sequence = self._sequence
        for message in batch:
            message.delivered_at = now
            if message.sequence < 0:
                message.sequence = next(sequence)
            self.delivered += 1
            if obs is not None:
                obs.delivered.value += 1
                obs.latency.observe(now - message.sent_at)
            # Read per message: an (un)subscribe applies from the next one on.
            dispatch = self._dispatch
            for handler in dispatch[message.topic if message.topic in dispatch else None]:
                handler(message)

    # ------------------------------------------------------------- statistics
    @property
    def sent(self) -> int:
        """Messages sent so far; a :meth:`send_at` counts from its send time."""
        return self._sent - self.queued_after(self.simulator.now)
