"""Tests for network channels (latency, loss, outages, counts)."""

import numpy as np
import pytest

from repro.sim.channel import Channel, ChannelConfig
from repro.sim.kernel import Simulator


@pytest.fixture
def sim():
    return Simulator()


def make_channel(sim, **kwargs):
    rng = kwargs.pop("rng", None)
    return Channel(sim, "test-channel", ChannelConfig(**kwargs), rng=rng)


class _EventNames:
    """Profiler hook that records the name of every fired kernel event."""

    def __init__(self):
        self.names = []

    def dispatch(self, event):
        self.names.append(event.name)
        event.callback()


class TestConfigValidation:
    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(latency_s=-0.1).validate()

    def test_negative_jitter_rejected(self):
        with pytest.raises(ValueError):
            ChannelConfig(jitter_s=-0.1).validate()

    def test_loss_probability_bounds(self):
        with pytest.raises(ValueError):
            ChannelConfig(loss_probability=1.5).validate()

    def test_valid_config_passes(self):
        ChannelConfig(latency_s=0.1, jitter_s=0.01, loss_probability=0.05).validate()

    @pytest.mark.parametrize("field, value", [
        ("latency_s", float("nan")),
        ("latency_s", float("inf")),
        ("jitter_s", float("nan")),
        ("jitter_s", float("inf")),
        ("loss_probability", float("nan")),
    ])
    def test_non_finite_value_rejected_naming_the_field(self, field, value):
        with pytest.raises(ValueError, match=field):
            ChannelConfig(**{field: value}).validate()

    def test_nan_jitter_cannot_build_an_rng_free_channel(self, sim):
        # NaN > 0 is False, so a NaN jitter used to pass validation and the
        # rng check, and the channel silently ran as a deterministic link.
        with pytest.raises(ValueError, match="jitter_s"):
            make_channel(sim, jitter_s=float("nan"))


class TestDelivery:
    def test_message_delivered_after_latency(self, sim):
        channel = make_channel(sim, latency_s=0.5)
        received = []
        channel.subscribe(lambda message: received.append(message))
        channel.send("a", "topic", {"x": 1})
        sim.run()
        assert len(received) == 1
        assert received[0].delivered_at == pytest.approx(0.5)
        assert received[0].delivered_at - received[0].sent_at == pytest.approx(0.5)

    def test_payload_preserved(self, sim):
        channel = make_channel(sim)
        received = []
        channel.subscribe(lambda message: received.append(message.payload))
        channel.send("a", "topic", {"value": 42})
        sim.run()
        assert received == [{"value": 42}]

    def test_topic_filtered_subscription(self, sim):
        channel = make_channel(sim)
        spo2, all_messages = [], []
        channel.subscribe(lambda m: spo2.append(m), topic="spo2")
        channel.subscribe(lambda m: all_messages.append(m))
        channel.send("ox", "spo2", 97)
        channel.send("ox", "heart_rate", 70)
        sim.run()
        assert len(spo2) == 1
        assert len(all_messages) == 2

    def test_unsubscribe(self, sim):
        channel = make_channel(sim)
        received = []
        handler = lambda m: received.append(m)  # noqa: E731
        channel.subscribe(handler)
        channel.unsubscribe(handler)
        channel.send("a", "t", 1)
        sim.run()
        assert received == []

    def test_sequence_numbers_increase(self, sim):
        channel = make_channel(sim)
        m1 = channel.send("a", "t", 1)
        m2 = channel.send("a", "t", 2)
        assert m2.sequence > m1.sequence

    def test_delivery_counts(self, sim):
        channel = make_channel(sim, latency_s=0.1)
        latencies = []
        channel.subscribe(lambda m: latencies.append(m.delivered_at - m.sent_at))
        for _ in range(5):
            channel.send("a", "t", 0)
        sim.run()
        assert channel.sent == 5
        assert channel.delivered == 5
        assert channel.dropped == 0
        assert latencies == pytest.approx([0.1] * 5)


    def test_send_at_queues_by_order_and_numbers_at_delivery(self, sim):
        channel = make_channel(sim, latency_s=0.1)
        received = []
        channel.subscribe(lambda m: received.append((m.payload, m.sequence, m.sent_at)))
        sent = channel.send("a", "t", "sent")
        for payload, order in (("b1", (1.0, 1)), ("a", (1.0, 0)), ("b2", (1.0, 1))):
            channel.send_at(0.0, "a", "t", payload, order)
        # Queued copies wait for a sequence number, and never overtake a
        # message queued by send(), which has no order key.
        assert sent.sequence == 0
        assert channel.sent == 4
        sim.run()
        assert received == [("sent", 0, 0.0), ("a", 1, 0.0), ("b1", 2, 0.0), ("b2", 3, 0.0)]

    def test_fate_is_send_without_the_delivery(self, sim):
        channel = make_channel(sim, latency_s=0.1)
        channel.add_outage(1.0, 2.0)
        assert channel.fate() == pytest.approx(0.1)
        received = []
        sim.schedule_at(1.5, lambda: received.append(channel.fate()))
        sim.run()
        assert received == [None]
        assert (channel.sent, channel.dropped, channel.delivered) == (2, 1, 0)


class TestArmOutage:
    """Arming an outage settles the copies send_at queued on a deterministic link."""

    def test_sent_copies_take_their_numbers_and_later_ones_go_back(self, sim):
        channel = make_channel(sim, latency_s=0.1)
        received, rerouted = [], []
        channel.subscribe(lambda m: received.append((m.payload, m.sequence)))
        channel.reroute = lambda link, copies: rerouted.append((link, copies))
        for payload, sent_at in (("a", 0.0), ("later", 0.5), ("b", 0.0)):
            channel.send_at(sent_at, "x", "t", payload, (sent_at, 0))
        assert channel.sent == 2
        channel.arm_outage()
        assert channel.outage_armed and not channel.deterministic
        # "later" is not sent yet: it goes back uncounted, for its sender
        # to send again at 0.5.
        [(link, copies)] = rerouted
        assert link is channel
        assert [(m.payload, m.sent_at, m.sequence) for m in copies] == [("later", 0.5, -1)]
        assert channel.sent == 2
        channel.send("x", "t", "after")
        sim.run()
        # The copies already sent keep their numbers ahead of a later send.
        assert received == [("a", 0), ("b", 1), ("after", 2)]
        assert (channel.sent, channel.delivered, channel.dropped) == (3, 3, 0)

    def test_nothing_queued_hands_nothing_back(self, sim):
        channel = make_channel(sim, latency_s=0.1)
        rerouted = []
        channel.reroute = lambda link, copies: rerouted.append(copies)
        channel.send("x", "t", 1)
        channel.arm_outage()
        sim.run()
        assert rerouted == []
        assert (channel.sent, channel.delivered, channel.dropped) == (1, 1, 0)


class TestDispatch:
    """Which handlers a delivered message reaches, and in what order."""

    def _recorder(self, calls, label):
        return lambda message: calls.append((label, message.payload))

    def test_all_topic_and_per_topic_handlers_run_in_subscription_order(self, sim):
        channel = make_channel(sim)
        calls = []
        channel.subscribe(self._recorder(calls, "all-1"))
        channel.subscribe(self._recorder(calls, "spo2-1"), topic="spo2")
        channel.subscribe(self._recorder(calls, "hr"), topic="hr")
        channel.subscribe(self._recorder(calls, "all-2"), topic=None)
        channel.subscribe(self._recorder(calls, "spo2-2"), topic="spo2")
        for topic in ("spo2", "hr", "rr"):
            channel.send("ox", topic, topic)
        sim.run()
        assert calls == [
            ("all-1", "spo2"), ("spo2-1", "spo2"), ("all-2", "spo2"), ("spo2-2", "spo2"),
            ("all-1", "hr"), ("hr", "hr"), ("all-2", "hr"),
            ("all-1", "rr"), ("all-2", "rr"),
        ]

    def test_a_handler_subscribed_twice_runs_twice(self, sim):
        channel = make_channel(sim)
        calls = []
        handler = self._recorder(calls, "h")
        channel.subscribe(handler, topic="spo2")
        channel.subscribe(handler)
        channel.send("ox", "spo2", 1)
        channel.send("ox", "hr", 2)
        sim.run()
        assert calls == [("h", 1), ("h", 1), ("h", 2)]
        channel.unsubscribe(handler)
        channel.send("ox", "spo2", 3)
        sim.run()
        assert calls == [("h", 1), ("h", 1), ("h", 2)]

    def test_subscribing_mid_batch_reaches_the_next_message_on(self, sim):
        channel = make_channel(sim, latency_s=0.5)
        calls = []
        late_all = self._recorder(calls, "late-all")
        late_spo2 = self._recorder(calls, "late-spo2")

        def first(message):
            calls.append(("first", message.payload))
            if message.payload == 1:
                channel.subscribe(late_all)
                channel.subscribe(late_spo2, topic="spo2")

        channel.subscribe(first)
        for payload in (1, 2, 3):
            channel.send("ox", "spo2", payload)
        names = _EventNames()
        sim.attach_profiler(names)
        sim.run()
        assert names.names == ["channel:test-channel:deliver"]  # one batch of three
        assert calls == [
            ("first", 1),
            ("first", 2), ("late-all", 2), ("late-spo2", 2),
            ("first", 3), ("late-all", 3), ("late-spo2", 3),
        ]

    def test_unsubscribing_mid_batch_stops_at_the_next_message(self, sim):
        channel = make_channel(sim, latency_s=0.5)
        calls = []
        later = self._recorder(calls, "later")

        def first(message):
            calls.append(("first", message.payload))
            if message.payload == 1:
                channel.unsubscribe(later)
            if message.payload == 2:
                channel.unsubscribe(first)

        channel.subscribe(first, topic="spo2")
        channel.subscribe(later, topic="spo2")
        for payload in (1, 2, 3):
            channel.send("ox", "spo2", payload)
        names = _EventNames()
        sim.attach_profiler(names)
        sim.run()
        assert names.names == ["channel:test-channel:deliver"]  # one batch of three
        # The message being delivered still reaches every handler it started with.
        assert calls == [("first", 1), ("later", 1), ("first", 2)]


class TestLossAndOutages:
    def test_full_loss_drops_everything(self, sim):
        channel = make_channel(sim, loss_probability=1.0, rng=np.random.default_rng(0))
        received = []
        channel.subscribe(lambda m: received.append(m))
        for _ in range(10):
            channel.send("a", "t", 0)
        sim.run()
        assert received == []
        assert channel.dropped == 10
        assert channel.dropped / channel.sent == 1.0

    def test_partial_loss_rate_roughly_matches(self, sim):
        channel = make_channel(sim, loss_probability=0.3, rng=np.random.default_rng(1))
        for _ in range(500):
            channel.send("a", "t", 0)
        sim.run()
        assert channel.sent == 500
        assert 0.2 < channel.dropped / channel.sent < 0.4

    def test_lossy_config_without_rng_rejected(self, sim):
        # Silently disabling configured loss would invalidate the experiment;
        # the channel refuses to be built in that state.
        with pytest.raises(ValueError, match="rng"):
            make_channel(sim, loss_probability=0.9)

    def test_outage_drops_messages_in_window(self, sim):
        channel = make_channel(sim)
        received = []
        channel.subscribe(lambda m: received.append(m))
        channel.add_outage(1.0, 2.0)
        sim.schedule(0.5, lambda: channel.send("a", "t", "before"))
        sim.schedule(1.5, lambda: channel.send("a", "t", "during"))
        sim.schedule(2.5, lambda: channel.send("a", "t", "after"))
        sim.run()
        assert [m.payload for m in received] == ["before", "after"]

    def test_invalid_outage_rejected(self, sim):
        channel = make_channel(sim)
        with pytest.raises(ValueError):
            channel.add_outage(2.0, 1.0)

    def test_in_outage_query(self, sim):
        channel = make_channel(sim)
        channel.add_outage(1.0, 2.0)
        assert channel.in_outage(1.5)
        assert not channel.in_outage(2.5)


class TestJitter:
    def test_jitter_varies_latency(self, sim):
        channel = Channel(sim, "jitter-channel",
                          ChannelConfig(latency_s=0.5, jitter_s=0.2),
                          rng=np.random.default_rng(2))
        latencies = []
        channel.subscribe(lambda m: latencies.append(m.delivered_at - m.sent_at))
        for _ in range(50):
            channel.send("a", "t", 0)
        sim.run()
        assert len(latencies) == 50
        assert min(latencies) >= 0.3 - 1e-9
        assert max(latencies) <= 0.7 + 1e-9
        assert max(latencies) - min(latencies) > 0.05
