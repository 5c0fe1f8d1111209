"""Shared deterministic workloads for golden-trace regression tests.

These workloads pin the kernel's determinism contract across rewrites: the
digests they produce were captured on the seed kernel (``tests/data/
golden_traces.json``) and every future kernel must reproduce them exactly —
same ``(time, priority, sequence)`` execution order, same ``pending()`` /
``peek()`` observations, same scenario result bytes.

Each golden campaign also pins its exact work counters (``work_counters``):
kernel events per owner, the heap peak, channel traffic per hop, bus
traffic and trace samples.  They are box-independent, so extra work fails
the goldens even when it changes no result byte and no wall-clock gate
would notice it.

The workloads use only public API, so they never need to change when
kernel internals do; the counter capture patches two methods for the
duration of one run and puts them back.
"""

from __future__ import annotations

import hashlib
import json
import random
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Dict, Iterator, Tuple

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_traces.json"

#: Small-but-complete campaign specs for all five registered scenarios.
SCENARIO_SPECS: Dict[str, Dict[str, Any]] = {
    "pca": dict(
        name="golden-pca",
        scenario="pca",
        parameters={"mode": ["open_loop", "closed_loop"], "duration_s": 600.0},
        cohort_size=2,
        base_seed=123,
    ),
    "xray_vent": dict(
        name="golden-xray",
        scenario="xray_vent",
        parameters={"mode": ["manual", "state_broadcast"], "image_requests": 3},
        base_seed=5,
    ),
    "bed_map": dict(
        name="golden-bed-map",
        scenario="bed_map",
        parameters={"use_context_awareness": [True, False],
                    "duration_s": 3600.0, "bed_moves": 2},
        base_seed=5,
    ),
    "proton": dict(
        name="golden-proton",
        scenario="proton",
        parameters={"rooms": [2], "fractions_per_room": 2, "duration_s": 1200.0},
        base_seed=5,
    ),
    "home": dict(
        name="golden-home",
        scenario="home",
        parameters={"mode": ["store_and_forward", "real_time"],
                    "duration_s": 7200.0, "sample_period_s": 120.0},
        base_seed=5,
    ),
    # The paper's Section II(c) communication-failure experiment in
    # miniature: a declarative outage sweep on the oximeter uplink.  Pins
    # the fault-injection pipeline end to end (faults block -> fault_plan
    # param -> FaultInjector schedule -> scenario outcome bytes).
    "pca_faulted": dict(
        name="golden-pca-faulted",
        scenario="pca",
        parameters={"mode": "closed_loop", "duration_s": 600.0},
        faults=[{"kind": "channel_outage", "start": 120.0,
                 "duration": [60.0, 180.0], "target": "uplink:pulse-ox-1"}],
        base_seed=123,
    ),
    # The topology-driven hospital ward: pins the whole generated-scenario
    # stack (TopologySpec expansion, fault/attack plan generation, posture
    # policies, the wired ward runtime) as campaign result bytes across two
    # security postures on the default 6-bed topology.
    "ward": dict(
        name="golden-ward",
        scenario="ward",
        parameters={"security_posture": ["open", "allowlisted"],
                    "duration_s": 300.0},
        base_seed=7,
    ),
}


def _digest(payload: Any) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def kernel_workload() -> Dict[str, Any]:
    """A synthetic workload covering every ordering-sensitive kernel path.

    Mixes time collisions, priorities, cancellations (before execution, of
    periodic tasks, and of decoys observed through ``peek``), nested
    scheduling from callbacks, and segmented execution via ``run(until=)``,
    ``step()``, and ``run(max_events=)``.  Each executed event appends
    ``(now, name, pending, peek)`` to a log; the digest of that log *is*
    the determinism contract.
    """
    from repro.sim.kernel import Simulator

    rng = random.Random(20260729)
    sim = Simulator()
    log = []

    def note(name: str) -> None:
        peek = sim.peek()
        log.append((sim.now, name, sim.pending(), peek))

    # Colliding times with mixed priorities; every fourth event is cancelled.
    decoys = []
    for i in range(400):
        time = rng.randrange(0, 50) * 0.25
        priority = rng.choice([-2, -1, 0, 0, 1, 3])
        event = sim.schedule_at(time, (lambda i=i: note(f"grid-{i}")),
                                priority=priority, name=f"grid-{i}")
        if i % 4 == 0:
            decoys.append(event)
    for event in decoys:
        event.cancel()
        event.cancel()  # double-cancel must be a no-op

    # Nested scheduling: callbacks that schedule (and sometimes cancel) more.
    def spawner(depth: int):
        def callback() -> None:
            note(f"spawn-{depth}")
            if depth > 0:
                sim.schedule(0.5, spawner(depth - 1), name=f"spawn-{depth - 1}")
                victim = sim.schedule(0.25, lambda: note("never"), name="victim")
                victim.cancel()
        return callback

    sim.schedule(1.0, spawner(6), name="spawn-6")

    # Periodic tasks, one cancelled mid-run and one self-cancelling.
    tick_task = sim.call_every(0.75, lambda: note("tick"), name="tick")
    limited_ticks = []

    def limited() -> None:
        note("limited")
        limited_ticks.append(sim.now)
        if len(limited_ticks) == 5:
            limited_task.cancel()

    limited_task = sim.call_every(1.25, limited, name="limited")
    sim.schedule(6.0, tick_task.cancel, name="cancel-tick")

    # Segmented execution: until-bound, single steps, max_events, then drain.
    sim.run(until=3.0)
    note("after-until")
    sim.step()
    sim.step()
    note("after-steps")
    sim.run(max_events=sim.event_count + 100)
    note("after-max-events")
    sim.run(until=40.0)
    note("drained")

    return {
        "digest": _digest(log),
        "event_count": sim.event_count,
        "final_now": sim.now,
        "log_length": len(log),
    }


def bus_workload() -> Dict[str, Any]:
    """A multi-subscriber, multi-topic bus workload pinning delivery order.

    Several devices publish on overlapping topics to six endpoints whose id
    strings hash differently under different ``PYTHONHASHSEED`` values, one
    endpoint subscribes to the same topic twice (the dedup path), and
    commands are sent mid-run (which must not produce phantom forwards).
    The digest of the delivery log *is* the messaging determinism contract:
    it must be identical under every hash seed, which CI enforces by running
    the suite under two pinned seeds.
    """
    from repro.devices.base import DeviceDescriptor, DeviceState, MedicalDevice
    from repro.middleware.bus import BusConfig, DeviceBus
    from repro.sim.channel import ChannelConfig
    from repro.sim.kernel import Simulator

    class _GoldenSensor(MedicalDevice):
        def __init__(self, device_id, topics, period):
            super().__init__(DeviceDescriptor(
                device_id=device_id,
                device_type="golden_sensor",
                published_topics=tuple(topics),
                accepted_commands=("ping",),
            ))
            self._topics = topics
            self._period = period
            self.pings = 0
            self.register_command("ping", self._on_ping)

        def _on_ping(self, _parameters):
            self.pings += 1
            return True

        def start(self):
            self.transition(DeviceState.RUNNING)
            self.sample_every(self._period, self._tick)

        def _tick(self):
            for topic in self._topics:
                self.publish_reading(topic, self.now)

    sim = Simulator()
    bus = DeviceBus(sim, BusConfig(
        uplink=ChannelConfig(latency_s=0.013),
        downlink=ChannelConfig(latency_s=0.017),
        processing_delay_s=0.003,
    ))
    devices = [
        _GoldenSensor("dev-a", ("vitals", "status"), 0.5),
        _GoldenSensor("dev-b", ("vitals",), 0.7),
        _GoldenSensor("dev-c", ("status",), 1.1),
    ]
    for device in devices:
        bus.attach_device(device)
        sim.register(device)

    log = []
    endpoints = ["alpha", "omega-9", "Z", "aa", "ba", "ab"]
    for endpoint in endpoints:
        for topic in ("vitals", "status"):
            bus.subscribe(
                endpoint, topic,
                lambda t, p, m, e=endpoint: log.append(
                    (round(sim.now, 9), e, t, p.value, m.sequence)),
            )
    # Same endpoint, same topic, second handler: exercises endpoint dedup.
    bus.subscribe("alpha", "vitals",
                  lambda t, p, m: log.append((round(sim.now, 9), "alpha#2", t,
                                              p.value, m.sequence)))
    sim.schedule(1.0, lambda: bus.send_command("supervisor", "dev-a", "ping", {"n": 1}))
    sim.schedule(2.0, lambda: bus.send_command("supervisor", "dev-b", "ping"))
    sim.run(until=5.0)

    return {
        "digest": _digest(log),
        "deliveries": len(log),
        "published": bus.published_count,
        "forwarded": bus.forwarded_count,
        "event_count": sim.event_count,
        "pings": [device.pings for device in devices],
    }


def pca_system_probe() -> Dict[str, Any]:
    """One direct closed-loop PCA run: event count + full trace digest."""
    from repro.core.loop import ClosedLoopPCASystem, PCASystemConfig

    config = PCASystemConfig(mode="closed_loop", duration_s=1800.0, seed=424242)
    system = ClosedLoopPCASystem(config)
    result = system.run()
    return {
        "event_count": system.simulator.event_count,
        "trace_digest": _digest(system.trace.to_dict()),
        "record_digest": _digest(result.as_record()),
    }


def campaign_results_digest(scenario_key: str, directory) -> str:
    """Finalized ``results.jsonl`` byte digest for one golden campaign."""
    from repro.campaign import CampaignSpec, run_campaign

    spec = CampaignSpec(**SCENARIO_SPECS[scenario_key])
    run_campaign(spec, workers=1, directory=directory)
    data = (Path(directory) / "results.jsonl").read_bytes()
    return hashlib.sha256(data).hexdigest()


class _OwnerCounts:
    """Profiler-protocol dispatcher: counts each kernel event under its owner.

    The owner is ``repro.obs.profiler.owner_of(event.name)``, except that
    channel owners are grouped by hop (``channel:uplink``), so a counter
    does not depend on how many devices a scenario wires.
    """

    def __init__(self) -> None:
        self.counts: Dict[str, int] = {}
        self._owners: Dict[str, str] = {}

    @staticmethod
    def owner(name: str) -> str:
        from repro.obs.profiler import owner_of

        owner = owner_of(name)
        if owner.startswith("channel:"):
            return "channel:" + owner[len("channel:"):].split(":", 1)[0]
        return owner

    def dispatch(self, event) -> None:
        owner = self._owners.get(event.name)
        if owner is None:
            owner = self._owners[event.name] = self.owner(event.name)
        self.counts[owner] = self.counts.get(owner, 0) + 1
        event.callback()


@contextmanager
def counting_work() -> Iterator[Dict[str, Any]]:
    """Count the work of every simulator run inside the ``with`` block.

    Yields a dict that is filled in when the block exits without raising.
    For the duration of the block, observability is on and feeds a fresh
    ``repro.obs`` registry and span tracer, every ``Simulator.run`` attaches
    an owner-counting dispatcher, and every new ``Channel`` counts its
    traffic under its hop (the part of its name before the first ``:``).
    The switch, the default registry and tracer, ``Simulator.run`` and
    ``Channel.__init__`` are restored on exit, raise or not, so code
    outside the block runs exactly as uninstrumented as before.
    """
    from repro.obs import metrics, spans
    from repro.sim.channel import Channel
    from repro.sim.kernel import Simulator

    dispatcher = _OwnerCounts()
    hops: Dict[str, Any] = {}
    run = Simulator.__dict__["run"]
    init = Channel.__dict__["__init__"]

    def run_counted(self, *args, **kwargs):
        self.attach_profiler(dispatcher)
        return run(self, *args, **kwargs)

    def init_per_hop(self, simulator, name, *args, **kwargs):
        init(self, simulator, name, *args, **kwargs)
        hop = name.split(":", 1)[0]
        if hop not in hops:
            hops[hop] = metrics.MetricsRegistry()
        self._obs = metrics.ChannelInstruments(hops[hop])

    was_enabled = metrics.enabled()
    saved_registry, saved_tracer = metrics._DEFAULT_REGISTRY, spans._DEFAULT_TRACER
    registry = metrics._DEFAULT_REGISTRY = metrics.MetricsRegistry()
    spans._DEFAULT_TRACER = spans.SpanTracer()
    metrics.enable()
    Simulator.run = run_counted
    Channel.__init__ = init_per_hop
    counters: Dict[str, Any] = {}
    try:
        yield counters

        def value(reg, name: str) -> int:
            metric = reg.get(name)
            return 0 if metric is None else int(metric.value)

        fired = value(registry, "kernel.events_fired")
        assert sum(dispatcher.counts.values()) == fired, "an event bypassed the dispatcher"
        counters.update({
            "kernel.events": dict(sorted(dispatcher.counts.items())),
            "kernel.heap_peak": value(registry, "kernel.heap_peak"),
            "channel": {hop: {field: value(hops[hop], f"channel.{field}")
                              for field in ("sent", "delivered", "dropped")}
                        for hop in sorted(hops)},
            "bus": {field: value(registry, f"bus.{field}")
                    for field in ("published", "forwarded", "commands")},
            "sampler.flushed_samples": value(registry, "sampler.flushed_samples"),
        })
    finally:
        Simulator.run = run
        Channel.__init__ = init
        metrics._DEFAULT_REGISTRY, spans._DEFAULT_TRACER = saved_registry, saved_tracer
        if not was_enabled:
            metrics.disable()


def campaign_capture(scenario_key: str, directory) -> Tuple[str, Dict[str, Any]]:
    """One golden campaign's ``results.jsonl`` digest and work counters, from one run."""
    with counting_work() as counters:
        digest = campaign_results_digest(scenario_key, directory)
    return digest, counters


def capture() -> Dict[str, Any]:
    """Compute the full golden payload (used by the capture script)."""
    import tempfile

    golden: Dict[str, Any] = {
        "kernel_workload": kernel_workload(),
        "bus_workload": bus_workload(),
        "pca_system": pca_system_probe(),
        "campaigns": {},
        "work_counters": {},
    }
    for key in SCENARIO_SPECS:
        with tempfile.TemporaryDirectory() as tmp:
            golden["campaigns"][key], golden["work_counters"][key] = campaign_capture(key, tmp)
    return golden


def _flatten(payload: Any, prefix: str = "") -> Dict[str, Any]:
    if isinstance(payload, dict):
        flat: Dict[str, Any] = {}
        for key, value in payload.items():
            flat.update(_flatten(value, f"{prefix}.{key}" if prefix else str(key)))
        return flat
    return {prefix: payload}


def verify() -> int:
    """Recompute every golden digest and report drift readably.

    Unlike the suite's bare ``assert workload() == golden``, this names each
    scenario/field that moved (the review artefact for an intentional
    regeneration) and exits 1 on any drift.  Used by the CI golden-drift job
    under both pinned PYTHONHASHSEED values.
    """
    committed = _flatten(json.loads(GOLDEN_PATH.read_text(encoding="utf-8")))
    current = _flatten(capture())
    drifted = sorted(
        {key for key in committed if committed.get(key) != current.get(key)}
        | (set(current) - set(committed))
    )
    for key in sorted(set(committed) | set(current)):
        if key in drifted:
            print(f"DRIFT {key}:")
            print(f"    committed: {committed.get(key, '<missing>')}")
            print(f"    current:   {current.get(key, '<missing>')}")
        else:
            print(f"ok    {key}")
    if drifted:
        print(f"\n{len(drifted)} golden value(s) drifted from {GOLDEN_PATH}.")
        print("If the semantic change is intentional, regenerate with "
              "`PYTHONPATH=src python tests/golden_workload.py` and justify "
              "it in CHANGES.md per the README determinism contract.")
        return 1
    print(f"\nall golden values match {GOLDEN_PATH}")
    return 0


if __name__ == "__main__":
    import sys

    if "--verify" in sys.argv[1:]:
        raise SystemExit(verify())
    GOLDEN_PATH.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(capture(), indent=2, sort_keys=True) + "\n",
                           encoding="utf-8")
    print(f"wrote {GOLDEN_PATH}")
