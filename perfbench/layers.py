"""Per-layer self time and exact work counters, measured from outside ``src``.

A :class:`Spans` table keeps a stack of open spans.  A layer's *self time*
is its span durations minus the part covered by child spans, so the self
times of all layers partition the time covered by top-level spans, and::

    sum(self_s.values()) + unattributed_s == wall

where ``unattributed_s`` is the time no span covered.  A call into a layer
whose family (the part of its name before the first ``.``) is already on
top of the stack opens no new span: the time stays with that layer.

:func:`install` wraps the public entry points of each layer of ``repro``
with spans and counters, and attaches a :class:`Dispatcher` to every
simulator through the public ``Simulator.attach_profiler`` hook, so every
kernel event is timed and counted under the layer that owns it (split by
``repro.obs.profiler.owner_of``).  Nothing in ``src`` changes; the patches
live only in the process that calls :func:`install`.
"""

from __future__ import annotations

import functools
import sys
from time import perf_counter
from typing import Any, Callable, Dict, List, Tuple

#: Module prefix -> layer, first match wins.  Anything unmatched belongs to
#: the scenario: system wiring, alarms, caregivers, faults and security.
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim.kernel", "kernel"),
    ("repro.sim.channel", "channel"),
    ("repro.middleware.bus", "bus"),
    ("repro.middleware.supervisor_host", "supervisor"),
    ("repro.core.pca", "supervisor"),
    ("repro.devices", "devices"),
    ("repro.patient", "patient"),
    ("repro.sim.sampler", "trace"),
    ("repro.sim.trace", "trace"),
)

#: Dispatch layer -> the ``kernel.events.<kind>`` counter it feeds.
EVENT_KINDS = {"channel": "channel", "bus": "bus", "devices": "device",
               "patient": "patient", "supervisor": "supervisor"}


def layer_of_module(module: str) -> str:
    for prefix, layer in MODULE_LAYERS:
        if module == prefix or module.startswith(prefix + "."):
            return layer
    return "scenario"


class Spans:
    """Nested-span self-time accounting with exact counters.

    ``clock`` is injectable so the arithmetic can be tested with a fake
    clock.  Frames are ``[layer, family, start, child_s]`` lists.
    """

    def __init__(self, clock: Callable[[], float] = perf_counter) -> None:
        self.clock = clock
        self.self_s: Dict[str, float] = {}
        self.counts: Dict[str, int] = {}
        self.covered_s = 0.0
        self.stack: List[list] = []

    def reset(self) -> None:
        self.self_s.clear()
        self.counts.clear()
        self.covered_s = 0.0
        del self.stack[:]

    def enter(self, layer: str) -> list:
        frame = [layer, layer.split(".", 1)[0], self.clock(), 0.0]
        self.stack.append(frame)
        return frame

    def exit(self, frame: list) -> float:
        """Close ``frame`` (the innermost open span); returns its duration."""
        duration = self.clock() - frame[2]
        popped = self.stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[0]!r} closed out of order")
        self.self_s[frame[0]] = self.self_s.get(frame[0], 0.0) + duration - frame[3]
        if self.stack:
            self.stack[-1][3] += duration
        else:
            self.covered_s += duration
        return duration

    def call(self, layer: str, fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span of ``layer`` (absorbed by its own family)."""
        stack = self.stack
        if stack and stack[-1][1] == layer.split(".", 1)[0]:
            return fn(*args, **kwargs)
        frame = self.enter(layer)
        try:
            return fn(*args, **kwargs)
        finally:
            self.exit(frame)

    def unattributed_s(self, wall_s: float) -> float:
        return wall_s - self.covered_s


def traced(spans: Spans, layer: str, fn: Callable[..., Any], counter: str = "") -> Callable[..., Any]:
    """``fn`` wrapped in a span of ``layer``; ``counter`` counts every call.

    This is :meth:`Spans.call` inlined: it runs on the simulation's hottest
    paths, so it pays two clock reads and no extra Python call per span.
    """
    family = layer.split(".", 1)[0]
    stack = spans.stack
    clock = spans.clock
    self_s = spans.self_s
    counts = spans.counts

    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        if counter:
            counts[counter] = counts.get(counter, 0) + 1
        if stack and stack[-1][1] == family:
            return fn(*args, **kwargs)
        frame = [layer, family, clock(), 0.0]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            duration = clock() - frame[2]
            stack.pop()
            self_s[layer] = self_s.get(layer, 0.0) + duration - frame[3]
            if stack:
                stack[-1][3] += duration
            else:
                spans.covered_s += duration

    return wrapper


def handler_layer(handler: Callable[..., Any]) -> str:
    """The layer that owns a subscription handler, from where it was defined."""
    function = getattr(handler, "__func__", handler)
    return layer_of_module(getattr(function, "__module__", "") or "")


class Dispatcher:
    """Profiler-protocol object: times and counts every kernel event.

    ``Simulator.run`` calls ``dispatch(event)`` in place of the bare
    callback once this object is attached.  The event's layer comes from
    ``owner_of(event.name)``: ``channel:*`` and ``bus`` owners directly,
    registered process names through the class of the process, and any
    other owner through the module that defined the callback.
    """

    def __init__(self, spans: Spans) -> None:
        from repro.obs.profiler import owner_of

        self.spans = spans
        self.owner_of = owner_of
        self.process_layers: Dict[str, str] = {}
        self._by_name: Dict[str, Tuple[str, str]] = {}

    def note_process(self, process: Any) -> None:
        owner = self.owner_of(process.name)
        self.process_layers.setdefault(owner, layer_of_module(type(process).__module__))

    def classify(self, event: Any) -> Tuple[str, str]:
        owner = self.owner_of(event.name)
        if owner.startswith("channel:"):
            layer = "channel"
        elif owner == "bus":
            layer = "bus"
        else:
            layer = self.process_layers.get(owner) or handler_layer(event.callback)
        return layer, "kernel.events." + EVENT_KINDS.get(layer, "other")

    def dispatch(self, event: Any) -> None:
        entry = self._by_name.get(event.name)
        if entry is None:
            entry = self._by_name[event.name] = self.classify(event)
        layer, counter = entry
        spans = self.spans
        counts = spans.counts
        counts[counter] = counts.get(counter, 0) + 1
        if layer == "channel":
            counts["channel.delivery_events"] = counts.get("channel.delivery_events", 0) + 1
        stack = spans.stack
        clock = spans.clock
        frame = [layer, layer, clock(), 0.0]
        stack.append(frame)
        try:
            event.callback()
        finally:
            duration = clock() - frame[2]
            stack.pop()
            spans.self_s[layer] = spans.self_s.get(layer, 0.0) + duration - frame[3]
            stack[-1][3] += duration  # dispatch always runs inside Simulator.run


def _patch(owner: Any, name: str, layer: str, spans: Spans, counter: str = "") -> None:
    setattr(owner, name, traced(spans, layer, owner.__dict__[name], counter))


def _patch_function(module_name: str, name: str, layer: str, spans: Spans) -> None:
    """Wrap a module-level function, also where other modules imported it."""
    original = getattr(sys.modules[module_name], name)
    wrapper = traced(spans, layer, original)
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("repro") and getattr(module, name, None) is original:
            setattr(module, name, wrapper)


def _public_methods(cls: type) -> List[str]:
    return [name for name, value in vars(cls).items()
            if not name.startswith("_") and callable(value) and not isinstance(value, (staticmethod, classmethod))]


def _subclasses(cls: type) -> List[type]:
    """``cls`` and all its subclasses, each once (so none is wrapped twice)."""
    found = [cls]
    for klass in found:
        found.extend(sub for sub in klass.__subclasses__() if sub not in found)
    return found


def install(spans: Spans) -> Dispatcher:
    """Wrap every measured layer of ``repro`` in this process.

    Call once, after ``repro.obs.enable()`` and before any simulator is
    built.  Imports every scenario so the supervisor app subclasses exist.
    """
    from repro.campaign import aggregate, engine, spec, store
    from repro.campaign.registry import ensure_builtin_scenarios
    from repro.devices.base import MedicalDevice
    from repro.middleware import bus, supervisor_host
    from repro.patient.model import PatientModel
    from repro.sim import channel, kernel, sampler, trace

    ensure_builtin_scenarios()
    # The PCA runner imports its system lazily; import it now so that its
    # supervisor app class exists when the subclasses are wrapped below.
    import repro.core.loop  # noqa: F401

    dispatcher = Dispatcher(spans)
    simulator = kernel.Simulator

    run = simulator.__dict__["run"]

    def run_with_dispatcher(self: Any, *args: Any, **kwargs: Any) -> Any:
        self.attach_profiler(dispatcher)
        return run(self, *args, **kwargs)

    simulator.run = traced(spans, "kernel", run_with_dispatcher)
    _patch(simulator, "schedule", "kernel", spans)
    _patch(simulator, "schedule_at", "kernel", spans)
    register = simulator.__dict__["register"]

    def register_noting_layer(self: Any, process: Any) -> None:
        dispatcher.note_process(process)
        register(self, process)

    simulator.register = register_noting_layer

    _patch(channel.Channel, "send", "channel", spans)
    subscribe = channel.Channel.__dict__["subscribe"]

    def channel_subscribe(self: Any, handler: Callable[..., Any], topic: Any = None) -> None:
        subscribe(self, traced(spans, handler_layer(handler), handler), topic)

    channel.Channel.subscribe = channel_subscribe

    _patch(bus.DeviceBus, "publish", "bus", spans)
    _patch(bus.DeviceBus, "send_command", "bus", spans)
    bus_subscribe = bus.DeviceBus.__dict__["subscribe"]

    def device_bus_subscribe(self: Any, endpoint_id: str, topic: str, handler: Callable[..., Any]) -> None:
        bus_subscribe(self, endpoint_id, topic, traced(spans, handler_layer(handler), handler))

    bus.DeviceBus.subscribe = device_bus_subscribe

    _patch(supervisor_host.SupervisorHost, "send_command", "supervisor", spans)
    for app in _subclasses(supervisor_host.SupervisorApp):
        if "on_data" in vars(app):
            _patch(app, "on_data", "supervisor", spans, "supervisor.deliveries")
        if "step" in vars(app):
            _patch(app, "step", "supervisor", spans, "supervisor.steps")

    _patch(MedicalDevice, "publish_reading", "devices", spans, "devices.readings")
    _patch(MedicalDevice, "handle_command", "devices", spans)
    _patch(PatientModel, "advance_by", "patient", spans, "patient.advances")
    _patch(PatientModel, "infuse_bolus", "patient", spans)

    _patch(sampler.SignalBatch, "append", "trace", spans)
    for name in ("record", "flush"):
        _patch(sampler.BatchedTraceWriter, name, "trace", spans)
    for name in _public_methods(trace.TraceRecorder):
        _patch(trace.TraceRecorder, name, "trace", spans)

    _patch_function("repro.topology.expand", "expand_topology", "topology.expand", spans)
    for name in ("generate_fault_plan", "generate_attack_plan", "security_for_posture"):
        _patch_function("repro.topology.generators", name, "topology.expand", spans)
    _patch_function("repro.topology.expand", "build_hospital", "topology.build", spans)

    _patch(spec.CampaignSpec, "expand", "spec.expand", spans)
    _patch(spec.CampaignSpec, "validate", "spec.expand", spans)
    _patch(engine.CampaignEngine, "run", "engine", spans)
    for name in _public_methods(store.ResultStore):
        _patch(store.ResultStore, name, "store.merge" if name == "merge" else "store", spans,
               "store.appends" if name == "append" else "")
    _patch(aggregate.StreamingAggregator, "add", "aggregate", spans, "aggregate.records")
    for name in ("consume", "merge", "table"):
        _patch(aggregate.StreamingAggregator, name, "aggregate", spans)
    return dispatcher
