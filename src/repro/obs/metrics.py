"""Metrics registry: counters, gauges, and preallocated-bucket histograms.

Observability is **off by default** and must cost nothing measurable when
off.  The contract every instrumented layer follows:

* At construction time a component asks for its *instrument bundle*
  (:func:`kernel_instruments`, :func:`channel_instruments`, ...).  When
  observability is disabled the bundle is ``None``, so the only cost a hot
  path ever pays is one attribute load plus an ``is not None`` check.
* When enabled, bundles cache direct references to the registry's slotted
  metric objects, so the hot path increments ``counter.value`` without a
  dict lookup or method call.
* Metric values flow strictly *out* of the simulation: nothing in
  :mod:`repro.sim` or :mod:`repro.campaign` ever reads a metric back, so
  enabling observability cannot change simulation results (the golden
  digests pin this).

Enabling: set ``REPRO_OBS=1`` in the environment before import, or call
:func:`enable` before constructing simulators/channels.  Components cache
their bundle at construction, so flipping the switch only affects objects
built afterwards.
"""

from __future__ import annotations

import os
from bisect import bisect_left
from typing import Any, Dict, List, Optional, Sequence, Tuple, Union

_FALSY = ("", "0", "false", "off", "no")

_ENABLED = os.environ.get("REPRO_OBS", "").strip().lower() not in _FALSY


def enabled() -> bool:
    """Whether observability is currently on (for newly built components)."""
    return _ENABLED


def enable() -> None:
    """Turn observability on for components constructed from now on."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn observability off for components constructed from now on."""
    global _ENABLED
    _ENABLED = False


# --------------------------------------------------------------------- types
class Counter:
    """A monotonically increasing count.

    Hot paths cache the object and do ``counter.value += n`` directly; the
    :meth:`inc` method is the convenience spelling for cold paths.
    """

    __slots__ = ("name", "value")
    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value: Union[int, float] = 0

    def inc(self, amount: Union[int, float] = 1) -> None:
        self.value += amount

    def line(self) -> Dict[str, Any]:
        return {"type": "counter", "name": self.name, "value": self.value}

    def _reset(self) -> None:
        self.value = 0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Counter {self.name}={self.value}>"


class Gauge:
    """A point-in-time value with an explicit merge rule.

    ``agg`` names how per-shard values fold into one campaign-level value:
    ``"max"`` / ``"min"`` / ``"sum"`` are self-describing; ``"last"`` keeps
    the value from the last shard merged (shards are merged in sorted
    filename order, so the result is deterministic).
    """

    __slots__ = ("name", "value", "agg")
    kind = "gauge"
    AGGS = ("last", "max", "min", "sum")

    def __init__(self, name: str, agg: str = "last") -> None:
        if agg not in self.AGGS:
            raise ValueError(f"gauge agg must be one of {self.AGGS}, got {agg!r}")
        self.name = name
        self.agg = agg
        self.value: float = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def set_max(self, value: float) -> None:
        if value > self.value:
            self.value = value

    def line(self) -> Dict[str, Any]:
        return {"type": "gauge", "name": self.name, "value": self.value,
                "agg": self.agg}

    def _reset(self) -> None:
        self.value = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Gauge {self.name}={self.value} agg={self.agg}>"


class Histogram:
    """A fixed-bound histogram with preallocated buckets.

    ``bounds`` are upper-inclusive bucket edges (Prometheus ``le``
    semantics); one overflow bucket catches everything beyond the last
    bound.  ``observe`` is one bisect plus three attribute updates — cheap
    enough for per-delivery latency observation on the enabled path.
    """

    __slots__ = ("name", "bounds", "counts", "sum", "count")
    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        bounds = tuple(float(b) for b in bounds)
        if not bounds or any(b >= c for b, c in zip(bounds, bounds[1:])):
            raise ValueError(
                f"histogram bounds must be non-empty and strictly increasing, "
                f"got {bounds!r}"
            )
        self.name = name
        self.bounds: Tuple[float, ...] = bounds
        self.counts: List[int] = [0] * (len(bounds) + 1)
        self.sum: float = 0.0
        self.count: int = 0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def line(self) -> Dict[str, Any]:
        return {"type": "histogram", "name": self.name,
                "bounds": list(self.bounds), "counts": list(self.counts),
                "sum": self.sum, "count": self.count}

    def _reset(self) -> None:
        self.counts = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<Histogram {self.name} count={self.count} sum={self.sum}>"


Metric = Union[Counter, Gauge, Histogram]

#: Delivery-latency bucket edges in seconds (two channel hops + processing).
LATENCY_BOUNDS_S = (0.001, 0.002, 0.005, 0.01, 0.02, 0.05, 0.1, 0.2, 0.5,
                    1.0, 2.0, 5.0)
#: Per-run wall-time bucket edges in seconds (a campaign run spans ms..min).
RUN_WALL_BOUNDS_S = (0.01, 0.02, 0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0,
                     30.0, 60.0, 120.0, 300.0)
#: Trace-flush batch-size bucket edges (samples per flush).
FLUSH_SIZE_BOUNDS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0,
                     512.0, 1024.0)


# ------------------------------------------------------------------ registry
class MetricsRegistry:
    """Named metrics with get-or-create semantics.

    Metric objects are shared: every channel's bundle points at the same
    ``channel.delivered`` counter, so registry values are process-level
    aggregates.  Snapshot order is sorted by name — deterministic under any
    ``PYTHONHASHSEED``.
    """

    def __init__(self) -> None:
        self._metrics: Dict[str, Metric] = {}

    def _get_or_create(self, name: str, factory, kind: str) -> Metric:
        metric = self._metrics.get(name)
        if metric is None:
            metric = factory()
            self._metrics[name] = metric
        elif metric.kind != kind:
            raise ValueError(
                f"metric {name!r} is already registered as a {metric.kind}, "
                f"not a {kind}"
            )
        return metric

    def counter(self, name: str) -> Counter:
        return self._get_or_create(name, lambda: Counter(name), "counter")

    def gauge(self, name: str, agg: str = "last") -> Gauge:
        gauge = self._get_or_create(name, lambda: Gauge(name, agg), "gauge")
        if gauge.agg != agg:
            raise ValueError(
                f"gauge {name!r} is registered with agg={gauge.agg!r}, "
                f"requested agg={agg!r}"
            )
        return gauge

    def histogram(self, name: str, bounds: Sequence[float]) -> Histogram:
        histogram = self._get_or_create(
            name, lambda: Histogram(name, bounds), "histogram")
        if histogram.bounds != tuple(float(b) for b in bounds):
            raise ValueError(
                f"histogram {name!r} is registered with bounds "
                f"{histogram.bounds}, requested {tuple(bounds)}"
            )
        return histogram

    def get(self, name: str) -> Optional[Metric]:
        return self._metrics.get(name)

    def names(self) -> List[str]:
        return sorted(self._metrics)

    def snapshot(self) -> List[Dict[str, Any]]:
        """One line dict per metric, sorted by name (deterministic order)."""
        return [self._metrics[name].line() for name in sorted(self._metrics)]

    def reset(self) -> None:
        """Zero every metric *in place* so cached bundle references survive."""
        for metric in self._metrics.values():
            metric._reset()

    def clear(self) -> None:
        """Drop every metric (cached bundles become detached — rebuild them)."""
        self._metrics.clear()


_DEFAULT_REGISTRY = MetricsRegistry()


def registry() -> MetricsRegistry:
    """The process-wide default registry all instrument bundles feed."""
    return _DEFAULT_REGISTRY


# -------------------------------------------------------- instrument bundles
class KernelInstruments:
    """Cached kernel metrics plus loop-local accumulators for one Simulator.

    ``heap_peak`` is a plain int the scheduling path compares against (no
    method call); :meth:`flush_run` folds a finished ``run()`` segment into
    the registry in one shot, so the dispatch loop itself pays nothing
    per event.
    """

    __slots__ = ("heap_peak", "events_fired", "events_cancelled",
                 "sim_seconds", "wall_seconds", "heap_peak_gauge",
                 "events_per_s", "sim_s_per_wall_s")

    def __init__(self, reg: MetricsRegistry) -> None:
        self.heap_peak = 0
        self.events_fired = reg.counter("kernel.events_fired")
        self.events_cancelled = reg.counter("kernel.events_cancelled")
        self.sim_seconds = reg.counter("kernel.sim_seconds_total")
        self.wall_seconds = reg.counter("kernel.wall_seconds_total")
        self.heap_peak_gauge = reg.gauge("kernel.heap_peak", agg="max")
        self.events_per_s = reg.gauge("kernel.events_per_s", agg="max")
        self.sim_s_per_wall_s = reg.gauge("kernel.sim_s_per_wall_s", agg="max")

    def flush_run(self, fired: int, sim_delta: float, wall_delta: float) -> None:
        self.events_fired.value += fired
        self.sim_seconds.value += sim_delta
        self.wall_seconds.value += wall_delta
        self.heap_peak_gauge.set_max(self.heap_peak)
        if wall_delta > 0.0:
            self.events_per_s.set_max(fired / wall_delta)
            self.sim_s_per_wall_s.set_max(sim_delta / wall_delta)


class ChannelInstruments:
    """Cached channel metrics (shared across every channel in the process)."""

    __slots__ = ("sent", "delivered", "dropped", "outage_hits",
                 "coalesced_ticks", "max_batch", "latency")

    def __init__(self, reg: MetricsRegistry) -> None:
        self.sent = reg.counter("channel.sent")
        self.delivered = reg.counter("channel.delivered")
        self.dropped = reg.counter("channel.dropped")
        self.outage_hits = reg.counter("channel.outage_hits")
        self.coalesced_ticks = reg.counter("channel.coalesced_ticks")
        self.max_batch = reg.gauge("channel.max_batch", agg="max")
        self.latency = reg.histogram("channel.latency_s", LATENCY_BOUNDS_S)


class BusInstruments:
    """Cached device-bus metrics."""

    __slots__ = ("published", "forwarded", "commands")

    def __init__(self, reg: MetricsRegistry) -> None:
        self.published = reg.counter("bus.published")
        self.forwarded = reg.counter("bus.forwarded")
        self.commands = reg.counter("bus.commands")


class SamplerInstruments:
    """Cached sampling-backbone metrics (trace batch flushes)."""

    __slots__ = ("flushes", "flushed_samples", "flush_size")

    def __init__(self, reg: MetricsRegistry) -> None:
        self.flushes = reg.counter("sampler.flushes")
        self.flushed_samples = reg.counter("sampler.flushed_samples")
        self.flush_size = reg.histogram("sampler.flush_size", FLUSH_SIZE_BOUNDS)


class CampaignInstruments:
    """Cached campaign-engine metrics (per-run and resilience accounting).

    The resilience counters are incremented where the event is observed:
    ``runs_retried`` and ``faults_injected`` in whichever process executes
    the run (so they ride worker snapshots), ``runs_quarantined`` and
    ``worker_restarts`` in the parent watchdog.  All are plain counters, so
    the snapshot merge sums them like any other.
    """

    __slots__ = ("runs", "run_wall_s", "runs_retried", "runs_quarantined",
                 "worker_restarts", "faults_injected", "segments_merged")

    def __init__(self, reg: MetricsRegistry) -> None:
        self.runs = reg.counter("campaign.runs")
        self.run_wall_s = reg.histogram("campaign.run_wall_s", RUN_WALL_BOUNDS_S)
        self.runs_retried = reg.counter("campaign.runs_retried")
        self.runs_quarantined = reg.counter("campaign.runs_quarantined")
        self.worker_restarts = reg.counter("campaign.worker_restarts")
        self.faults_injected = reg.counter("campaign.faults_injected")
        self.segments_merged = reg.counter("campaign.shards_merged")


def kernel_instruments() -> Optional[KernelInstruments]:
    return KernelInstruments(_DEFAULT_REGISTRY) if _ENABLED else None


def channel_instruments() -> Optional[ChannelInstruments]:
    return ChannelInstruments(_DEFAULT_REGISTRY) if _ENABLED else None


def bus_instruments() -> Optional[BusInstruments]:
    return BusInstruments(_DEFAULT_REGISTRY) if _ENABLED else None


def sampler_instruments() -> Optional[SamplerInstruments]:
    return SamplerInstruments(_DEFAULT_REGISTRY) if _ENABLED else None


def campaign_instruments() -> Optional[CampaignInstruments]:
    return CampaignInstruments(_DEFAULT_REGISTRY) if _ENABLED else None
