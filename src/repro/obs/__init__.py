"""``repro.obs`` — zero-overhead-when-disabled observability.

Four pieces share one enable switch (``REPRO_OBS=1`` or :func:`enable`):

* :mod:`repro.obs.metrics` — slotted ``Counter`` / ``Gauge`` / ``Histogram``
  in a process-wide registry; instrument bundles give hot paths direct
  attribute access and collapse to ``None`` when disabled.
* :mod:`repro.obs.spans` — sim-time span tracing for run lifecycle phases
  with deterministic ids derived from run-id seeding.
* :mod:`repro.obs.export` — deterministic NDJSON snapshots plus the shard
  merge used by the campaign engine.
* :mod:`repro.obs.logging` — a structured logging facade (human / json /
  quiet) for CLI-facing output.

:mod:`repro.obs.profiler` holds :func:`~repro.obs.profiler.owner_of`, which
maps a kernel event name to the component that owns its callback, for
dispatchers attached with :meth:`~repro.sim.kernel.Simulator.attach_profiler`.

Design invariants: observability is off by default; metric values never
feed back into simulation state (golden digests are identical with obs on
or off); export ordering is deterministic under pinned ``PYTHONHASHSEED``.
"""

from repro.obs.export import (
    dump_lines,
    merge_lines,
    merge_snapshots,
    read_snapshot,
    snapshot_lines,
    write_snapshot,
)
from repro.obs.logging import StructLogger, get_logger
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    disable,
    enable,
    enabled,
    registry,
)
from repro.obs.spans import SpanTracer, derive_id, tracer

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanTracer",
    "StructLogger",
    "derive_id",
    "disable",
    "dump_lines",
    "enable",
    "enabled",
    "get_logger",
    "merge_lines",
    "merge_snapshots",
    "read_snapshot",
    "registry",
    "snapshot_lines",
    "tracer",
    "write_snapshot",
]
