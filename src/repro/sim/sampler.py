"""Fixed-rate sampling backbone shared by devices and the patient model.

Every sensing device in this repository does the same three things on a
fixed period: run a sampling callback, publish readings, and append samples
to the :class:`~repro.sim.trace.TraceRecorder`.  Before this module each
device hand-rolled that loop through :meth:`Process.every` and paid, per
sample, an f-string to build the full signal name plus a recorder dict
lookup and cache invalidation.  The backbone hoists all of that out of the
per-sample path:

* :class:`SignalBatch` -- a slotted pending buffer for one signal whose full
  name (``"<producer>:<signal>"``) is computed exactly once, at declare time.
  Recording a sample is two list appends.
* :class:`BatchedTraceWriter` -- one producer's set of signal batches.  It
  registers a flush hook with the recorder so any *read* of the trace drains
  pending batches through :meth:`~repro.sim.trace.TraceRecorder.record_many`
  first (the read barrier).  That barrier, and :meth:`BatchedTraceWriter.detach`
  when a producer swaps its writer, are the only points where samples reach
  the recorder, so a run that reads its trace once pays the recorder work
  once per signal.

Producers drive their sampling callbacks with
:meth:`~repro.sim.kernel.Simulator.call_every`; the backbone schedules no
kernel events of its own.

Determinism: batches preserve per-signal chronological order exactly, and
``record_many`` appends the very same float objects ``record`` would have,
so traces produced through the backbone are byte-identical to unbatched
recording.  The one rule is that each signal must have a single producer
(already true everywhere: signal names are prefixed with the producer id).
"""

from __future__ import annotations

from typing import Any, Dict, List

from repro.obs.metrics import sampler_instruments
from repro.sim.trace import TraceRecorder


class SignalBatch:
    """Pending samples of one signal, with the full name precomputed.

    Hot producers (the patient step, a device's publish) append to
    ``times`` and ``values`` themselves.  They hold the batch, never the
    lists: a flush replaces both lists.
    """

    __slots__ = ("signal", "source", "times", "values")

    def __init__(self, signal: str, source: str = "") -> None:
        self.signal = signal
        self.source = source
        self.times: List[float] = []
        self.values: List[Any] = []

    def append(self, time: float, value: Any) -> None:
        """Record one sample: two list appends, nothing else."""
        self.times.append(time)
        self.values.append(value)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<SignalBatch {self.signal!r} pending={len(self.times)}>"


class BatchedTraceWriter:
    """Batched trace front-end for one producer (a device or patient model).

    Signal names are declared once (:meth:`declare`) and every later sample
    lands in the per-signal batch.  The writer registers itself with the
    recorder so trace queries drain pending samples before returning.
    """

    __slots__ = ("trace", "source", "_prefix", "_batches", "_batch_list", "_obs")

    def __init__(self, trace: TraceRecorder, prefix: str, source: str = "") -> None:
        self.trace = trace
        self.source = source
        self._prefix = prefix
        self._batches: Dict[str, SignalBatch] = {}
        self._batch_list: List[SignalBatch] = []
        # Registry-backed flush metrics; None unless repro.obs was enabled
        # when this writer was constructed.
        self._obs = sampler_instruments()
        trace.register_pending(self.flush)

    def declare(self, signal: str) -> SignalBatch:
        """Precompute ``"<prefix>:<signal>"`` and return the signal's batch.

        Idempotent; devices call this at attach/init time for their known
        signals so the hot path never builds a name string.
        """
        batch = self._batches.get(signal)
        if batch is None:
            batch = SignalBatch(f"{self._prefix}:{signal}", source=self.source)
            self._batches[signal] = batch
            self._batch_list.append(batch)
        return batch

    @property
    def batches(self) -> Dict[str, SignalBatch]:
        """The declared batches by short signal name (the writer's own map).

        A producer may alias it and append to a batch itself; a signal it
        has not declared goes through :meth:`declare` first.
        """
        return self._batches

    def record(self, time: float, signal: str, value: Any) -> None:  # repro-lint: hot
        """Append a sample of ``signal`` (short name) at ``time``."""
        batch = self._batches.get(signal)
        if batch is None:
            batch = self.declare(signal)
        batch.times.append(time)
        batch.values.append(value)

    def flush(self) -> None:  # repro-lint: hot
        """Drain every non-empty batch into the recorder via ``record_many``."""
        trace = self.trace
        flushed = 0
        for batch in self._batch_list:
            if batch.times:
                flushed += len(batch.times)
                trace.record_many(batch.signal, batch.times, batch.values,
                                  source=batch.source)
                batch.times = []
                batch.values = []
        obs = self._obs
        if obs is not None and flushed:
            obs.flushes.value += 1
            obs.flushed_samples.value += flushed
            obs.flush_size.observe(flushed)

    def detach(self) -> None:
        """Flush and unregister from the recorder.

        Called when a producer replaces its writer (e.g. its ``trace``
        property is reassigned); without it the recorder would keep invoking
        — and keeping alive — every abandoned writer forever.
        """
        self.flush()
        self.trace.unregister_pending(self.flush)

    @property
    def pending(self) -> int:
        """Number of samples not yet flushed into the recorder."""
        return sum(len(batch.times) for batch in self._batch_list)
