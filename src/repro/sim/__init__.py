"""Discrete-event simulation kernel.

The :mod:`repro.sim` package is the substrate on which every virtual medical
device, patient model, and middleware component in this repository runs.  It
provides:

* :class:`~repro.sim.kernel.Simulator` -- the event loop with a simulated
  clock, event scheduling, and process management.
* :class:`~repro.sim.kernel.Process` -- cooperative processes that interact
  with the simulator through scheduled callbacks and periodic activities.
* :class:`~repro.sim.channel.Channel` -- point-to-point and broadcast message
  channels with configurable latency, jitter, and loss, used to model the
  hospital network that interconnects medical devices.
* :class:`~repro.sim.faults.FaultInjector` -- scripted and stochastic fault
  injection (message loss bursts, device crashes, value corruption).
* :class:`~repro.sim.trace.TraceRecorder` -- time-stamped signal and event
  traces for analysis and plotting.
* :class:`~repro.sim.sampler.BatchedTraceWriter` -- the batched trace
  front-end shared by devices and the patient model: precomputed signal
  names, with samples reaching the recorder at its read barrier.
* :class:`~repro.sim.random.RandomStreams` -- named, independently seeded
  random streams so experiments are reproducible stream-by-stream.
"""

from repro.sim.kernel import Event, Process, Simulator, SimulationError
from repro.sim.channel import Channel, ChannelConfig, Message
from repro.sim.faults import FaultInjector, FaultSpec
from repro.sim.sampler import BatchedTraceWriter, SignalBatch
from repro.sim.trace import TraceRecorder, TracePoint
from repro.sim.random import RandomStreams, derive_seed

__all__ = [
    "BatchedTraceWriter",
    "SignalBatch",
    "Event",
    "Process",
    "Simulator",
    "SimulationError",
    "Channel",
    "ChannelConfig",
    "Message",
    "FaultInjector",
    "FaultSpec",
    "TraceRecorder",
    "TracePoint",
    "RandomStreams",
    "derive_seed",
]
