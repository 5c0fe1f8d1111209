"""Core closed-loop MCPS library: the paper's primary contribution.

This package assembles the substrates (simulation kernel, patient models,
virtual devices, ICE middleware) into the closed-loop medical device system
of Figure 1 and the safety arguments around it:

* :class:`~repro.core.pca.PCASafetySupervisor` -- the supervisor app that
  monitors pulse-oximeter (and optionally capnograph) data and stops the PCA
  pump on early signs of respiratory depression, with fail-safe behaviour on
  stale data.  Its one setting is the policy; each step's decision is the
  pure function :func:`~repro.core.pca.decide`, tuned by the module
  constants of :mod:`repro.core.pca`.
* :class:`~repro.core.loop.ClosedLoopPCASystem` -- a builder that wires a
  patient, pump, sensors, bus, supervisor, and caregiver into a runnable
  scenario, in open-loop or closed-loop configuration.
* :mod:`~repro.core.delays` -- the control-loop delay budget analysis of
  Figure 1: given each delay source, how long between the physiological event
  and the pump actually stopping, and is that fast enough?
* :mod:`~repro.core.caregiver` -- stochastic caregiver/nurse response model
  (the "human in the loop" the paper contrasts the supervisor with).
"""

from repro.core.pca import Observation, PCASafetySupervisor, decide
from repro.core.loop import ClosedLoopPCASystem, PCASystemConfig, PCARunResult
from repro.core.delays import DelayBudget, DelayComponent, loop_delay_budget
from repro.core.caregiver import Caregiver, CaregiverConfig

__all__ = [
    "PCASafetySupervisor",
    "Observation",
    "decide",
    "ClosedLoopPCASystem",
    "PCASystemConfig",
    "PCARunResult",
    "DelayBudget",
    "DelayComponent",
    "loop_delay_budget",
    "Caregiver",
    "CaregiverConfig",
]
