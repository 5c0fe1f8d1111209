"""Control algorithms for physiological closed loops.

Section III(g) of the paper points at "control-theoretic methods designed to
operate under high parametric uncertainty, such as supervisory adaptive
control" (Morse).  This package provides:

* :class:`~repro.control.pid.PIDController` -- the fixed-gain baseline.
* :class:`~repro.control.supervisory.SupervisoryAdaptiveController` -- a bank
  of candidate controllers with a supervisor that switches to the candidate
  whose model best explains recent observations (Morse-style multi-model
  switching with hysteresis and dwell time).
"""

from repro.control.pid import PIDController, PIDGains
from repro.control.supervisory import (
    CandidateController,
    SupervisoryAdaptiveController,
    SupervisoryConfig,
)

__all__ = [
    "PIDController",
    "PIDGains",
    "CandidateController",
    "SupervisoryAdaptiveController",
    "SupervisoryConfig",
]
