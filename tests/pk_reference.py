"""Numpy PK step, kept only as a test oracle.

:class:`ReferencePK` is :class:`~repro.patient.pharmacokinetics.TwoCompartmentPK`
with the all-numpy step: every step boxes the state and the forcing vector
``[rate, 0]`` as arrays and computes ``e^{At} x + F u`` with two matvecs
and an array sum, whatever the state and the rate.  The production step
skips the homogeneous matvec for an empty patient, adds ``F[:, 0] * rate``
as floats and skips it at rate 0; ``tests/test_pk_step_oracle.py`` checks
that the two agree bit for bit and type for type.
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.patient.decay import require_finite_non_negative
from repro.patient.pharmacokinetics import TwoCompartmentPK, _matrix_exponential


class ReferencePK(TwoCompartmentPK):
    """TwoCompartmentPK stepping with full 2x2 numpy propagators."""

    def __init__(self, parameters) -> None:
        super().__init__(parameters)
        self._reference_propagators: Dict[float, Tuple[np.ndarray, np.ndarray]] = {}

    def advance(self, dt_min: float, infusion_rate_mg_per_min: float = 0.0) -> float:
        require_finite_non_negative("dt_min", dt_min)
        require_finite_non_negative("infusion_rate_mg_per_min", infusion_rate_mg_per_min)
        if dt_min == 0:
            return self.plasma_concentration_mg_per_l
        state = np.array([self._central_mg, self._peripheral_mg])
        forcing = np.array([infusion_rate_mg_per_min, 0.0])
        cached = self._reference_propagators.get(dt_min)
        if cached is None:
            exp_at = _matrix_exponential(self._system * dt_min)
            a_inv = np.linalg.inv(self._system)
            cached = (exp_at, a_inv @ (exp_at - np.eye(2)))
            if len(self._reference_propagators) < self._PROPAGATOR_CACHE_LIMIT:
                self._reference_propagators[dt_min] = cached
        exp_at, forced_response = cached
        new_state = exp_at @ state + forced_response @ forcing
        self._central_mg = max(0.0, float(new_state[0]))
        self._peripheral_mg = max(0.0, float(new_state[1]))
        return self.plasma_concentration_mg_per_l
