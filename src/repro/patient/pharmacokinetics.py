"""Two-compartment pharmacokinetic (PK) model of opioid infusion.

This is the "Drug Absorption Function" / "Drug level" portion of Figure 1 in
the paper.  The model follows the standard mammillary two-compartment
formulation used for morphine in Mazoit et al. (reference [16] of the paper):
drug is infused into a central compartment (plasma), distributes to a
peripheral compartment, and is eliminated from the central compartment by
first-order clearance.

State variables are drug *amounts* (mg); concentrations are amounts divided
by compartment volumes (mg/L).  Integration uses an exact matrix-exponential
step for the linear system, so arbitrarily long steps remain stable, plus a
simple sub-stepped Euler fallback kept for cross-checking in tests.

The state is two Python floats.  A step uses numpy only where numpy decides
the bits: the propagators (``np.exp`` inside :func:`_matrix_exponential`,
once per distinct step length) and the homogeneous matvec ``e^{At} x`` of a
non-empty patient, which stays BLAS because a scalar 2x2 formula rounds
differently where BLAS fuses a multiply-add.  The forcing is ``[rate, 0]``,
so its response is exactly ``F[:, 0] * rate``, two float products added
only at a nonzero rate; an empty patient maps to a signed zero that the
``max(0.0, .)`` clamp turns into 0.0, so an undosed step touches no array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.patient.decay import require_finite_non_negative, require_finite_positive


@dataclass
class PKParameters:
    """Two-compartment PK parameters.

    The defaults approximate morphine in a 70 kg adult: central volume about
    0.3 L/kg, clearance about 1.0 L/min scaled per kg, with slow peripheral
    distribution.  Individual patients scale these by weight and a clearance
    multiplier drawn by :mod:`repro.patient.population`.
    """

    central_volume_l: float = 15.0
    peripheral_volume_l: float = 120.0
    clearance_l_per_min: float = 1.0
    distribution_clearance_l_per_min: float = 2.0

    def validate(self) -> None:
        for name in (
            "central_volume_l",
            "peripheral_volume_l",
            "clearance_l_per_min",
            "distribution_clearance_l_per_min",
        ):
            require_finite_positive(name, getattr(self, name))

    # Rate constants of the standard two-compartment model (per minute).
    @property
    def k10(self) -> float:
        """Elimination rate constant from the central compartment."""
        return self.clearance_l_per_min / self.central_volume_l

    @property
    def k12(self) -> float:
        """Central -> peripheral distribution rate constant."""
        return self.distribution_clearance_l_per_min / self.central_volume_l

    @property
    def k21(self) -> float:
        """Peripheral -> central redistribution rate constant."""
        return self.distribution_clearance_l_per_min / self.peripheral_volume_l

    def scaled_for_weight(self, weight_kg: float, clearance_multiplier: float = 1.0) -> "PKParameters":
        """Return parameters scaled allometrically for a patient of ``weight_kg``."""
        require_finite_positive("weight_kg", weight_kg)
        require_finite_positive("clearance_multiplier", clearance_multiplier)
        scale = weight_kg / 70.0
        return PKParameters(
            central_volume_l=self.central_volume_l * scale,
            peripheral_volume_l=self.peripheral_volume_l * scale,
            clearance_l_per_min=self.clearance_l_per_min * (scale**0.75) * clearance_multiplier,
            distribution_clearance_l_per_min=self.distribution_clearance_l_per_min * (scale**0.75),
        )


class TwoCompartmentPK:
    """Stateful two-compartment PK integrator.

    The infusion rate (mg/min) is held piecewise-constant between calls to
    :meth:`advance`; boluses add an amount instantaneously to the central
    compartment.
    """

    #: Bound on cached per-``dt`` propagator pairs (steps are near-periodic,
    #: so a handful of distinct dt values covers an entire run).
    _PROPAGATOR_CACHE_LIMIT = 64

    def __init__(self, parameters: PKParameters) -> None:
        parameters.validate()
        self.parameters = parameters
        self._central_mg = 0.0
        self._peripheral_mg = 0.0
        self._system = self._build_system()
        self._propagators: Dict[float, Tuple[np.ndarray, float, float]] = {}

    def _build_system(self) -> np.ndarray:
        p = self.parameters
        return np.array(
            [
                [-(p.k10 + p.k12), p.k21],
                [p.k12, -p.k21],
            ]
        )

    # ----------------------------------------------------------------- state
    @property
    def central_amount_mg(self) -> float:
        return self._central_mg

    @property
    def peripheral_amount_mg(self) -> float:
        return self._peripheral_mg

    @property
    def total_amount_mg(self) -> float:
        return self._central_mg + self._peripheral_mg

    @property
    def plasma_concentration_mg_per_l(self) -> float:
        """Concentration in the central (plasma) compartment."""
        return self._central_mg / self.parameters.central_volume_l

    def reset(self) -> None:
        self._central_mg = 0.0
        self._peripheral_mg = 0.0

    # ------------------------------------------------------------ integration
    def add_bolus(self, dose_mg: float) -> None:
        """Instantaneously inject ``dose_mg`` into the central compartment."""
        require_finite_non_negative("dose_mg", dose_mg)
        self._central_mg += dose_mg

    def advance(self, dt_min: float, infusion_rate_mg_per_min: float = 0.0) -> float:  # repro-lint: hot
        """Advance the model ``dt_min`` minutes under a constant infusion rate.

        Returns the plasma concentration (mg/L) at the end of the step.
        """
        if not 0 <= dt_min < math.inf:
            require_finite_non_negative("dt_min", dt_min)
        rate = infusion_rate_mg_per_min
        if not 0 <= rate < math.inf:
            require_finite_non_negative("infusion_rate_mg_per_min", rate)
        if dt_min == 0:
            return self._central_mg / self.parameters.central_volume_l

        # x' = A x + u  ->  x(t) = e^{At} x0 + A^{-1}(e^{At} - I) u
        # A is invertible because k10 > 0.  The propagators depend only on
        # (A, dt); steps are near-periodic, so they are cached per exact dt,
        # and computed on the first step of each dt even when nothing is
        # dosed, so a bad parameter fails where it always has.  The forcing
        # is u = [rate, 0]: only the first column F[:, 0] of the forced
        # response is ever used, and F @ [r, 0] is exactly [F00*r, F10*r]
        # because the second product is an exact zero.
        cached = self._propagators.get(dt_min)
        if cached is None:
            exp_at = _matrix_exponential(self._system * dt_min)
            a_inv = np.linalg.inv(self._system)
            forced_response = a_inv @ (exp_at - np.eye(2))
            cached = (exp_at, float(forced_response[0, 0]), float(forced_response[1, 0]))
            if len(self._propagators) < self._PROPAGATOR_CACHE_LIMIT:
                self._propagators[dt_min] = cached
        exp_at, f0, f1 = cached
        central = self._central_mg
        peripheral = self._peripheral_mg
        # e^{At} @ 0 is a signed zero, which the clamp below turns into 0.0,
        # so an empty patient skips the matvec.  A non-empty one keeps it in
        # BLAS: a scalar 2x2 formula rounds differently where BLAS uses FMA.
        if central or peripheral:
            central, peripheral = (exp_at @ np.array([central, peripheral])).tolist()
        else:
            central = peripheral = 0.0  # not a np.float64 zero left by a numpy bolus
        if rate:
            rate = float(rate)
            central += f0 * rate
            peripheral += f1 * rate
        # max(0.0, x) is x only when x > 0.0, so NaN and -0.0 clamp to 0.0.
        if not central > 0.0:
            central = 0.0
        if not peripheral > 0.0:
            peripheral = 0.0
        self._central_mg = central
        self._peripheral_mg = peripheral
        return central / self.parameters.central_volume_l

    def advance_euler(self, dt_min: float, infusion_rate_mg_per_min: float = 0.0, substeps: int = 100) -> float:
        """Sub-stepped Euler integration; kept as an independent cross-check."""
        if dt_min < 0:
            raise ValueError("dt_min must be non-negative")
        if substeps <= 0:
            raise ValueError("substeps must be positive")
        p = self.parameters
        h = dt_min / substeps
        central = self._central_mg
        peripheral = self._peripheral_mg
        for _ in range(substeps):
            d_central = (
                infusion_rate_mg_per_min
                - p.k10 * central
                - p.k12 * central
                + p.k21 * peripheral
            )
            d_peripheral = p.k12 * central - p.k21 * peripheral
            central += h * d_central
            peripheral += h * d_peripheral
        self._central_mg = max(0.0, central)
        self._peripheral_mg = max(0.0, peripheral)
        return self.plasma_concentration_mg_per_l

    # --------------------------------------------------------------- analysis
    def steady_state_concentration(self, infusion_rate_mg_per_min: float) -> float:
        """Plasma concentration reached if the infusion ran forever."""
        if infusion_rate_mg_per_min < 0:
            raise ValueError("infusion rate must be non-negative")
        return infusion_rate_mg_per_min / self.parameters.clearance_l_per_min

    def half_life_min(self) -> Tuple[float, float]:
        """Distribution and elimination half-lives (minutes) from eigenvalues."""
        eigenvalues = np.linalg.eigvals(self._system)
        rates = np.sort(-np.real(eigenvalues))[::-1]  # fast (alpha), slow (beta)
        return float(np.log(2) / rates[0]), float(np.log(2) / rates[1])


def _matrix_exponential(matrix: np.ndarray) -> np.ndarray:
    """Matrix exponential via eigendecomposition (2x2, real distinct eigenvalues).

    Falls back to a scaled Taylor series if the matrix is defective, which
    cannot happen for physically valid PK parameters but keeps the helper
    robust to degenerate test inputs.
    """
    eigenvalues, eigenvectors = np.linalg.eig(matrix)
    if np.linalg.cond(eigenvectors) < 1e12:
        return np.real(eigenvectors @ np.diag(np.exp(eigenvalues)) @ np.linalg.inv(eigenvectors))
    # Scaling-and-squaring Taylor fallback.
    n = max(0, int(np.ceil(np.log2(max(1.0, np.linalg.norm(matrix, ord=np.inf))))))
    scaled = matrix / (2**n)
    result = np.eye(matrix.shape[0])
    term = np.eye(matrix.shape[0])
    for k in range(1, 16):
        term = term @ scaled / k
        result = result + term
    for _ in range(n):
        result = result @ result
    return result
