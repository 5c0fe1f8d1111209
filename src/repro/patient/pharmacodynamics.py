"""Pharmacodynamic (PD) model: opioid effect on respiratory drive and pain.

The PD stage converts the plasma concentration computed by
:class:`repro.patient.pharmacokinetics.TwoCompartmentPK` into clinical
effects.  Two effects matter for the closed-loop PCA scenario of the paper:

* *Analgesia* -- pain relief, the therapeutic goal, modelled as a Hill
  (sigmoid Emax) function of effect-site concentration.
* *Respiratory depression* -- the hazard the supervisor must prevent,
  modelled as a Hill function that scales down the patient's respiratory
  drive; a sufficiently depressed drive drags down respiratory rate and,
  with a lag, SpO2.

An effect-site compartment with first-order equilibration (rate ``ke0``)
introduces the clinically important delay between plasma concentration and
effect, which is one of the timing terms the supervisor's delay budget must
cover.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.patient.decay import ExpMemo, require_finite_non_negative, require_finite_positive


@dataclass
class PDParameters:
    """Hill-model pharmacodynamic parameters.

    ec50_respiratory_mg_per_l:
        Effect-site concentration producing 50% of maximal respiratory
        depression.  Lower values mean a more opioid-sensitive patient.
    hill_respiratory:
        Steepness of the respiratory depression curve.
    ec50_analgesia_mg_per_l / hill_analgesia:
        Same for pain relief; analgesia saturates at lower concentrations
        than dangerous respiratory depression in a typical patient, which is
        exactly why PCA dosing works at all.
    ke0_per_min:
        Plasma <-> effect-site equilibration rate constant.
    max_respiratory_depression:
        Fraction of respiratory drive removed at infinite concentration
        (kept slightly below 1 so the ODEs remain well behaved).
    """

    ec50_respiratory_mg_per_l: float = 0.045
    hill_respiratory: float = 2.5
    ec50_analgesia_mg_per_l: float = 0.018
    hill_analgesia: float = 2.0
    ke0_per_min: float = 0.07
    max_respiratory_depression: float = 0.98

    def validate(self) -> None:
        for name in (
            "ec50_respiratory_mg_per_l",
            "hill_respiratory",
            "ec50_analgesia_mg_per_l",
            "hill_analgesia",
            "ke0_per_min",
        ):
            require_finite_positive(name, getattr(self, name))
        if not 0 < self.max_respiratory_depression <= 1:
            raise ValueError(
                f"max_respiratory_depression must be in (0, 1], got {self.max_respiratory_depression!r}")

    def with_sensitivity(self, sensitivity: float) -> "PDParameters":
        """Scale EC50s for a patient ``sensitivity`` (>1 means more sensitive)."""
        require_finite_positive("sensitivity", sensitivity)
        return PDParameters(
            ec50_respiratory_mg_per_l=self.ec50_respiratory_mg_per_l / sensitivity,
            hill_respiratory=self.hill_respiratory,
            ec50_analgesia_mg_per_l=self.ec50_analgesia_mg_per_l / sensitivity,
            hill_analgesia=self.hill_analgesia,
            ke0_per_min=self.ke0_per_min,
            max_respiratory_depression=self.max_respiratory_depression,
        )


def hill(concentration: float, ec50: float, coefficient: float) -> float:
    """Sigmoid Emax (Hill) response in [0, 1)."""
    if concentration <= 0:
        return 0.0
    ratio = (concentration / ec50) ** coefficient
    return ratio / (1.0 + ratio)


class RespiratoryDepressionPD:
    """Effect-site PD model for respiratory depression and analgesia."""

    def __init__(self, parameters: PDParameters) -> None:
        parameters.validate()
        self.parameters = parameters
        self._effect_site_mg_per_l = 0.0
        self._decay = ExpMemo()

    @property
    def effect_site_concentration_mg_per_l(self) -> float:
        return self._effect_site_mg_per_l

    def reset(self) -> None:
        self._effect_site_mg_per_l = 0.0

    def advance(self, dt_min: float, plasma_concentration_mg_per_l: float) -> float:  # repro-lint: hot
        """Advance the effect-site compartment ``dt_min`` minutes.

        Uses the exact solution of the first-order equilibration ODE for a
        plasma concentration held constant over the step, and returns the new
        effect-site concentration.
        """
        if not 0 <= dt_min < math.inf:
            require_finite_non_negative("dt_min", dt_min)
        plasma = plasma_concentration_mg_per_l
        if not 0 <= plasma < math.inf:
            require_finite_non_negative("plasma_concentration_mg_per_l", plasma)
        if dt_min == 0:
            return self._effect_site_mg_per_l
        decay = self._decay(-self.parameters.ke0_per_min * float(dt_min))
        effect_site = self._effect_site_mg_per_l = (
            plasma + (self._effect_site_mg_per_l - plasma) * decay)
        return effect_site

    # ---------------------------------------------------------------- effects
    def respiratory_depression(self, effect_site: float = None) -> float:
        """Fraction of respiratory drive suppressed, in [0, max_depression]."""
        concentration = self._effect_site_mg_per_l if effect_site is None else effect_site
        return self.parameters.max_respiratory_depression * hill(
            concentration,
            self.parameters.ec50_respiratory_mg_per_l,
            self.parameters.hill_respiratory,
        )

    def respiratory_drive(self, effect_site: float = None) -> float:
        """Remaining respiratory drive in [1 - max_depression, 1]."""
        p = self.parameters
        concentration = self._effect_site_mg_per_l if effect_site is None else effect_site
        return 1.0 - p.max_respiratory_depression * hill(
            concentration, p.ec50_respiratory_mg_per_l, p.hill_respiratory)

    def analgesia(self, effect_site: float = None) -> float:
        """Fraction of pain relieved, in [0, 1)."""
        p = self.parameters
        concentration = self._effect_site_mg_per_l if effect_site is None else effect_site
        return hill(concentration, p.ec50_analgesia_mg_per_l, p.hill_analgesia)

    def concentration_for_depression(self, depression_fraction: float) -> float:
        """Invert the respiratory Hill curve: concentration giving the fraction.

        Useful for computing safety margins and for calibrating experiment
        workloads (e.g. "what bolus schedule drives this patient to 50%
        depression?").
        """
        if not 0 <= depression_fraction < self.parameters.max_respiratory_depression:
            raise ValueError(
                "depression_fraction must be within "
                f"[0, {self.parameters.max_respiratory_depression})"
            )
        if depression_fraction == 0:
            return 0.0
        normalised = depression_fraction / self.parameters.max_respiratory_depression
        ratio = normalised / (1.0 - normalised)
        return self.parameters.ec50_respiratory_mg_per_l * ratio ** (1.0 / self.parameters.hill_respiratory)
