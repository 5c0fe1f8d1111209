"""The patient step on numpy scalars and builtins, kept only as a test oracle.

:class:`ReferencePatient` is :class:`~repro.patient.model.PatientModel`
stepping its PK, PD, vital-sign and MAP models the way they stepped before
the step moved to Python floats: every check is a call, every decay factor
is the ``np.float64`` that a fresh ``np.exp`` returns, the PD and vital-sign
arithmetic runs on those numpy scalars, clamps are ``min``/``max``, results
are wrapped in ``float()``, and the seven trace rows go through
:meth:`~repro.sim.sampler.SignalBatch.append`.  The production step does
the same arithmetic on Python floats with inlined checks and clamps;
``tests/test_patient_reference.py`` checks that the two agree bit for bit.

Steps are ``float``: the production models coerce an ``np.float32`` step to
``float``, and this oracle computes on whatever it is given.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.patient.decay import require_finite_non_negative
from repro.patient.map_model import ArterialPressureModel
from repro.patient.model import PatientModel
from repro.patient.pharmacodynamics import RespiratoryDepressionPD, hill
from repro.patient.pharmacokinetics import TwoCompartmentPK, _matrix_exponential
from repro.patient.vitals import VitalSigns, VitalSignsModel


class ReferenceStepPK(TwoCompartmentPK):
    """The PK step with its checks as calls and its clamps as ``max``."""

    def advance(self, dt_min: float, infusion_rate_mg_per_min: float = 0.0) -> float:
        require_finite_non_negative("dt_min", dt_min)
        require_finite_non_negative("infusion_rate_mg_per_min", infusion_rate_mg_per_min)
        if dt_min == 0:
            return self.plasma_concentration_mg_per_l
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
        if central or peripheral:
            central, peripheral = (exp_at @ np.array([central, peripheral])).tolist()
        else:
            central = peripheral = 0.0
        if infusion_rate_mg_per_min:
            rate = float(infusion_rate_mg_per_min)
            central += f0 * rate
            peripheral += f1 * rate
        self._central_mg = max(0.0, central)
        self._peripheral_mg = max(0.0, peripheral)
        return self.plasma_concentration_mg_per_l


class ReferenceStepPD(RespiratoryDepressionPD):
    """The PD step on the ``np.float64`` decay factor of a fresh ``np.exp``."""

    def advance(self, dt_min: float, plasma_concentration_mg_per_l: float) -> float:
        require_finite_non_negative("dt_min", dt_min)
        require_finite_non_negative("plasma_concentration_mg_per_l", plasma_concentration_mg_per_l)
        if dt_min == 0:
            return self._effect_site_mg_per_l
        decay = np.exp(-self.parameters.ke0_per_min * dt_min)
        self._effect_site_mg_per_l = (
            plasma_concentration_mg_per_l
            + (self._effect_site_mg_per_l - plasma_concentration_mg_per_l) * decay
        )
        return self._effect_site_mg_per_l

    def respiratory_drive(self, effect_site: float = None) -> float:
        return 1.0 - self.respiratory_depression(effect_site)

    def respiratory_depression(self, effect_site: float = None) -> float:
        concentration = self._effect_site_mg_per_l if effect_site is None else effect_site
        return self.parameters.max_respiratory_depression * hill(
            concentration,
            self.parameters.ec50_respiratory_mg_per_l,
            self.parameters.hill_respiratory,
        )


class ReferenceStepVitals(VitalSignsModel):
    """The vital-sign step with ``min``/``max`` clamps and ``float()`` wraps."""

    def advance(self, dt_min: float, respiratory_drive: float, analgesia: float) -> VitalSigns:
        require_finite_non_negative("dt_min", dt_min)
        if not 0 <= respiratory_drive <= 1.0001:
            raise ValueError(f"respiratory_drive must be in [0, 1], got {respiratory_drive!r}")
        if not 0 <= analgesia <= 1.0001:
            raise ValueError(f"analgesia must be in [0, 1], got {analgesia!r}")
        if dt_min == 0:
            return self.state
        p = self.parameters
        self._snapshot = None
        self._respiratory_rate = p.baseline_respiratory_rate_bpm * respiratory_drive
        ventilation_fraction = respiratory_drive
        if ventilation_fraction >= p.hypoventilation_threshold:
            spo2_target = p.baseline_spo2
        else:
            deficit = (p.hypoventilation_threshold - ventilation_fraction) / p.hypoventilation_threshold
            spo2_target = p.baseline_spo2 - deficit * (p.baseline_spo2 - p.min_spo2)
        decay = np.exp(-dt_min / p.spo2_time_constant_min)
        self._spo2 = float(spo2_target + (self._spo2 - spo2_target) * decay)
        self._spo2 = float(min(max(self._spo2, p.min_spo2), 100.0))
        natural_pain = self._pain * np.exp(-p.pain_decay_per_min * dt_min)
        self._pain = float(min(max(natural_pain * (1.0 - analgesia), 0.0), 10.0))
        hypoxia = max(0.0, p.baseline_spo2 - self._spo2)
        self._heart_rate = float(
            p.baseline_heart_rate_bpm
            + p.heart_rate_pain_gain * self._pain
            + p.heart_rate_hypoxia_gain * hypoxia
        )
        return self.state


class ReferenceStepMAP(ArterialPressureModel):
    """The MAP drift step on a fresh ``np.exp``, wrapped in ``float()``."""

    def advance(self, dt_min: float) -> float:
        require_finite_non_negative("dt_min", dt_min)
        decay = np.exp(-dt_min / self.parameters.drift_time_constant_min)
        self._true_map = float(self._target_map + (self._true_map - self._target_map) * decay)
        return self._true_map


class ReferencePatient(PatientModel):
    """PatientModel whose step runs the reference sub-models above."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.pk = ReferenceStepPK(self.pk.parameters)
        self.pd = ReferenceStepPD(self.pd.parameters)
        self.vitals_model = ReferenceStepVitals(self.vitals_model.parameters)
        map_model = self.map_model
        self.map_model = ReferenceStepMAP(map_model.parameters)
        self.map_model._noise = map_model._noise

    def advance_by(self, dt_min: float, record_time: Optional[float] = None) -> VitalSigns:
        plasma = self.pk.advance(dt_min, self._infusion_rate_mg_per_min)
        self.total_drug_delivered_mg += self._infusion_rate_mg_per_min * dt_min
        effect_site = self.pd.advance(dt_min, plasma)
        drive = self.pd.respiratory_drive(effect_site)
        analgesia = self.pd.analgesia(effect_site)
        vitals = self.vitals_model.advance(dt_min, drive, analgesia)
        self.map_model.advance(dt_min)
        if record_time is not None and self.trace is not None:
            self._sig_plasma.append(record_time, plasma)
            self._sig_effect_site.append(record_time, effect_site)
            self._sig_spo2.append(record_time, vitals.spo2_percent)
            self._sig_heart_rate.append(record_time, vitals.heart_rate_bpm)
            self._sig_respiratory_rate.append(record_time, vitals.respiratory_rate_bpm)
            self._sig_pain.append(record_time, vitals.pain_level)
            self._sig_true_map.append(record_time, self.map_model.true_map_mmhg)
        self._update_failure_tracking(record_time)
        return vitals
