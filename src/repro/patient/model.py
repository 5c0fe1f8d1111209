"""Composite patient model -- the "Patient Model" box of Figure 1.

:class:`PatientModel` wires together the PK, PD, and vital-signs models and
exposes the two interfaces the rest of the system needs:

* the *drug input* interface used by the PCA pump (:meth:`infuse_bolus`,
  :meth:`set_infusion_rate`), and
* the *physiological signal* interface sampled by sensing devices such as the
  pulse oximeter (:attr:`vital_signs`).

The model is also a simulation :class:`~repro.sim.kernel.Process`: when
registered with a simulator it advances itself on a fixed physiological time
step and records ground-truth traces used by the experiment metrics.
"""

from __future__ import annotations

from typing import Optional

from repro.patient.decay import require_finite_non_negative
from repro.patient.map_model import ArterialPressureModel
from repro.patient.pharmacodynamics import PDParameters, RespiratoryDepressionPD
from repro.patient.pharmacokinetics import PKParameters, TwoCompartmentPK
from repro.patient.population import DEFAULT_PATIENT, PatientParameters
from repro.patient.vitals import VitalSigns, VitalSignsModel, VitalSignsParameters
from repro.sim.kernel import Process
from repro.sim.sampler import BatchedTraceWriter
from repro.sim.trace import TraceRecorder

SECONDS_PER_MINUTE = 60.0


class PatientModel(Process):
    """Dynamic patient model combining PK, PD, vital signs, and MAP."""

    def __init__(
        self,
        parameters: Optional[PatientParameters] = None,
        *,
        update_period_s: float = 5.0,
        trace: Optional[TraceRecorder] = None,
        pk_base: Optional[PKParameters] = None,
        pd_base: Optional[PDParameters] = None,
        vitals_base: Optional[VitalSignsParameters] = None,
        rng=None,
    ) -> None:
        parameters = parameters or DEFAULT_PATIENT
        parameters.validate()
        super().__init__(name=f"patient:{parameters.patient_id}")
        if update_period_s <= 0:
            raise ValueError("update_period_s must be positive")
        self.parameters = parameters
        self.update_period_s = update_period_s
        self.pk = TwoCompartmentPK(parameters.pk_parameters(pk_base))
        self.pd = RespiratoryDepressionPD(parameters.pd_parameters(pd_base))
        self.vitals_model = VitalSignsModel(parameters.vitals_parameters(vitals_base))
        self.map_model = ArterialPressureModel(rng=rng)
        self._infusion_rate_mg_per_min = 0.0
        self._last_update_time: Optional[float] = None
        self._respiratory_failure_onset: Optional[float] = None
        self.total_drug_delivered_mg = 0.0
        self._failure_event_name = f"{parameters.patient_id}:respiratory_failure"
        self.trace = trace  # property: builds the batched writer

    @property
    def trace(self) -> Optional[TraceRecorder]:
        return self._trace

    @trace.setter
    def trace(self, trace: Optional[TraceRecorder]) -> None:
        # Sampling backbone: the seven physiological signals are declared
        # once per trace attachment, so recording a ground-truth row is
        # fourteen list appends with no name formatting, flushed in batches
        # via record_many when the trace is read.  Assigning `trace` after
        # construction records exactly like a trace passed to __init__: the
        # old writer is flushed and unregistered.
        old_writer = getattr(self, "_writer", None)
        if old_writer is not None:
            old_writer.detach()
        self._trace = trace
        if trace is None:
            self._writer: Optional[BatchedTraceWriter] = None
        else:
            writer = BatchedTraceWriter(trace, prefix=self.parameters.patient_id,
                                        source=self.name)
            self._writer = writer
            self._sig_plasma = writer.declare("plasma_mg_per_l")
            self._sig_effect_site = writer.declare("effect_site_mg_per_l")
            self._sig_spo2 = writer.declare("spo2")
            self._sig_heart_rate = writer.declare("heart_rate")
            self._sig_respiratory_rate = writer.declare("respiratory_rate")
            self._sig_pain = writer.declare("pain")
            self._sig_true_map = writer.declare("true_map")

    # --------------------------------------------------------------- process
    def start(self) -> None:
        self._last_update_time = self.now
        self._tasks.append(self.simulator.call_every(
            self.update_period_s, self._advance, name=f"{self.name}:sampler"))

    def _advance(self) -> None:
        now = self._simulator.now
        if self._last_update_time is None:
            self._last_update_time = now
            return
        dt_min = (now - self._last_update_time) / SECONDS_PER_MINUTE
        self._last_update_time = now
        self.advance_by(dt_min, record_time=now)

    def advance_by(self, dt_min: float, record_time: Optional[float] = None) -> VitalSigns:  # repro-lint: hot
        """Advance the physiology ``dt_min`` minutes (also usable standalone)."""
        rate = self._infusion_rate_mg_per_min
        plasma = self.pk.advance(dt_min, rate)
        self.total_drug_delivered_mg += rate * dt_min
        pd = self.pd
        effect_site = pd.advance(dt_min, plasma)
        vitals = self.vitals_model.advance(
            dt_min, pd.respiratory_drive(effect_site), pd.analgesia(effect_site))
        true_map = self.map_model.advance(dt_min)
        if record_time is not None and self._writer is not None:
            # The seven ground-truth rows, appended to the declared batches.
            for batch, value in ((self._sig_plasma, plasma),
                                 (self._sig_effect_site, effect_site),
                                 (self._sig_spo2, vitals.spo2_percent),
                                 (self._sig_heart_rate, vitals.heart_rate_bpm),
                                 (self._sig_respiratory_rate, vitals.respiratory_rate_bpm),
                                 (self._sig_pain, vitals.pain_level),
                                 (self._sig_true_map, true_map)):
                batch.times.append(record_time)
                batch.values.append(value)
        self._update_failure_tracking(record_time)
        return vitals

    def _update_failure_tracking(self, time: Optional[float]) -> None:
        in_failure = self.vitals_model.is_in_respiratory_failure()
        if in_failure and self._respiratory_failure_onset is None:
            self._respiratory_failure_onset = time if time is not None else self._last_update_time
            if self.trace is not None and time is not None:
                self.trace.event(time, self._failure_event_name, source=self.name)
        elif not in_failure:
            self._respiratory_failure_onset = None

    # ----------------------------------------------------------- drug inputs
    def infuse_bolus(self, dose_mg: float) -> None:
        """Deliver an instantaneous bolus (a PCA demand dose)."""
        self.pk.add_bolus(dose_mg)
        self.total_drug_delivered_mg += dose_mg

    def set_infusion_rate(self, rate_mg_per_min: float) -> None:
        """Set the continuous (basal) infusion rate."""
        require_finite_non_negative("rate_mg_per_min", rate_mg_per_min)
        self._infusion_rate_mg_per_min = rate_mg_per_min

    @property
    def infusion_rate_mg_per_min(self) -> float:
        return self._infusion_rate_mg_per_min

    # --------------------------------------------------------------- outputs
    @property
    def vital_signs(self) -> VitalSigns:
        """The true, noise-free vital signs (sensors add noise on top)."""
        return self.vitals_model.state

    @property
    def plasma_concentration_mg_per_l(self) -> float:
        return self.pk.plasma_concentration_mg_per_l

    @property
    def effect_site_concentration_mg_per_l(self) -> float:
        return self.pd.effect_site_concentration_mg_per_l

    @property
    def in_respiratory_failure(self) -> bool:
        return self.vitals_model.is_in_respiratory_failure()

    @property
    def wants_bolus(self) -> bool:
        """Whether the (awake, coherent) patient would press the PCA button.

        A patient in pain presses the button; a heavily sedated patient does
        not -- this self-limiting behaviour is exactly why PCA-by-proxy (a
        relative pressing the button) defeats the intrinsic safety of PCA.
        """
        sedated = self.pd.respiratory_depression() > 0.5
        return self.vitals_model.state.pain_level >= 3.0 and not sedated
