"""Closed-loop PCA system builder: wires Figure 1 into a runnable scenario.

:class:`ClosedLoopPCASystem` assembles a patient model, PCA pump, pulse
oximeter (plus optional capnograph), the ICE device bus, the safety
supervisor, and a caregiver into one simulation, in one of three
configurations:

* ``open_loop`` -- pump with programmable limits only; the caregiver on
  periodic rounds is the only safety net (today's standard of care).
* ``open_loop_monitored`` -- adds threshold alarms routed to the caregiver
  but no automatic pump control (monitored but not closed-loop).
* ``closed_loop`` -- the paper's proposal: the supervisor stops the pump
  automatically (and the caregiver is still alarmed).

The result object captures the safety and efficacy metrics the experiments
report: respiratory-failure events, time below SpO2 thresholds, minimum
SpO2, total drug delivered, pain relief achieved, and supervisor reaction
statistics.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.core.caregiver import Caregiver, CaregiverConfig
from repro.core.pca import POLICIES, SPO2_STOP_THRESHOLD, PCASafetySupervisor
from repro.devices.capnograph import Capnograph
from repro.devices.pca_pump import PCAPrescription, PCAPump
from repro.devices.pulse_oximeter import PulseOximeter, PulseOximeterConfig
from repro.middleware.bus import BusConfig, DeviceBus
from repro.middleware.supervisor_host import SupervisorHost
from repro.obs.metrics import enabled as obs_enabled
from repro.obs.spans import tracer as obs_tracer
from repro.patient.model import PatientModel
from repro.patient.population import DEFAULT_PATIENT, PatientParameters
from repro.sim.faults import FaultInjector, FaultSpec
from repro.sim.kernel import Process, Simulator
from repro.sim.random import RandomStreams
from repro.sim.trace import TraceRecorder

MODES = ("open_loop", "open_loop_monitored", "closed_loop")


@dataclass
class PCASystemConfig:
    """Configuration of one PCA scenario run."""

    mode: str = "closed_loop"
    duration_s: float = 4.0 * 3600.0
    patient: PatientParameters = field(default_factory=lambda: DEFAULT_PATIENT)
    prescription: PCAPrescription = field(default_factory=PCAPrescription)
    policy: str = "fused"
    caregiver: CaregiverConfig = field(default_factory=CaregiverConfig)
    bus: BusConfig = field(default_factory=BusConfig)
    oximeter: PulseOximeterConfig = field(default_factory=PulseOximeterConfig)
    pump_command_delay_s: float = 1.0
    algorithm_delay_s: float = 0.1
    button_press_period_s: float = 420.0
    with_capnograph: bool = True
    seed: int = 0
    faults: List[FaultSpec] = field(default_factory=list)

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.policy not in POLICIES:
            raise ValueError(f"policy must be one of {POLICIES}, got {self.policy!r}")
        if not (math.isfinite(self.duration_s) and self.duration_s > 0):
            raise ValueError(f"duration_s must be finite and positive, got {self.duration_s!r}")
        if not (math.isfinite(self.button_press_period_s) and self.button_press_period_s > 0):
            raise ValueError(
                f"button_press_period_s must be finite and positive, got {self.button_press_period_s!r}")
        self.prescription.validate()
        self.caregiver.validate()


@dataclass
class PCARunResult:
    """Metrics of one PCA scenario run."""

    mode: str
    patient_id: str
    duration_s: float
    respiratory_failure_events: int
    time_in_respiratory_failure_s: float
    time_below_spo2_90_s: float
    min_spo2: float
    max_plasma_concentration: float
    total_drug_delivered_mg: float
    boluses_delivered: int
    boluses_denied: int
    final_pain_level: float
    mean_pain_level: float
    supervisor_stops: int
    supervisor_resumes: int
    supervisor_first_stop_time_s: Optional[float]
    caregiver_interventions: int
    caregiver_alarms_missed: int
    harmed: bool

    def as_record(self) -> Dict[str, Any]:
        """Flat, JSON-serialisable record of the run (campaign result schema)."""
        return asdict(self)


class _PatientButton(Process):
    """The patient's PCA demand button behaviour.

    A patient in pain presses the button roughly every ``period_s`` (with
    jitter); a sedated patient stops pressing -- the natural negative
    feedback that PCA-by-proxy and misprogramming defeat.
    """

    def __init__(self, pump: PCAPump, patient: PatientModel, period_s: float, rng: np.random.Generator) -> None:
        super().__init__(name=f"button:{patient.parameters.patient_id}")
        self.pump = pump
        self.patient = patient
        self.period_s = period_s
        self._rng = rng
        self.presses = 0

    def start(self) -> None:
        self.after(self._next_interval(), self._press)

    def _next_interval(self) -> float:
        return float(max(30.0, self._rng.normal(self.period_s, self.period_s * 0.25)))

    def _press(self) -> None:
        if self.patient.wants_bolus:
            self.presses += 1
            self.pump.request_bolus()
        self.after(self._next_interval(), self._press)


class _AlarmRelay(Process):
    """SpO2 alarm at the supervisor's stop threshold that notifies the caregiver."""

    def __init__(self, oximeter: PulseOximeter, caregiver: Caregiver) -> None:
        super().__init__(name="alarm_relay")
        self.oximeter = oximeter
        self.caregiver = caregiver
        self.alarms_raised = 0

    def start(self) -> None:
        self.every(10.0, self._check)

    def _check(self) -> None:
        spo2 = self.oximeter.current_spo2
        if spo2 < SPO2_STOP_THRESHOLD:  # an empty window's NaN compares false
            self.alarms_raised += 1
            self.caregiver.notify_alarm("low_spo2")


class ClosedLoopPCASystem:
    """Builds and runs one PCA scenario according to a :class:`PCASystemConfig`."""

    def __init__(self, config: Optional[PCASystemConfig] = None) -> None:
        self.config = config or PCASystemConfig()
        self.config.validate()
        self.streams = RandomStreams(self.config.seed)
        self.trace = TraceRecorder()
        self.simulator: Optional[Simulator] = None
        self.patient: Optional[PatientModel] = None
        self.pump: Optional[PCAPump] = None
        self.oximeter: Optional[PulseOximeter] = None
        self.capnograph: Optional[Capnograph] = None
        self.bus: Optional[DeviceBus] = None
        self.host: Optional[SupervisorHost] = None
        self.supervisor: Optional[PCASafetySupervisor] = None
        self.caregiver: Optional[Caregiver] = None
        self.fault_injector: Optional[FaultInjector] = None
        self.button: Optional[_PatientButton] = None
        self._alarm_relay: Optional[_AlarmRelay] = None
        self._built = False

    # ----------------------------------------------------------------- build
    def build(self) -> "ClosedLoopPCASystem":
        """Instantiate and wire every component; idempotent."""
        if self._built:
            return self
        config = self.config
        self.simulator = Simulator()
        patient_rng = self.streams.stream("patient")
        self.patient = PatientModel(config.patient, trace=self.trace, rng=patient_rng)
        self.simulator.register(self.patient)

        self.bus = DeviceBus(self.simulator, config.bus, rng=self.streams.stream("network"))

        self.pump = PCAPump(
            "pca-pump-1",
            self.patient,
            config.prescription,
            command_delay_s=config.pump_command_delay_s,
            trace=self.trace,
        )
        self.oximeter = PulseOximeter(
            "pulse-ox-1",
            self.patient,
            config.oximeter,
            rng=self.streams.stream("oximeter"),
            trace=self.trace,
        )
        devices = [self.pump, self.oximeter]
        if config.with_capnograph:
            self.capnograph = Capnograph(
                "capnograph-1", self.patient, rng=self.streams.stream("capnograph"), trace=self.trace
            )
            devices.append(self.capnograph)
        for device in devices:
            self.bus.attach_device(device)
            self.simulator.register(device)

        # The patient's own button presses.
        self.button = _PatientButton(
            self.pump, self.patient, config.button_press_period_s, self.streams.stream("button")
        )
        self.simulator.register(self.button)

        # Caregiver (all modes): responds to alarms by stopping the pump at the bedside.
        self.caregiver = Caregiver(
            "nurse-1",
            config.caregiver,
            on_intervention=self._caregiver_intervention,
            rng=self.streams.stream("caregiver"),
            trace=self.trace,
        )
        self.simulator.register(self.caregiver)

        if config.mode == "closed_loop":
            self.host = SupervisorHost(
                self.bus,
                algorithm_delay_s=config.algorithm_delay_s,
                trace=self.trace,
            )
            self.supervisor = PCASafetySupervisor(
                "pca-safety", "pca-pump-1", policy=config.policy, use_capnograph=config.with_capnograph
            )
            self.host.attach_app(self.supervisor)
            self.simulator.register(self.host)
        if config.mode in ("open_loop_monitored", "closed_loop"):
            self._alarm_relay = _AlarmRelay(self.oximeter, self.caregiver)
            self.simulator.register(self._alarm_relay)

        # Fault injection.
        self.fault_injector = FaultInjector(self.simulator)
        for channel in self.bus.channels:
            self.fault_injector.register_channel(channel)
        self.fault_injector.register_device("pca-pump-1", self.pump)
        self.fault_injector.register_device("pulse-ox-1", self.oximeter)
        if self.capnograph is not None:
            self.fault_injector.register_device("capnograph-1", self.capnograph)
        self.fault_injector.extend(config.faults)
        self.fault_injector.arm()

        self._built = True
        return self

    def _caregiver_intervention(self, label: str) -> None:
        """Caregiver at the bedside: if the patient looks bad, stop the pump manually."""
        if self.patient is None or self.pump is None:
            return
        if label == "rounds":
            # On rounds the caregiver notices only frank respiratory failure.
            if self.patient.in_respiratory_failure:
                self.pump._do_stop()
        else:
            # Responding to an alarm: check SpO2 and stop if clearly low.
            if self.patient.vital_signs.spo2_percent < 92.0:
                self.pump._do_stop()

    # ------------------------------------------------------------------- run
    def run(self) -> PCARunResult:
        """Build (if needed), run the scenario, and compute the result metrics.

        With observability enabled the three phases are wrapped in sim-time
        spans (trace seeded by the scenario seed, clock =
        ``simulator.now``), so span ids and sim-clock endpoints are fully
        deterministic; metrics never influence the simulation itself.
        """
        if not obs_enabled():
            self.build()
            assert self.simulator is not None
            self.simulator.run(until=self.config.duration_s)
            return self._collect()
        context = obs_tracer().trace(f"pca:{self.config.seed}")
        clock = lambda: self.simulator.now if self.simulator is not None else 0.0
        with context.span("pca:run", clock=clock, clock_name="sim",
                          mode=self.config.mode, seed=self.config.seed):
            with context.span("pca:setup", clock=clock, clock_name="sim"):
                self.build()
            assert self.simulator is not None
            with context.span("pca:simulate", clock=clock, clock_name="sim"):
                self.simulator.run(until=self.config.duration_s)
            with context.span("pca:collect", clock=clock, clock_name="sim"):
                return self._collect()

    # ---------------------------------------------------------------- metrics
    def _collect(self) -> PCARunResult:
        assert self.patient is not None and self.pump is not None and self.caregiver is not None
        config = self.config
        prefix = config.patient.patient_id
        spo2_signal = f"{prefix}:spo2"
        pain_signal = f"{prefix}:pain"
        plasma_signal = f"{prefix}:plasma_mg_per_l"

        spo2_values = self.trace.values(spo2_signal)
        min_spo2 = float(spo2_values.min()) if spo2_values.size else float("nan")
        pain_values = self.trace.values(pain_signal)
        plasma_values = self.trace.values(plasma_signal)

        failure_events = self.trace.count_events(f"{prefix}:respiratory_failure")
        time_in_failure = self.trace.duration_below(spo2_signal, 85.0)
        time_below_90 = self.trace.duration_below(spo2_signal, 90.0)
        harmed = failure_events > 0 or time_below_90 > 300.0

        return PCARunResult(
            mode=config.mode,
            patient_id=prefix,
            duration_s=config.duration_s,
            respiratory_failure_events=failure_events,
            time_in_respiratory_failure_s=time_in_failure,
            time_below_spo2_90_s=time_below_90,
            min_spo2=min_spo2,
            max_plasma_concentration=float(plasma_values.max()) if plasma_values.size else 0.0,
            total_drug_delivered_mg=self.patient.total_drug_delivered_mg,
            boluses_delivered=len(self.pump.delivered_boluses),
            boluses_denied=len(self.pump.denied_requests),
            final_pain_level=float(pain_values[-1]) if pain_values.size else float("nan"),
            mean_pain_level=float(pain_values.mean()) if pain_values.size else float("nan"),
            supervisor_stops=self.supervisor.stop_count if self.supervisor else 0,
            supervisor_resumes=self.supervisor.resume_count if self.supervisor else 0,
            supervisor_first_stop_time_s=self.supervisor.first_stop_time if self.supervisor else None,
            caregiver_interventions=len(self.caregiver.interventions),
            caregiver_alarms_missed=self.caregiver.alarms_missed,
            harmed=harmed,
        )
