"""Deterministic expansion of a :class:`TopologySpec` into a wired hospital.

Two layers, both position-independent (every random draw comes from a stream
derived with :func:`repro.sim.random.derive_seed` from ``(seed, stable
name)``, never from execution order):

* :func:`expand_topology` produces a plain-JSON **manifest** — which patient
  occupies which bed, which devices each bed carries, which channels exist —
  without touching a simulator.  Byte-identical for identical ``(spec,
  seed)`` regardless of ``PYTHONHASHSEED``, process, or call order; this is
  the determinism contract the topology tests pin.
* :func:`build_hospital` wires that manifest onto a live
  :class:`~repro.sim.kernel.Simulator`: patients, per-bed device stacks, a
  per-ward :class:`~repro.middleware.bus.DeviceBus`, ward supervisors with a
  closed-loop safety app, threshold alarms feeding staffed caregivers, and a
  hospital-wide :class:`~repro.sim.faults.FaultInjector` with every channel
  and device registered.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

import numpy as np

from repro.alarms.thresholds import AlarmSeverity, ThresholdAlarm, ThresholdRule
from repro.core.caregiver import Caregiver, CaregiverConfig
from repro.devices.base import MedicalDevice
from repro.devices.bed import HospitalBed
from repro.devices.bp_monitor import BloodPressureMonitor
from repro.devices.capnograph import Capnograph
from repro.devices.pca_pump import PCAPump
from repro.devices.pulse_oximeter import PulseOximeter
from repro.middleware.bus import DeviceBus
from repro.middleware.supervisor_host import SupervisorApp, SupervisorHost
from repro.patient.model import PatientModel
from repro.patient.population import PatientParameters, PatientPopulation
from repro.readings import Reading
from repro.sim.faults import FaultInjector
from repro.sim.kernel import Simulator
from repro.sim.random import derive_seed
from repro.topology.spec import (
    DEVICE_SHORT_NAMES,
    DEVICE_TYPES,
    TopologySpec,
    WardSpec,
)

#: Cohort labels, in reporting order.
COHORTS = ("typical", "opioid_sensitive", "athlete")

#: Vitals the ward monitor watches (topic names as devices publish them).
MONITORED_VITALS = ("spo2", "respiratory_rate", "map", "heart_rate")


@dataclass(frozen=True)
class AlarmThresholds:
    """Ward-wide threshold-alarm limits (the paper's 'average patient' limits)."""

    spo2: float = 90.0
    respiratory_rate: float = 8.0
    map_mmhg: float = 65.0
    heart_rate: float = 50.0
    rearm_time_s: float = 300.0

    def rules(self) -> List[ThresholdRule]:
        return [
            ThresholdRule(vital="spo2", threshold=self.spo2,
                          direction="below", severity=AlarmSeverity.CRITICAL),
            ThresholdRule(vital="respiratory_rate", threshold=self.respiratory_rate,
                          direction="below", severity=AlarmSeverity.CRITICAL),
            ThresholdRule(vital="map", threshold=self.map_mmhg,
                          direction="below", severity=AlarmSeverity.WARNING),
            ThresholdRule(vital="heart_rate", threshold=self.heart_rate,
                          direction="below", severity=AlarmSeverity.WARNING),
        ]


# --------------------------------------------------------------------- naming
def bed_id_for(ward: str, index: int) -> str:
    return f"{ward}-bed-{index:03d}"


def device_id_for(bed_id: str, device_type: str) -> str:
    return f"{bed_id}-{DEVICE_SHORT_NAMES[device_type]}"


def _bed_seed_name(topology: str, ward: str, index: int, stream: str) -> str:
    return f"topology:{topology}:{ward}:bed{index}:{stream}"


# ------------------------------------------------------------------- manifest
def _cohort_label(sensitive: bool, athlete: bool) -> str:
    if sensitive:
        return "opioid_sensitive"
    if athlete:
        return "athlete"
    return "typical"


def _expand_bed(spec: TopologySpec, ward: WardSpec, index: int, seed: int) -> Dict[str, Any]:
    bed_id = bed_id_for(ward.name, index)
    cohort_rng = np.random.default_rng(
        derive_seed(seed, _bed_seed_name(spec.name, ward.name, index, "cohort")))
    roll = float(cohort_rng.random())
    sensitive = roll < ward.cohort.sensitive_fraction
    athlete = (ward.cohort.sensitive_fraction <= roll
               < ward.cohort.sensitive_fraction + ward.cohort.athlete_fraction)

    patient_rng = np.random.default_rng(
        derive_seed(seed, _bed_seed_name(spec.name, ward.name, index, "patient")))
    patient = PatientPopulation(rng=patient_rng).sample_one(
        bed_id, sensitive=sensitive, athlete=athlete)

    device_rng = np.random.default_rng(
        derive_seed(seed, _bed_seed_name(spec.name, ward.name, index, "devices")))
    devices = []
    for device_type in DEVICE_TYPES:
        # One roll per device type regardless of outcome, so equipping one
        # bed differently never shifts another device's draw.
        device_roll = float(device_rng.random())
        if device_roll < ward.device_mix.fraction(device_type):
            devices.append(device_type)

    return {
        "bed_id": bed_id,
        "cohort": _cohort_label(sensitive, athlete),
        "patient": patient.as_record(),
        "devices": devices,
        "device_ids": [device_id_for(bed_id, device_type) for device_type in devices],
        "channels": [f"uplink:{device_id_for(bed_id, device_type)}"
                     for device_type in devices],
    }


def expand_topology(spec: TopologySpec, seed: int) -> Dict[str, Any]:
    """Expand ``spec`` into a plain-JSON manifest of the realised hospital."""
    wards = []
    for ward in spec.wards:
        beds = [_expand_bed(spec, ward, index, seed) for index in range(ward.beds)]
        cohort_counts = {label: 0 for label in COHORTS}
        for bed in beds:
            cohort_counts[bed["cohort"]] += 1
        wards.append({
            "name": ward.name,
            "caregivers": ward.staffing.caregiver_count(ward.beds),
            "shift": ward.staffing.shift,
            "cohort_counts": cohort_counts,
            "beds": beds,
        })
    return {
        "topology": spec.name,
        "seed": seed,
        "total_beds": spec.total_beds,
        "wards": wards,
    }


def manifest_json(spec: TopologySpec, seed: int) -> str:
    """Canonical JSON of the expanded manifest (the byte-identity surface)."""
    return json.dumps(expand_topology(spec, seed), sort_keys=True,
                      separators=(",", ":"))


def manifest_device_ids(manifest: Dict[str, Any], device_type: str) -> List[str]:
    """All realised device ids of ``device_type``, in manifest order."""
    found = []
    for ward in manifest["wards"]:
        for bed in ward["beds"]:
            for bed_device_type, device_id in zip(bed["devices"], bed["device_ids"]):
                if bed_device_type == device_type:
                    found.append(device_id)
    return found


def cohort_counts(manifest: Dict[str, Any]) -> Dict[str, int]:
    """Hospital-wide cohort composition of an expanded manifest."""
    totals = {label: 0 for label in COHORTS}
    for ward in manifest["wards"]:
        for label in COHORTS:
            totals[label] += ward["cohort_counts"][label]
    return totals


# -------------------------------------------------------------------- runtime
class WardSafetyApp(SupervisorApp):
    """Closed-loop ward safety app: stop a bed's pump on low SpO2.

    The ward-scale analogue of the single-patient PCA supervisor: it
    subscribes to the ward's pulse-oximeter streams and, when a bed whose
    stack includes a PCA pump desaturates below ``stop_threshold``, issues a
    ``stop`` command through the host (and hence through the security
    policy).
    """

    subscriptions = ("spo2",)
    step_period_s: Optional[float] = None  # purely event-driven

    def __init__(self, app_id: str, stop_threshold: float = 85.0) -> None:
        super().__init__(app_id)
        self.stop_threshold = stop_threshold
        self._pump_by_sensor: Dict[str, str] = {}
        self._stopped: Dict[str, bool] = {}
        self.stop_commands = 0

    def watch(self, sensor_device_id: str, pump_device_id: str) -> None:
        self._pump_by_sensor[sensor_device_id] = pump_device_id
        self._stopped[pump_device_id] = False

    def on_data(self, topic: str, payload: Reading, message) -> None:
        pump_id = self._pump_by_sensor.get(message.sender)
        if pump_id is None or self._stopped[pump_id]:
            return
        if not payload.valid:
            return
        if payload.value < self.stop_threshold:
            self._stopped[pump_id] = True
            if self.send_command(pump_id, "stop"):
                self.stop_commands += 1


@dataclass
class BedRuntime:
    """One wired bed: patient, devices, alarm, assigned caregiver."""

    bed_id: str
    ward: str
    cohort: str
    parameters: PatientParameters
    patient: PatientModel
    devices: Dict[str, MedicalDevice]
    alarm: ThresholdAlarm
    caregiver: Caregiver
    alarms_raised: int = 0


@dataclass
class WardRuntime:
    """One wired ward: its bus, supervisor, beds, and caregivers."""

    spec: WardSpec
    bus: DeviceBus
    host: SupervisorHost
    safety_app: WardSafetyApp
    beds: List[BedRuntime] = field(default_factory=list)
    caregivers: List[Caregiver] = field(default_factory=list)


@dataclass
class HospitalRuntime:
    """A fully wired hospital ready to ``simulator.run(until=...)``."""

    spec: TopologySpec
    seed: int
    manifest: Dict[str, Any]
    simulator: Simulator
    injector: FaultInjector
    wards: List[WardRuntime] = field(default_factory=list)

    # ------------------------------------------------------------ aggregates
    def beds(self) -> List[BedRuntime]:
        return [bed for ward in self.wards for bed in ward.beds]

    def alarm_counts_by_cohort(self) -> Dict[str, int]:
        counts = {label: 0 for label in COHORTS}
        for bed in self.beds():
            counts[bed.cohort] += bed.alarms_raised
        return counts

    def cohort_counts(self) -> Dict[str, int]:
        return cohort_counts(self.manifest)

    def caregiver_stats(self) -> Dict[str, int]:
        received = missed = interventions = 0
        for ward in self.wards:
            for caregiver in ward.caregivers:
                received += caregiver.alarms_received
                missed += caregiver.alarms_missed
                interventions += len(caregiver.interventions)
        return {"alarms_received": received, "alarms_missed": missed,
                "interventions": interventions}

    def bus_stats(self) -> Dict[str, int]:
        published = forwarded = 0
        for ward in self.wards:
            published += ward.bus.published_count
            forwarded += ward.bus.forwarded_count
        return {"published": published, "forwarded": forwarded}

    def stop_commands(self) -> int:
        return sum(ward.safety_app.stop_commands for ward in self.wards)


def _caregiver_config(ward: WardSpec, beds_covered: int) -> CaregiverConfig:
    if ward.staffing.shift == "night":
        return CaregiverConfig(
            rounding_period_s=3600.0,
            mean_response_delay_s=240.0,
            response_delay_sd_s=80.0,
            distraction_probability=0.25,
            patients_assigned=max(1, beds_covered),
        )
    return CaregiverConfig(patients_assigned=max(1, beds_covered))


def _build_device(device_type: str, device_id: str, patient: PatientModel,
                  rng: np.random.Generator) -> MedicalDevice:
    if device_type == "pulse_oximeter":
        return PulseOximeter(device_id, patient, rng=rng)
    if device_type == "capnograph":
        return Capnograph(device_id, patient, rng=rng)
    if device_type == "bp_monitor":
        return BloodPressureMonitor(device_id, patient)
    if device_type == "bed":
        return HospitalBed(device_id, patient)
    if device_type == "pca_pump":
        return PCAPump(device_id, patient)
    raise ValueError(f"unknown device type {device_type!r}")


def _wire_ward_monitor(runtime: HospitalRuntime, ward_runtime: WardRuntime) -> None:
    """Subscribe a ward-monitor endpoint feeding per-bed threshold alarms."""
    simulator = runtime.simulator
    bus = ward_runtime.bus
    endpoint = f"monitor:{ward_runtime.spec.name}"
    bed_by_device: Dict[str, BedRuntime] = {}
    for bed in ward_runtime.beds:
        for device in bed.devices.values():
            bed_by_device[device.descriptor.device_id] = bed

    def _observe(topic: str, payload: Reading, message) -> None:
        bed = bed_by_device.get(message.sender)
        if bed is None:
            return
        if not payload.valid:
            return
        raised = bed.alarm.observe(simulator.now, topic, float(payload.value))
        for event in raised:
            bed.alarms_raised += 1
            # Athlete bradycardia alarms are physiological, not clinical:
            # the experiment-E4 false-alarm driver feeding caregiver fatigue.
            is_false = topic == "heart_rate" and bed.cohort == "athlete"
            bed.caregiver.notify_alarm(f"{bed.bed_id}:{event.vital}",
                                       is_false_alarm=is_false)

    for topic in MONITORED_VITALS:
        bus.subscribe(endpoint, topic, _observe)


def build_hospital(
    spec: TopologySpec,
    seed: int,
    *,
    simulator: Optional[Simulator] = None,
    thresholds: Optional[AlarmThresholds] = None,
    stop_threshold: float = 85.0,
    command_authoriser=None,
    manifest: Optional[Dict[str, Any]] = None,
) -> HospitalRuntime:
    """Wire the hospital described by ``(spec, seed)`` onto a simulator.

    ``command_authoriser`` (if given) gates every supervisor command — pass
    ``CommandAuthorizationPolicy(...).as_authoriser()`` to put the security
    posture in the loop.  ``manifest`` may be supplied to skip re-expansion
    when the caller already has it.
    """
    simulator = simulator or Simulator()
    thresholds = thresholds or AlarmThresholds()
    if manifest is None:
        manifest = expand_topology(spec, seed)
    runtime = HospitalRuntime(
        spec=spec, seed=seed, manifest=manifest, simulator=simulator,
        injector=FaultInjector(simulator),
    )

    wards_by_name = {ward.name: ward for ward in spec.wards}
    for ward_manifest in manifest["wards"]:
        ward_spec = wards_by_name[ward_manifest["name"]]
        bus = DeviceBus(simulator)
        host = SupervisorHost(
            bus,
            host_id=f"supervisor:{ward_spec.name}",
            command_authoriser=command_authoriser,
        )
        safety_app = WardSafetyApp("safety", stop_threshold=stop_threshold)
        host.attach_app(safety_app)
        simulator.register(host)
        ward_runtime = WardRuntime(spec=ward_spec, bus=bus, host=host,
                                   safety_app=safety_app)

        # Caregiver pool, then beds assigned round-robin.
        caregiver_total = ward_manifest["caregivers"]
        beds_total = len(ward_manifest["beds"])
        per_caregiver = -(-beds_total // caregiver_total)
        for index in range(caregiver_total):
            caregiver_rng = np.random.default_rng(derive_seed(
                seed, f"topology:{spec.name}:{ward_spec.name}:caregiver{index}"))
            caregiver = Caregiver(
                f"{ward_spec.name}-nurse-{index:02d}",
                _caregiver_config(ward_spec, per_caregiver),
                rng=caregiver_rng,
            )
            simulator.register(caregiver)
            ward_runtime.caregivers.append(caregiver)

        for bed_index, bed_manifest in enumerate(ward_manifest["beds"]):
            parameters = PatientParameters(
                **{**bed_manifest["patient"],
                   "tags": tuple(bed_manifest["patient"]["tags"])})
            patient_rng = np.random.default_rng(derive_seed(
                seed, _bed_seed_name(spec.name, ward_spec.name, bed_index, "model")))
            patient = PatientModel(parameters, trace=None, rng=patient_rng)
            simulator.register(patient)

            devices: Dict[str, MedicalDevice] = {}
            for device_type, device_id in zip(bed_manifest["devices"],
                                              bed_manifest["device_ids"]):
                device_rng = np.random.default_rng(derive_seed(
                    seed, _bed_seed_name(spec.name, ward_spec.name, bed_index,
                                         f"noise:{device_type}")))
                device = _build_device(device_type, device_id, patient, device_rng)
                simulator.register(device)
                bus.attach_device(device)
                devices[device_type] = device

            bed_runtime = BedRuntime(
                bed_id=bed_manifest["bed_id"],
                ward=ward_spec.name,
                cohort=bed_manifest["cohort"],
                parameters=parameters,
                patient=patient,
                devices=devices,
                alarm=ThresholdAlarm(bed_manifest["bed_id"], thresholds.rules(),
                                     rearm_time_s=thresholds.rearm_time_s),
                caregiver=ward_runtime.caregivers[bed_index % caregiver_total],
            )
            ward_runtime.beds.append(bed_runtime)

            oximeter = devices.get("pulse_oximeter")
            pump = devices.get("pca_pump")
            if oximeter is not None and pump is not None:
                safety_app.watch(oximeter.descriptor.device_id,
                                 pump.descriptor.device_id)

        _wire_ward_monitor(runtime, ward_runtime)

        # Register the ward's channels and devices with the hospital-wide
        # injector so generated (and campaign-supplied) fault plans can
        # target anything that exists.
        for channel in bus.channels:
            runtime.injector.register_channel(channel)
        for device in bus.devices.values():
            runtime.injector.register_device(device.descriptor.device_id, device)

        runtime.wards.append(ward_runtime)

    return runtime
