"""Declarative hospital-topology specifications.

The paper's experiments are ward- and hospital-scale (Section III(i):
"the staggering range of patient responses"; Section II(c): communication
faults in the control loop), but hand-wiring a 100-bed hospital out of
simulator primitives is untenable.  A :class:`TopologySpec` describes a
hospital declaratively — wards x beds x device mixes x caregiver staffing x
patient-cohort fractions x fault profiles — and is plain-JSON round-trippable
so it survives campaign manifests and worker process boundaries unchanged.

Expansion into a wired simulation lives in :mod:`repro.topology.expand`;
everything here is inert data with validation.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path
from typing import Any, Dict, Mapping, Tuple, Union


#: Device types a bed can be equipped with, in deterministic wiring order.
DEVICE_TYPES = ("pulse_oximeter", "capnograph", "bp_monitor", "bed", "pca_pump")

#: Short device-id suffix per device type (``ward-a-bed-003-spo2``).
DEVICE_SHORT_NAMES = {
    "pulse_oximeter": "spo2",
    "capnograph": "capno",
    "bp_monitor": "bp",
    "bed": "bed",
    "pca_pump": "pump",
}

#: Caregiver shift kinds; night shifts respond slower and cover more beds.
SHIFTS = ("day", "night")


class TopologyError(ValueError):
    """Raised for invalid topology specifications."""


def _finite(name: str, value: Any) -> float:
    """``value`` if it is a finite number (not a bool), else TopologyError."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise TopologyError(f"{name} must be a finite number, got {value!r}")
    return value


def _whole(name: str, value: Any) -> int:
    """``value`` as an int if it is a whole number, else TopologyError."""
    if _finite(name, value) != int(value):
        raise TopologyError(f"{name} must be a whole number, got {value!r}")
    return int(value)


def _check_fraction(name: str, value: float) -> None:
    if not 0.0 <= _finite(name, value) <= 1.0:
        raise TopologyError(f"{name} must be within [0, 1], got {value}")


def _from_mapping(cls, data: Mapping[str, Any], label: str):
    """Build dataclass ``cls`` from ``data``, rejecting unknown fields."""
    if not isinstance(data, Mapping):
        raise TopologyError(f"{label} must be an object, got {type(data).__name__}")
    known = {f.name for f in fields(cls)}
    unknown = sorted(set(data) - known)
    if unknown:
        raise TopologyError(f"unknown {label} fields: {unknown}")
    return cls(**dict(data))


@dataclass(frozen=True)
class DeviceMix:
    """Fraction of a ward's beds equipped with each device type.

    1.0 means every bed has one; 0.0 means none do.  Which individual beds
    get a device is decided by a per-bed derived random roll during
    expansion, so the realised mix converges to these fractions while every
    bed's equipment is independent of every other bed's.
    """

    pulse_oximeter: float = 1.0
    capnograph: float = 0.5
    bp_monitor: float = 0.25
    bed: float = 1.0
    pca_pump: float = 0.3

    def __post_init__(self) -> None:
        for device_type in DEVICE_TYPES:
            _check_fraction(f"device_mix.{device_type}", getattr(self, device_type))

    def fraction(self, device_type: str) -> float:
        if device_type not in DEVICE_TYPES:
            raise TopologyError(
                f"unknown device type {device_type!r}; expected one of {DEVICE_TYPES}"
            )
        return getattr(self, device_type)

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "DeviceMix":
        return _from_mapping(cls, data, "device mix")


@dataclass(frozen=True)
class CohortMix:
    """Patient sub-population fractions for a ward.

    Mirrors :meth:`repro.patient.population.PatientPopulation.sample`: the
    two special bands must leave room for the typical band, so their sum may
    not exceed 1.
    """

    sensitive_fraction: float = 0.15
    athlete_fraction: float = 0.1

    def __post_init__(self) -> None:
        _check_fraction("cohort.sensitive_fraction", self.sensitive_fraction)
        _check_fraction("cohort.athlete_fraction", self.athlete_fraction)
        if self.sensitive_fraction + self.athlete_fraction > 1.0:
            raise TopologyError(
                "cohort sensitive_fraction + athlete_fraction must not exceed 1 "
                f"(got {self.sensitive_fraction} + {self.athlete_fraction})"
            )

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CohortMix":
        return _from_mapping(cls, data, "cohort mix")


@dataclass(frozen=True)
class StaffingSpec:
    """Caregiver staffing for a ward.

    caregivers:
        Explicit caregiver count; 0 derives the count from
        ``beds_per_caregiver`` (ceiling division over the ward's beds).
    shift:
        ``"day"`` or ``"night"``; night staffing responds slower, is
        distracted more often, and covers more patients per caregiver —
        the Section II(c) "human in the loop" under its worst conditions.
    """

    caregivers: int = 0
    beds_per_caregiver: int = 4
    shift: str = "day"

    def __post_init__(self) -> None:
        for name in ("caregivers", "beds_per_caregiver"):
            object.__setattr__(self, name, _whole(f"staffing.{name}", getattr(self, name)))
        if self.caregivers < 0:
            raise TopologyError("staffing.caregivers must be non-negative")
        if self.beds_per_caregiver < 1:
            raise TopologyError("staffing.beds_per_caregiver must be >= 1")
        if self.shift not in SHIFTS:
            raise TopologyError(
                f"staffing.shift must be one of {SHIFTS}, got {self.shift!r}"
            )

    def caregiver_count(self, beds: int) -> int:
        if self.caregivers > 0:
            return self.caregivers
        return max(1, -(-beds // self.beds_per_caregiver))

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "StaffingSpec":
        return _from_mapping(cls, data, "staffing spec")


@dataclass(frozen=True)
class FaultProfile:
    """Stochastic fault rates for a ward, in events per device-hour.

    Rates compile (deterministically, per seed) into concrete
    ``fault_plan`` entries targeting the ward's realised devices and
    channels — see :func:`repro.topology.generators.generate_fault_plan`.
    All three kinds exercise :mod:`repro.sim.faults` machinery: channel
    outages (Section II(c) communication failures), stuck sensors, and pump
    misprogramming (the leading PCA adverse-event cause).
    """

    channel_outage_rate: float = 0.0
    channel_outage_duration_s: float = 60.0
    stuck_sensor_rate: float = 0.0
    stuck_sensor_duration_s: float = 300.0
    misprogramming_rate: float = 0.0
    misprogramming_rate_multiplier: float = 4.0

    def __post_init__(self) -> None:
        for name in ("channel_outage_rate", "stuck_sensor_rate", "misprogramming_rate"):
            if _finite(f"faults.{name}", getattr(self, name)) < 0:
                raise TopologyError(f"faults.{name} must be non-negative")
        for name in ("channel_outage_duration_s", "stuck_sensor_duration_s",
                     "misprogramming_rate_multiplier"):
            if _finite(f"faults.{name}", getattr(self, name)) <= 0:
                raise TopologyError(f"faults.{name} must be positive")

    @property
    def any_faults(self) -> bool:
        return (self.channel_outage_rate > 0 or self.stuck_sensor_rate > 0
                or self.misprogramming_rate > 0)

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultProfile":
        return _from_mapping(cls, data, "fault profile")


@dataclass(frozen=True)
class WardSpec:
    """One ward: a named block of identically-distributed beds."""

    name: str
    beds: int
    device_mix: DeviceMix = field(default_factory=DeviceMix)
    cohort: CohortMix = field(default_factory=CohortMix)
    staffing: StaffingSpec = field(default_factory=StaffingSpec)
    faults: FaultProfile = field(default_factory=FaultProfile)

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("ward name must be non-empty")
        if any(sep in self.name for sep in (":", "&", "=", " ")):
            raise TopologyError(
                f"ward name {self.name!r} must not contain ':', '&', '=' or spaces "
                "(it becomes part of seed-derivation names and run ids)"
            )
        object.__setattr__(self, "beds", _whole(f"ward {self.name!r} beds", self.beds))
        if self.beds < 1:
            raise TopologyError(f"ward {self.name!r} must have at least one bed")

    def as_dict(self) -> Dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WardSpec":
        if not isinstance(data, Mapping):
            raise TopologyError(f"ward spec must be an object, got {type(data).__name__}")
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise TopologyError(f"unknown ward spec fields: {unknown}")
        if "name" not in data or "beds" not in data:
            raise TopologyError("ward spec requires 'name' and 'beds'")
        return cls(
            name=str(data["name"]),
            beds=data["beds"],
            device_mix=DeviceMix.from_dict(data.get("device_mix", {})),
            cohort=CohortMix.from_dict(data.get("cohort", {})),
            staffing=StaffingSpec.from_dict(data.get("staffing", {})),
            faults=FaultProfile.from_dict(data.get("faults", {})),
        )


@dataclass(frozen=True)
class TopologySpec:
    """A hospital: a named, ordered collection of wards.

    The spec is pure data; :func:`repro.topology.expand.expand_topology`
    turns it into a concrete manifest (which patients, which devices, which
    channels) and :func:`repro.topology.expand.build_hospital` wires that
    manifest onto a live simulator.  Both take the spec plus a seed and are
    position-independent: every sampled quantity draws from a stream derived
    via :func:`repro.sim.random.derive_seed` from ``(seed, stable name)``.
    """

    name: str
    wards: Tuple[WardSpec, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise TopologyError("topology name must be non-empty")
        if not self.wards:
            raise TopologyError("topology must declare at least one ward")
        names = [ward.name for ward in self.wards]
        duplicates = sorted({name for name in names if names.count(name) > 1})
        if duplicates:
            raise TopologyError(f"duplicate ward names: {duplicates}")
        object.__setattr__(self, "wards", tuple(self.wards))

    @property
    def total_beds(self) -> int:
        return sum(ward.beds for ward in self.wards)

    def total_caregivers(self) -> int:
        return sum(ward.staffing.caregiver_count(ward.beds) for ward in self.wards)

    # ----------------------------------------------------------- persistence
    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "wards": [ward.as_dict() for ward in self.wards],
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TopologySpec":
        if not isinstance(data, Mapping):
            raise TopologyError(
                f"topology spec must be an object, got {type(data).__name__}"
            )
        unknown = sorted(set(data) - {"name", "wards"})
        if unknown:
            raise TopologyError(f"unknown topology spec fields: {unknown}")
        if "name" not in data:
            raise TopologyError("topology spec requires 'name'")
        wards = data.get("wards", [])
        if not isinstance(wards, (list, tuple)):
            raise TopologyError("topology 'wards' must be a list")
        return cls(
            name=str(data["name"]),
            wards=tuple(WardSpec.from_dict(ward) for ward in wards),
        )

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "TopologySpec":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_file(cls, path: Union[str, Path]) -> "TopologySpec":
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return cls.from_dict(json.load(handle))
        except OSError as error:
            raise TopologyError(f"cannot read topology spec {path}: {error}") from error
        except json.JSONDecodeError as error:
            raise TopologyError(f"topology spec {path} is not valid JSON: {error}") from error


def standard_hospital(
    name: str = "hospital",
    *,
    wards: int = 2,
    beds_per_ward: int = 8,
    device_mix: Mapping[str, float] = None,
    cohort: Mapping[str, float] = None,
    staffing: Mapping[str, Any] = None,
    faults: Mapping[str, Any] = None,
) -> TopologySpec:
    """Convenience builder: ``wards`` identical wards of ``beds_per_ward``.

    Each keyword block is the plain-dict form of the corresponding spec
    section, applied to every ward.  Ward names are ``ward-00`` ... so specs
    of any size keep lexicographically stable ordering.
    """
    if wards < 1:
        raise TopologyError("hospital needs at least one ward")
    mix = DeviceMix.from_dict(device_mix or {})
    cohort_mix = CohortMix.from_dict(cohort or {})
    staff = StaffingSpec.from_dict(staffing or {})
    fault_profile = FaultProfile.from_dict(faults or {})
    return TopologySpec(
        name=name,
        wards=tuple(
            WardSpec(
                name=f"ward-{index:02d}",
                beds=beds_per_ward,
                device_mix=mix,
                cohort=cohort_mix,
                staffing=staff,
                faults=fault_profile,
            )
            for index in range(wards)
        ),
    )
