"""Virtual medical device library.

Every device that a bundled scenario, claim check or example runs is
modelled here as a timed finite-state machine bound to the simulation
kernel, with a network interface (publish/command topics) compatible with
the ICE-style middleware in :mod:`repro.middleware`:

* :class:`~repro.devices.pca_pump.PCAPump` -- patient-controlled analgesia
  infusion pump with programmable limits, bolus/basal delivery, lockout, and
  a remote stop command (Figure 1, Section II(c)).
* :class:`~repro.devices.pulse_oximeter.PulseOximeter` -- SpO2 / heart-rate
  sensor with signal-processing delay, noise, probe-off artefacts.
* :class:`~repro.devices.capnograph.Capnograph` -- respiratory-rate / EtCO2
  monitor used by fused smart alarms.
* :class:`~repro.devices.bp_monitor.BloodPressureMonitor` -- MAP monitor for
  the mixed-criticality bed scenario (Section III(l)).
* :class:`~repro.devices.ventilator.Ventilator` and
  :class:`~repro.devices.xray.XRayMachine` -- the interoperability case study
  of Section II(b).
* :class:`~repro.devices.bed.HospitalBed` -- the Class I device whose height
  changes perturb MAP readings.
* :class:`~repro.devices.proton.ProtonTherapySystem` -- beam scheduling and
  emergency shutdown (Section II(a)).
"""

from repro.devices.base import DeviceState, DeviceDescriptor, MedicalDevice
from repro.readings import Reading
from repro.devices.pca_pump import PCAPump, PCAPrescription
from repro.devices.pulse_oximeter import PulseOximeter, PulseOximeterConfig
from repro.devices.capnograph import Capnograph, CapnographConfig
from repro.devices.bp_monitor import BloodPressureMonitor, BloodPressureMonitorConfig
from repro.devices.ventilator import Ventilator, VentilatorSettings
from repro.devices.xray import XRayMachine, XRayConfig
from repro.devices.bed import HospitalBed
from repro.devices.proton import BeamRequest, ProtonTherapySystem, TreatmentRoom

__all__ = [
    "DeviceState",
    "DeviceDescriptor",
    "MedicalDevice",
    "Reading",
    "PCAPump",
    "PCAPrescription",
    "PulseOximeter",
    "PulseOximeterConfig",
    "Capnograph",
    "CapnographConfig",
    "BloodPressureMonitor",
    "BloodPressureMonitorConfig",
    "Ventilator",
    "VentilatorSettings",
    "XRayMachine",
    "XRayConfig",
    "HospitalBed",
    "BeamRequest",
    "ProtonTherapySystem",
    "TreatmentRoom",
]
