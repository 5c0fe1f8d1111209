"""Pulse oximeter: SpO2 and heart-rate sensing with signal-processing delay.

Figure 1 of the paper identifies "Signal Processing time" as one of the delay
sources the supervisor must account for.  The simulated pulse oximeter
samples the patient's true vital signs periodically, applies a moving-average
signal-processing window (which both smooths noise and introduces the
reporting delay), adds measurement noise, and publishes ``spo2`` and
``heart_rate`` readings on the device network.  Probe-off and frozen-output
artefacts are available for the fault-injection and smart-alarm experiments.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.devices.base import DeviceDescriptor, DeviceState, MedicalDevice
from repro.patient.model import PatientModel
from repro.sim.random import GaussianNoise
from repro.sim.trace import TraceRecorder


#: numpy's pairwise-summation block size (``PW_BLOCKSIZE``).
_PAIRWISE_BLOCK = 128


def _pairwise_sum(values: List[float]) -> float:
    """Sum ``values`` in numpy's float64 pairwise order.

    Below 8 values numpy adds sequentially from 0.0; up to a block it keeps
    eight strided accumulators, combines them as a balanced tree and adds
    the remainder in order; above a block it splits at a multiple of 8.
    """
    count = len(values)
    if count < 8:
        total = 0.0
        for value in values:
            total += value
        return total
    if count <= _PAIRWISE_BLOCK:
        acc = values[:8]
        blocked = count - count % 8
        for base in range(8, blocked, 8):
            for lane in range(8):
                acc[lane] += values[base + lane]
        total = ((acc[0] + acc[1]) + (acc[2] + acc[3])) + ((acc[4] + acc[5]) + (acc[6] + acc[7]))
        for index in range(blocked, count):
            total += values[index]
        return total
    half = count // 2
    half -= half % 8
    return _pairwise_sum(values[:half]) + _pairwise_sum(values[half:])


class _RollingMean:
    """Fixed-size chronological sample window with a cached mean.

    A plain list of floats: the window is a handful of samples, and numpy
    calls on Python scalars cost more than the arithmetic.  The mean
    replicates numpy's summation order (a sequential sum below 8 samples,
    numpy's 8-accumulator pairwise blocks from 8), so it is bit-identical
    to ``np.mean`` over the same window.  :meth:`push` appends a sample and
    returns the new mean; :attr:`mean` recomputes it only after
    :meth:`bias` or :meth:`clear`.
    """

    __slots__ = ("_size", "_samples", "_mean")

    def __init__(self, size: int) -> None:
        self._size = size
        self._samples: List[float] = []
        self._mean: Optional[float] = None

    def __len__(self) -> int:
        return len(self._samples)

    def push(self, value: float) -> float:  # repro-lint: hot
        """Append ``value`` as a float and return the window's new mean.

        The mean is cached for the next :attr:`mean` read.
        """
        samples = self._samples
        count = len(samples)
        if count == self._size:
            del samples[0]
        else:
            count += 1
        samples.append(float(value))
        mean = self._mean = (0.0 + _pairwise_sum(samples)) / count
        return mean

    @property
    def mean(self) -> float:
        samples = self._samples
        count = len(samples)
        if count == 0:
            return float("nan")
        mean = self._mean
        if mean is None:
            # numpy adds the pairwise sum to its reduction's 0.0 start,
            # which turns a -0.0 sum into 0.0.
            mean = self._mean = (0.0 + _pairwise_sum(samples)) / count
        return mean

    def clear(self) -> None:
        self._samples.clear()
        self._mean = None

    def bias(self, offset: float) -> None:
        """Add ``offset`` to every held sample (value-corruption faults)."""
        offset = float(offset)
        self._samples = [value + offset for value in self._samples]
        self._mean = None


@dataclass
class PulseOximeterConfig:
    """Sampling and artefact parameters.

    sample_period_s:
        How often the device samples the patient.
    averaging_window_samples:
        Moving-average window; the effective signal-processing delay is about
        half the window times the sample period.
    spo2_noise_sd / heart_rate_noise_sd:
        Gaussian measurement noise.
    """

    sample_period_s: float = 2.0
    averaging_window_samples: int = 4
    spo2_noise_sd: float = 0.6
    heart_rate_noise_sd: float = 1.5

    def validate(self) -> None:
        if self.sample_period_s <= 0:
            raise ValueError("sample_period_s must be positive")
        if self.averaging_window_samples < 1:
            raise ValueError("averaging_window_samples must be >= 1")
        if self.spo2_noise_sd < 0 or self.heart_rate_noise_sd < 0:
            raise ValueError("noise standard deviations must be non-negative")

    @property
    def signal_processing_delay_s(self) -> float:
        """Approximate group delay introduced by the averaging window."""
        return 0.5 * (self.averaging_window_samples - 1) * self.sample_period_s


class PulseOximeter(MedicalDevice):
    """SpO2 / heart-rate monitor publishing to the device network."""

    def __init__(
        self,
        device_id: str,
        patient: PatientModel,
        config: Optional[PulseOximeterConfig] = None,
        *,
        rng: Optional[np.random.Generator] = None,
        trace: Optional[TraceRecorder] = None,
    ) -> None:
        descriptor = DeviceDescriptor(
            device_id=device_id,
            device_type="pulse_oximeter",
            risk_class="II",
            published_topics=("spo2", "heart_rate", "probe_status"),
            accepted_commands=(),
            capabilities=("spo2_monitoring", "heart_rate_monitoring"),
        )
        super().__init__(descriptor, trace=trace)
        self.config = config or PulseOximeterConfig()
        self.config.validate()
        self.patient = patient
        self._noise = None if rng is None else GaussianNoise(rng)
        self._spo2_window = _RollingMean(self.config.averaging_window_samples)
        self._hr_window = _RollingMean(self.config.averaging_window_samples)
        self._frozen = False
        self._probe_off = False
        self._frozen_values: Optional[Tuple[float, float]] = None
        self.readings_published = 0
        self._declare_signals("spo2_reading", "heart_rate_reading")
        self._declare_events("sensor_frozen", "probe_off")

    # --------------------------------------------------------------- process
    def start(self) -> None:
        self.transition(DeviceState.RUNNING)
        self.sample_every(self.config.sample_period_s, self._sample)

    def _sample(self) -> None:  # repro-lint: hot
        if not self.is_operational:
            return
        if self._probe_off:
            # A detached probe reads nonsense near zero; the smart-alarm
            # experiment relies on this signature being distinguishable from
            # true desaturation by its abruptness and by other vitals.
            self.publish_reading("probe_status", 0.0)  # 0.0: detached
            self.publish_reading("spo2", 0.0, valid=False, record="spo2_reading")
            self.publish_reading("heart_rate", 0.0, valid=False)
            return

        vitals = self.patient.vital_signs
        spo2 = vitals.spo2_percent
        heart_rate = vitals.heart_rate_bpm
        noise = self._noise
        if noise is not None:
            spo2 += noise(self.config.spo2_noise_sd)
            heart_rate += noise(self.config.heart_rate_noise_sd)
        # min(max(spo2, 0.0), 100.0) and max(0.0, heart_rate), as comparisons
        # that keep the builtins' choice: max(a, b) is a unless b > a.
        if 0.0 > spo2:
            spo2 = 0.0
        if 100.0 < spo2:
            spo2 = 100.0
        if not heart_rate > 0.0:
            heart_rate = 0.0
        mean_spo2 = self._spo2_window.push(spo2)
        mean_hr = self._hr_window.push(heart_rate)

        if self._frozen:
            if self._frozen_values is None:
                self._frozen_values = (mean_spo2, mean_hr)
            reported_spo2, reported_hr = self._frozen_values
        else:
            reported_spo2, reported_hr = mean_spo2, mean_hr

        self.readings_published += 1
        self.publish_reading("spo2", reported_spo2, record="spo2_reading")
        self.publish_reading("heart_rate", reported_hr, record="heart_rate_reading")

    # ---------------------------------------------------------------- values
    @property
    def current_spo2(self) -> float:
        """Moving-average SpO2 as the device would display it."""
        return self._spo2_window.mean

    @property
    def current_heart_rate(self) -> float:
        return self._hr_window.mean

    # ----------------------------------------------------------- fault hooks
    def freeze(self) -> None:
        """Stuck-sensor fault: keep publishing the last value."""
        self._frozen = True
        self._frozen_values = None
        self._log_event("sensor_frozen", True)

    def unfreeze(self) -> None:
        self._frozen = False
        self._frozen_values = None
        self._log_event("sensor_frozen", False)

    def detach_probe(self) -> None:
        """Probe-off artefact (finger clip falls off)."""
        self._probe_off = True
        self._log_event("probe_off", True)

    def reattach_probe(self) -> None:
        self._probe_off = False
        self._spo2_window.clear()
        self._hr_window.clear()
        self._log_event("probe_off", False)

    def corrupt(self, spo2_offset: float = 0.0, heart_rate_offset: float = 0.0, **_ignored) -> None:
        """Value-corruption fault hook: bias the averaging windows."""
        self._spo2_window.bias(spo2_offset)
        self._hr_window.bias(heart_rate_offset)
