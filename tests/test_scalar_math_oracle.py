"""Pure-Python scalar math on the sample path, with numpy as the oracle.

The oximeter's rolling mean and the clamps in the device and patient
models run in plain Python floats.  numpy is the reference here only:
every result must have the same bits as the numpy expression it replaced.
The oximeter and capnograph ticks are also checked whole, against the
builtin ``min``/``max`` formulas their comparisons replaced.
"""

import math
import struct
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.capnograph import BASELINE_ETCO2_MMHG, MAX_ETCO2_MMHG, Capnograph, CapnographConfig
from repro.devices.pulse_oximeter import PulseOximeter, PulseOximeterConfig, _RollingMean
from repro.patient.population import DEFAULT_PATIENT
from repro.patient.vitals import VitalSigns
from repro.sim.kernel import Simulator
from repro.sim.random import GaussianNoise


def _bits(value):
    """Bit pattern of a float; every NaN compares equal to every other."""
    value = float(value)
    return "nan" if math.isnan(value) else struct.pack("<d", value)


samples = st.floats(allow_nan=False, allow_infinity=False, width=64,
                    min_value=-1e12, max_value=1e12)
wide_samples = st.one_of(samples, st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e300, -1e300]))


class TestRollingMeanBits:
    @given(size=st.integers(min_value=1, max_value=130),
           values=st.lists(wide_samples, min_size=1, max_size=300),
           offset=samples,
           after_clear=st.lists(samples, max_size=20))
    @settings(max_examples=150, deadline=None)
    def test_mean_matches_numpy_mean(self, size, values, offset, after_clear):
        window = _RollingMean(size)
        held = []
        for value in values:
            window.push(value)
            held = (held + [value])[-size:]
            assert _bits(window.mean) == _bits(np.mean(np.array(held)))
        assert len(window) == len(held)

        window.bias(offset)
        # The numpy window was biased in place: elementwise float64 adds.
        biased = np.array(held) + offset
        assert _bits(window.mean) == _bits(np.mean(biased))

        window.clear()
        assert math.isnan(window.mean) and len(window) == 0
        held = []
        for value in after_clear:
            window.push(value)
            held = (held + [value])[-size:]
            assert _bits(window.mean) == _bits(np.mean(np.array(held)))

    @pytest.mark.parametrize("count", [1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 130])
    def test_block_boundaries(self, count):
        rng = np.random.default_rng(count)
        values = [float(v) for v in rng.normal(0.0, 1.0, size=count) * 10.0 ** rng.integers(-6, 6, size=count)]
        window = _RollingMean(count)
        for index, value in enumerate(values):
            assert _bits(window.push(value)) == _bits(np.mean(np.array(values[:index + 1])))
        assert _bits(window.mean) == _bits(np.mean(np.array(values)))

    def test_signed_zero_windows(self):
        for count in (1, 7, 8, 9):
            window = _RollingMean(count)
            for _ in range(count):
                window.push(-0.0)
            assert _bits(window.mean) == _bits(np.mean(np.full(count, -0.0)))

    def test_non_finite_samples(self):
        for values in ([math.inf, 1.0], [math.inf, -math.inf], [math.nan, 2.0],
                       [1.0] * 7 + [math.inf], [-math.inf] * 9):
            window = _RollingMean(len(values))
            for value in values:
                window.push(value)
            with np.errstate(invalid="ignore"):
                expected = np.mean(np.array(values))
            assert _bits(window.mean) == _bits(expected)

    def test_mean_is_a_python_float(self):
        window = _RollingMean(4)
        window.push(np.float64(97.25))
        window.bias(np.float64(0.5))
        assert type(window.mean) is float


SPECIAL = [-0.0, 0.0, math.inf, -math.inf, math.nan, np.float64(-0.0), np.float64(42.5),
           np.float64(-3.0), np.float64(math.inf), np.float64(math.nan), 5e-324, -5e-324,
           55.0, 100.0, 10.0, 99.99999999999999, 100.00000000000001]
BOUNDS = [(0.0, 100.0), (55.0, 100.0), (0.0, 10.0), (0.0, 90.0), (60, 100.0)]


def _clamp(value, low, high):
    """The builtin clamp whose choices the sample path's comparisons keep."""
    return float(min(max(value, low), high))


class TestClampBits:
    @pytest.mark.parametrize("low, high", BOUNDS)
    @pytest.mark.parametrize("value", SPECIAL, ids=repr)
    def test_special_values(self, value, low, high):
        assert _bits(_clamp(value, low, high)) == _bits(np.clip(value, low, high))

    @given(value=st.floats(width=64), low=st.floats(allow_nan=False, width=64),
           span=st.floats(min_value=0.0, allow_nan=False, allow_infinity=False, width=64),
           as_numpy=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_random_values(self, value, low, span, as_numpy):
        high = low + span
        if as_numpy:
            value = np.float64(value)
        expected = float(np.clip(value, low, high))
        clamped = _clamp(value, low, high)
        assert type(clamped) is float
        assert _bits(clamped) == _bits(expected)


class _StubPatient:
    """Just what a sensor tick reads of a patient."""

    def __init__(self, baseline_rr):
        self.parameters = replace(DEFAULT_PATIENT, baseline_respiratory_rate_bpm=baseline_rr)
        self.vital_signs = None


def _ticking(device_class, patient, rng, **config):
    simulator = Simulator()
    configs = {PulseOximeter: PulseOximeterConfig, Capnograph: CapnographConfig}
    device = device_class("dev", patient, configs[device_class](**config), rng=rng)
    published = {}
    device.attach_publisher(lambda topic, reading: published.__setitem__(topic, reading.value))
    simulator.register(device)
    return device, published


vital_values = st.one_of(st.floats(-50.0, 250.0),
                         st.sampled_from([-0.0, 0.0, 100.0, math.nan, math.inf, -math.inf]))
noise_sds = st.one_of(st.just(0.0), st.floats(0.0, 200.0))


class TestSensorTickBits:
    """Each tick against the parent's builtin formula: ``min``/``max``, ``float()``, ``np.mean``."""

    @given(ticks=st.lists(st.tuples(vital_values, vital_values), min_size=1, max_size=12),
           window=st.integers(1, 10), noisy=st.booleans(), seed=st.integers(0, 2**16),
           spo2_sd=noise_sds, hr_sd=noise_sds)
    @settings(max_examples=150, deadline=None)
    def test_oximeter_tick(self, ticks, window, noisy, seed, spo2_sd, hr_sd):
        patient = _StubPatient(14.0)
        oximeter, published = _ticking(
            PulseOximeter, patient, np.random.default_rng(seed) if noisy else None,
            averaging_window_samples=window, spo2_noise_sd=spo2_sd, heart_rate_noise_sd=hr_sd)
        noise = GaussianNoise(np.random.default_rng(seed))
        spo2_window, hr_window = [], []
        for spo2, heart_rate in ticks:
            patient.vital_signs = VitalSigns(14.0, spo2, heart_rate, 5.0)
            oximeter._sample()
            if noisy:
                spo2 += noise(spo2_sd)
                heart_rate += noise(hr_sd)
            spo2_window = (spo2_window + [float(min(max(spo2, 0.0), 100.0))])[-window:]
            hr_window = (hr_window + [float(max(0.0, heart_rate))])[-window:]
            with np.errstate(invalid="ignore"):
                assert _bits(published["spo2"]) == _bits(np.mean(spo2_window))
                assert _bits(published["heart_rate"]) == _bits(np.mean(hr_window))
            assert _bits(oximeter.current_spo2) == _bits(published["spo2"])

    @given(ticks=st.lists(st.floats(-10.0, 40.0) | st.sampled_from([-0.0, 0.0, math.nan, math.inf]),
                          min_size=1, max_size=12),
           baseline_rr=st.floats(8.0, 22.0), noisy=st.booleans(), seed=st.integers(0, 2**16),
           rr_sd=noise_sds, etco2_sd=noise_sds)
    @settings(max_examples=150, deadline=None)
    def test_capnograph_tick(self, ticks, baseline_rr, noisy, seed, rr_sd, etco2_sd):
        patient = _StubPatient(baseline_rr)
        capnograph, published = _ticking(
            Capnograph, patient, np.random.default_rng(seed) if noisy else None,
            respiratory_rate_noise_sd=rr_sd, etco2_noise_sd=etco2_sd)
        noise = GaussianNoise(np.random.default_rng(seed))
        for rr in ticks:
            patient.vital_signs = VitalSigns(rr, 97.0, 70.0, 5.0)
            capnograph._sample()
            if noisy:
                rr += noise(rr_sd)
            rr = max(0.0, rr)
            ventilation_fraction = min(1.0, rr / baseline_rr)
            etco2 = BASELINE_ETCO2_MMHG / max(ventilation_fraction,
                                              BASELINE_ETCO2_MMHG / MAX_ETCO2_MMHG)
            if noisy:
                etco2 += noise(etco2_sd)
            etco2 = float(min(max(etco2, 0.0), MAX_ETCO2_MMHG))
            assert _bits(published["respiratory_rate"]) == _bits(rr)
            assert _bits(published["etco2"]) == _bits(etco2)
