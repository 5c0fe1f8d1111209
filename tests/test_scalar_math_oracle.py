"""Pure-Python scalar math on the sample path, with numpy as the oracle.

The oximeter's rolling mean and the clamps in the device and patient
models run in plain Python floats.  numpy is the reference here only:
every result must have the same bits as the numpy expression it replaced.
"""

import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.devices.pulse_oximeter import _RollingMean


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
            window.append(value)
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
            window.append(value)
            held = (held + [value])[-size:]
            assert _bits(window.mean) == _bits(np.mean(np.array(held)))

    @pytest.mark.parametrize("count", [1, 7, 8, 9, 15, 16, 17, 127, 128, 129, 130])
    def test_block_boundaries(self, count):
        rng = np.random.default_rng(count)
        values = [float(v) for v in rng.normal(0.0, 1.0, size=count) * 10.0 ** rng.integers(-6, 6, size=count)]
        window = _RollingMean(count)
        for value in values:
            window.append(value)
        assert _bits(window.mean) == _bits(np.mean(np.array(values)))

    def test_signed_zero_windows(self):
        for count in (1, 7, 8, 9):
            window = _RollingMean(count)
            for _ in range(count):
                window.append(-0.0)
            assert _bits(window.mean) == _bits(np.mean(np.full(count, -0.0)))

    def test_non_finite_samples(self):
        for values in ([math.inf, 1.0], [math.inf, -math.inf], [math.nan, 2.0],
                       [1.0] * 7 + [math.inf], [-math.inf] * 9):
            window = _RollingMean(len(values))
            for value in values:
                window.append(value)
            with np.errstate(invalid="ignore"):
                expected = np.mean(np.array(values))
            assert _bits(window.mean) == _bits(expected)

    def test_mean_is_a_python_float(self):
        window = _RollingMean(4)
        window.append(np.float64(97.25))
        window.bias(np.float64(0.5))
        assert type(window.mean) is float


SPECIAL = [-0.0, 0.0, math.inf, -math.inf, math.nan, np.float64(-0.0), np.float64(42.5),
           np.float64(-3.0), np.float64(math.inf), np.float64(math.nan), 5e-324, -5e-324,
           55.0, 100.0, 10.0, 99.99999999999999, 100.00000000000001]
BOUNDS = [(0.0, 100.0), (55.0, 100.0), (0.0, 10.0), (0.0, 90.0), (60, 100.0)]


def _clamp(value, low, high):
    """The clamp expression used on the sample path."""
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
