"""Shared pieces of the patient model's step functions.

Every physiology step multiplies state by ``np.exp(-rate * dt_min)``-style
factors, and the step length is the same for a whole run, so each factor
sees one exponent almost every time.  :class:`ExpMemo` keeps the last
exponent and its result; it holds one entry, so it needs no size cap.

The step computes in Python floats: each model's ``advance`` coerces
``dt_min`` to ``float`` once it has checked it, so every exponent is a
float64 and every decay factor is the Python ``float`` of ``np.exp``.
``np.exp`` stays because ``math.exp`` rounds differently for some
exponents; ``+ - * /`` are IEEE either way, and the ``**`` in
:func:`~repro.patient.pharmacodynamics.hill` gives the same bits for a
``float`` and an ``np.float64`` base (``tests/test_patient_step_memo.py``
pins both).

:func:`require_finite_non_negative` is the input check every step and dose
entry point applies; it and :func:`require_finite_positive` are also the
range checks of the parameter classes' ``validate()``.  A step inlines the
comparison and calls the function only to raise its message.
"""

from __future__ import annotations

import math

import numpy as np


class ExpMemo:
    """``float(np.exp(x))`` of a scalar, remembered for the last exponent.

    The key is the exponent itself (value and type), not ``dt_min``, so a
    rate constant changed between steps misses the memo rather than reusing
    a stale factor.  The value is the Python ``float`` of the ``np.float64``
    that ``np.exp`` returned, with the same bits, and a hit returns that
    very object.  Arithmetic on a Python float makes no numpy call.
    """

    __slots__ = ("_exponent", "_value")

    def __init__(self) -> None:
        self._exponent: object = None
        self._value = 0.0

    def __call__(self, exponent: float) -> float:  # repro-lint: hot
        if exponent == self._exponent and type(exponent) is type(self._exponent):
            return self._value
        value = self._value = float(np.exp(exponent))
        self._exponent = exponent
        return value


def require_finite_non_negative(name: str, value: float) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``0 <= value < inf``.

    NaN fails the comparison, so a NaN dose or step is rejected here instead
    of vanishing later (``max(0.0, nan)`` is ``0.0``).
    """
    if not 0 <= value < math.inf:
        raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


def require_finite_positive(name: str, value: float) -> None:
    """Raise ``ValueError`` naming ``name`` unless ``0 < value < inf`` (NaN fails)."""
    if not 0 < value < math.inf:
        raise ValueError(f"{name} must be finite and positive, got {value!r}")
