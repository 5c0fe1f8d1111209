"""Small statistics helpers for experiment reporting."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence

import numpy as np


@dataclass(frozen=True)
class Summary:
    """Five-number-ish summary of a sample."""

    count: int
    mean: float
    std: float
    minimum: float
    median: float
    maximum: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "count": float(self.count),
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "median": self.median,
            "max": self.maximum,
        }


def summarise(values: Sequence[float]) -> Summary:
    """Summary statistics of ``values`` (which must be non-empty)."""
    array = np.asarray(list(values), dtype=float)
    if array.size == 0:
        raise ValueError("values must be non-empty")
    return Summary(
        count=int(array.size),
        mean=float(array.mean()),
        std=float(array.std(ddof=1)) if array.size > 1 else 0.0,
        minimum=float(array.min()),
        median=float(np.median(array)),
        maximum=float(array.max()),
    )
