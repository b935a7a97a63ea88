"""Time grids and the MsdCurve result container."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .constants import ValidationError

def _check_grid_spec(start: float, stop: float, count: int) -> None:
    if count < 1:
        raise ValidationError("grid count must be >= 1")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValidationError(f"grid endpoints must be finite, got {start} and {stop}")


def linear_grid(start: float, stop: float, count: int) -> np.ndarray:
    _check_grid_spec(start, stop, count)
    return np.linspace(start, stop, count)


def geometric_grid(start: float, stop: float, count: int) -> np.ndarray:
    _check_grid_spec(start, stop, count)
    if start <= 0 or stop <= 0:
        raise ValidationError("geometric grid requires positive endpoints")
    return np.geomspace(start, stop, count)


def validate_grid(times: np.ndarray) -> np.ndarray:
    """Check a time grid is nonempty, finite, nonnegative and strictly
    increasing."""
    times = np.asarray(times, dtype=float)
    if times.size == 0:
        raise ValidationError("empty time grid")
    finite = np.isfinite(times)
    if not finite.all():
        # at most nan, inf and -inf
        bad = np.unique(times[~finite]).tolist()
        raise ValidationError(f"time grid must be finite, got {bad}")
    if times[0] < 0:
        raise ValidationError("time grid must be nonnegative")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValidationError("time grid must be strictly increasing")
    return times


@dataclass
class MsdCurve:
    """MSD values on a time grid, with method tag and parameter snapshot."""

    times: np.ndarray   # s
    values: np.ndarray  # m^2
    method: str
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have equal length")
