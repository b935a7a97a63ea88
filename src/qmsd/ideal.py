"""Closed-form MSD of the ideal (infinite-cell) thermalized free particle.

The result, for one Cartesian component of the displacement, is
(hbar/m) * (sqrt(t^2 + t_b^2) - t_b).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import CONST, ValidationError
from .curves import MsdCurve, validate_grid


@dataclass(frozen=True)
class IdealMsdParams:
    mass: float  # kg
    t_b: float   # s

    def __post_init__(self):
        if not self.mass > 0:
            raise ValidationError(f"mass must be positive, got {self.mass!r}")
        if not self.t_b > 0:
            raise ValidationError(f"t_b must be positive, got {self.t_b!r}")


def _sqrt_diff(t, t_b):
    # sqrt(t^2 + t_b^2) - t_b, written so the small-t branch does not
    # cancel: t^2 / (sqrt(t^2 + t_b^2) + t_b)
    t = np.asarray(t, dtype=float)
    return t * t / (np.sqrt(t * t + t_b * t_b) + t_b)


def msd_ideal(p: IdealMsdParams, t):
    """MSD of an ideal thermalized particle at time t >= 0 (m^2)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValidationError("t must be nonnegative")
    out = (CONST.hbar / p.mass) * _sqrt_diff(t, p.t_b)
    return out if out.ndim else float(out)


def msd_ideal_curve(p: IdealMsdParams, grid) -> MsdCurve:
    """Pointwise ideal MSD over a time grid."""
    times = validate_grid(grid)
    values = msd_ideal(p, times)
    return MsdCurve(
        times=times,
        values=np.atleast_1d(values),
        method="ideal-analytic",
    )


def complex_squared_length(v_T: float, D_q: float, t) -> complex:
    """Complex squared length v_T^2 t^2 - 2i D_q t of the ideal-gas
    pair correlation function."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValidationError("t must be nonnegative")
    out = v_T * v_T * t * t - 2j * D_q * t
    return out if out.ndim else complex(out)
