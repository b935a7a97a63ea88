"""Closed-form MSD of the ideal (infinite-cell) thermalized free particle.

The result, for one Cartesian component of the displacement, is
(hbar/m) * (sqrt(t^2 + t_b^2) - t_b).
"""

from __future__ import annotations

import numpy as np

from .constants import CONST, PhysicalSystem, ValidationError, derive_scales
from .curves import MsdCurve, validate_grid


def _sqrt_diff(t, t_b):
    # sqrt(t^2 + t_b^2) - t_b, written so the small-t branch does not
    # cancel: t^2 / (sqrt(t^2 + t_b^2) + t_b)
    t = np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        tt = t * t
    # the form tends to t; where t * t overflows (t beyond about 1.3e154 s)
    # an overflow-free form takes over
    over = np.isinf(tt) & np.isfinite(t)
    tt = np.where(over, 1.0, tt)
    return np.where(over, t * (t / (np.hypot(t, t_b) + t_b)),
                    tt / (np.sqrt(tt + t_b * t_b) + t_b))


def msd_ideal(sys: PhysicalSystem, t):
    """MSD of the system's particle, in an infinite cell, at time t >= 0 (m^2)."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValidationError("t must be nonnegative")
    out = (CONST.hbar / sys.mass) * _sqrt_diff(t, derive_scales(sys).t_b)
    return out if out.ndim else float(out)


def msd_ideal_curve(sys: PhysicalSystem, grid) -> MsdCurve:
    """Pointwise ideal MSD over a time grid."""
    times = validate_grid(grid)
    values = msd_ideal(sys, times)
    return MsdCurve(
        times=times,
        values=np.atleast_1d(values),
        method="ideal-analytic",
    )
