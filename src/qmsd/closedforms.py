"""Closed analytical formulas: the J and I special functions, the
closed-form plateau, and the velocity-averaged collision model."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (CONST, CharacteristicScales, PhysicalSystem, ValidationError,
                        _require_positive)
from .ideal import _sqrt_diff

SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)
J_AT_ZERO = math.sqrt(2.0) * math.pi / 12.0


def J(y: float) -> float:
    """Plateau shape function, continuous at 0 with J(0) = sqrt(2) pi / 12,
    decreasing to 0 as y -> infinity.

    J(y) = (sqrt(2) pi / 12) erf(1/sqrt(2y))
         + (2 sqrt(pi)/3) sqrt(y) ((1 - e^(-1/2y)) y - (3 - e^(-1/2y))/4)
    """
    if y < 0:
        raise ValidationError(f"y must be nonnegative, got {y!r}")
    if y == 0.0:
        return J_AT_ZERO
    u = 1.0 / math.sqrt(2.0 * y)
    if u < 0.1:
        # the two branches cancel to O(u^3) at large y; use the
        # subtracted series in u = 1/sqrt(2y)
        u2 = u * u
        poly = u2 / 72.0 - u2 * u2 / 240.0 + u2**3 / 1120.0 - u2**4 / 6480.0
        return SQRT_2PI * u * poly
    em = -math.expm1(-1.0 / (2.0 * y))  # 1 - e^(-1/2y), no cancellation
    e = 1.0 - em
    return (J_AT_ZERO * math.erf(u)
            + (2.0 * SQRT_PI / 3.0) * math.sqrt(y) * (em * y - (3.0 - e) / 4.0))


def I_ab(a: float, b: float) -> float:
    """I(a, b) = sqrt(pi) (sqrt(a+b) - sqrt(b)), cancellation-safe for
    a << b."""
    if a < 0:
        raise ValidationError(f"a must be nonnegative, got {a!r}")
    if not b > 0:
        raise ValidationError(f"b must be positive, got {b!r}")
    return SQRT_PI * a / (math.sqrt(a + b) + math.sqrt(b))


def breve_closed(sys: PhysicalSystem, scales: CharacteristicScales) -> float:
    """Closed-form decohered plateau (m^2):
    L hbar sqrt(2 beta / (pi m)) J(hbar^2 beta / (2 m L^2))."""
    hbar = CONST.hbar
    L = sys.L
    beta = scales.beta
    y = hbar**2 * beta / (2.0 * sys.mass * L**2)
    return L * hbar * math.sqrt(2.0 * beta / (math.pi * sys.mass)) * J(y)


@dataclass(frozen=True)
class CollisionModelParams:
    alpha: float  # dimensionless, > 0
    L: float      # m
    v_T: float    # m/s
    t_b: float    # s

    def __post_init__(self):
        for name in ("alpha", "L", "v_T", "t_b"):
            _require_positive(name, getattr(self, name))


def msd_collision_model(p: CollisionModelParams, t):
    """Velocity-averaged MSD of the collision model at time(s) t (m^2).

    An erf-weighted blend of the free (ideal) MSD and the decohered
    plateau: particles of speed v move freely until alpha L / v, then
    a collision pins the MSD at the plateau value; the blend averages
    over the one-sided Maxwell-Boltzmann speed distribution.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValidationError("t must be nonnegative")
    with np.errstate(divide="ignore"):
        z = p.alpha * p.L / (math.sqrt(2.0) * p.v_T * t)
    # math.erf per point: numpy has none, and math.erf keeps the numbers
    # of the scalar form
    g = np.vectorize(math.erf, otypes=[float])(z)
    # the ideal MSD, v_T^2 t_b^2 (sqrt(x^2 + 1) - 1) at x = t / t_b
    # associated as (v_T^2 t_b) t_b where t_b^2 overflows, which it does at
    # a low enough temperature (t_b = hbar beta)
    if math.isfinite(p.t_b * p.t_b):
        scale = p.v_T**2 * p.t_b**2
    else:
        scale = p.v_T**2 * p.t_b * p.t_b
    free = scale * _sqrt_diff(t / p.t_b, 1.0)
    plateau = (p.v_T * p.t_b * p.L * math.sqrt(2.0 / math.pi)
               * J((p.v_T * p.t_b / p.L) ** 2 / 2.0))
    # t = 0 (also -0.0, where z is -inf) is exactly 0
    out = np.where(t == 0.0, 0.0, g * free + (1.0 - g) * plateau)
    return out if out.ndim else float(out)
