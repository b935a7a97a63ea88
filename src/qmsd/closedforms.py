"""Closed analytical formulas: the ideal (infinite-cell) MSD of one Cartesian
component, (hbar/m) * (sqrt(t^2 + t_b^2) - t_b), the J and I special
functions, the closed-form plateau, and the velocity-averaged collision model."""

from __future__ import annotations

import math

import numpy as np

from .constants import (CONST, PhysicalSystem, ValidationError, check_domain,
                        derive_scales, validate_grid, validate_times)

SQRT_PI = math.sqrt(math.pi)
SQRT_2PI = math.sqrt(2.0 * math.pi)
J_AT_ZERO = math.sqrt(2.0) * math.pi / 12.0


def _sqrt_diff(t, t_b):
    # sqrt(t^2 + t_b^2) - t_b, written so that small t does not cancel and
    # no square is formed: t (t / (hypot(t, t_b) + t_b))
    return t * (t / (np.hypot(t, t_b) + t_b))


def msd_ideal(sys: PhysicalSystem, t):
    """MSD of the system's particle, in an infinite cell, at time t >= 0 (m^2)."""
    t = validate_times(t)
    out = (CONST.hbar / sys.mass) * _sqrt_diff(t, derive_scales(sys).t_b)
    return out if out.ndim else float(out)


def msd_ideal_curve(sys: PhysicalSystem, grid) -> np.ndarray:
    """Ideal MSD (m^2) at each time of a validated time grid."""
    return msd_ideal(sys, validate_grid(grid))


def _J_series(u2: float) -> float:
    """sum_m c_m u^(2m - 2) at u2 = u^2, with c_m = (-1)^(m+1) m / (4 (m+2)! (2m+1)),
    summed until a term is below 1 ulp; J(y) = sqrt(2 pi) u^3 times this."""
    total, power, m = 0.0, 1.0, 1
    while True:
        term = power * m / (4 * math.factorial(m + 2) * (2 * m + 1))
        if term < math.ulp(total):
            return total
        total += term if m % 2 else -term
        power *= u2
        m += 1


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
    if u < 1.0:
        # the two terms cancel to O(u^3) as u = 1/sqrt(2y) shrinks: sum the series
        return SQRT_2PI * u * (u * u) * _J_series(u * u)
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


def breve_closed(sys: PhysicalSystem) -> float:
    """Closed-form decohered plateau (m^2): L v_T t_b sqrt(2/pi) J(1 / (2 u^2)),
    with v_T t_b = hbar sqrt(beta / m) and u = L / (v_T t_b); below u = 1, where
    J is its series, it is 2 (L u)^2 _J_series(u^2)."""
    L = sys.L
    # v_T * t_b rounds differently, and moves the cold digests
    vt = math.sqrt(derive_scales(sys).beta) * (CONST.hbar / math.sqrt(sys.mass))
    u = L / vt
    if u < 1.0:
        return 2.0 * (L * u) * (L * u) * _J_series(u * u)
    return L * vt * math.sqrt(2.0 / math.pi) * J((vt / L) * (vt / L) / 2.0)


def msd_collision_model(sys: PhysicalSystem, alpha: float, t):
    """Velocity-averaged MSD of the collision model at time(s) t (m^2).

    An erf-weighted blend of the free (ideal) MSD and the decohered
    plateau: particles of speed v move freely until alpha L / v, then
    a collision pins the MSD at the plateau value; the blend averages
    over the one-sided Maxwell-Boltzmann speed distribution.
    """
    check_domain("alpha", alpha)
    t = validate_times(t)
    # z overflows to inf (erf = 1) at a time as small as 1e-300 s, and at
    # t = 0 it is inf, a point replaced by 0 below
    with np.errstate(divide="ignore", over="ignore"):
        z = alpha * sys.L / (math.sqrt(2.0) * derive_scales(sys).v_T * t)
    # math.erf per point: numpy has none, and math.erf keeps the numbers
    # of the scalar form
    g = np.vectorize(math.erf, otypes=[float])(z)
    # t = 0 (also -0.0, where z is -inf) is exactly 0
    out = np.where(t == 0.0, 0.0, g * msd_ideal(sys, t) + (1.0 - g) * breve_closed(sys))
    return out if out.ndim else float(out)
