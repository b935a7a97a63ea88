"""Ideal-gas scattering observables: self pair-correlation function,
dynamic structure factor, intermediate scattering function and its phase."""

from __future__ import annotations

import math

import numpy as np

from .constants import (PhysicalSystem, ValidationError, check_domain, derive_scales,
                        validate_times)

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _require_q(q: float) -> None:
    check_domain("q_inv_angstrom", abs(q))


def _delta2(sys: PhysicalSystem, t):
    """Complex squared length v_T^2 t^2 - 2i D_q t (m^2) of the ideal-gas
    pair correlation function."""
    s = derive_scales(sys)
    return s.v_T**2 * t**2 - 2j * s.D_q * t


def pair_correlation_self(sys: PhysicalSystem, x, t: float):
    """Self-part of the pair correlation function, a complex Gaussian
    with squared width v_T^2 t^2 - 2i D_q t (1/m).

    t = 0 is rejected: the limit is a Dirac delta, not representable.
    """
    if t <= 0:
        raise ValidationError("t must be positive (t = 0 is a distributional limit)")
    delta2 = _delta2(sys, t)
    x = np.asarray(x, dtype=float)
    # principal sqrt: Re delta2 > 0 for t > 0, so Gs decays at large |x|
    out = np.exp(-x * x / (2.0 * delta2)) / np.sqrt(2.0 * math.pi * delta2)
    return out if out.ndim else complex(out)


def dsf(sys: PhysicalSystem, q: float, omega):
    """Dynamic structure factor S(q, omega) (s): exp(-z^2 / 2) / (sqrt(2 pi) v_T |q|),
    z = (omega - D_q q^2) / (v_T |q|), a Gaussian centered at the recoil shift D_q q^2."""
    _require_q(q)
    s = derive_scales(sys)
    omega = np.asarray(omega, dtype=float)
    width = s.v_T * abs(q)
    with np.errstate(over="ignore"):
        # far from omega0, z or its square overflows to inf; exp(-inf) is 0.
        # z / width would round differently and move dsf.csv
        z = (omega - s.D_q * q**2) / abs(q) / s.v_T
        out = np.exp(-0.5 * z * z) / (SQRT_2PI * width)
    return out if out.ndim else float(out)


def isf(sys: PhysicalSystem, q: float, t):
    """Intermediate scattering function I(q, t) = exp(-delta2 q^2/4)/sqrt(2 pi).

    Amplitude decays quadratically in t; the phase carries D_q."""
    _require_q(q)
    t = validate_times(t)
    out = np.exp(-_delta2(sys, t) * q**2 / 4.0) / SQRT_2PI
    return out if out.ndim else complex(out)


def isf_phase(sys: PhysicalSystem, q: float, t):
    """Unwrapped ISF phase D_q t q^2 / 2 (radians), linear in t."""
    _require_q(q)
    t = validate_times(t)
    out = derive_scales(sys).D_q * t * q**2 / 2.0
    return out if out.ndim else float(out)
