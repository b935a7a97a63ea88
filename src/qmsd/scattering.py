"""Ideal-gas scattering observables: self pair-correlation function,
dynamic structure factor, intermediate scattering function and its phase."""

from __future__ import annotations

import math

import numpy as np

from .constants import PhysicalSystem, ValidationError, derive_scales

SQRT_2PI = math.sqrt(2.0 * math.pi)


def _require_q(q: float) -> None:
    if not math.isfinite(q):
        raise ValidationError(f"q must be finite, got {q!r}")
    # q^2 is a factor of every observable here; a Python float power
    # raises OverflowError where a product would give inf
    if not math.isfinite(q * q):
        raise ValidationError(f"q^2 overflows: q = {q!r} 1/m")


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
    """Dynamic structure factor S(q, omega) (s): a Gaussian in omega
    centered at the recoil shift D_q q^2, of width v_T |q|."""
    _require_q(q)
    if q == 0:
        raise ValidationError("q must be nonzero for the DSF")
    s = derive_scales(sys)
    omega = np.asarray(omega, dtype=float)
    var = s.v_T**2 * q**2
    if not (var >= np.finfo(float).tiny and math.isfinite(2.0 * math.pi * var)):
        # v_T^2 q^2 is subnormal or 0, or 2 pi v_T^2 q^2 overflows, while
        # the width v_T |q| may not: form the Gaussian in
        # z = (omega - omega0) / (v_T |q|), not in var
        width = s.v_T * abs(q)
        # the peak 1 / (sqrt(2 pi) width) must be a finite double
        if width == 0.0 or math.isinf(1.0 / (SQRT_2PI * width)):
            raise ValidationError(f"the DSF peak overflows: q = {q!r} 1/m")
        with np.errstate(over="ignore"):
            # far from omega0, z or its square overflows to inf; exp(-inf) is 0
            z = (omega - s.D_q * q**2) / width
            out = np.exp(-0.5 * z * z) / (SQRT_2PI * width)
    else:
        with np.errstate(over="ignore"):
            # far from omega0, (omega - omega0)^2 overflows to inf; exp(-inf) is 0
            arg = -((omega - s.D_q * q**2) ** 2) / (2.0 * var)
        out = np.exp(arg) / np.sqrt(2.0 * math.pi * var)
    return out if out.ndim else float(out)


def isf(sys: PhysicalSystem, q: float, t):
    """Intermediate scattering function I(q, t) = exp(-delta2 q^2/4)/sqrt(2 pi).

    Amplitude decays quadratically in t; the phase carries D_q."""
    _require_q(q)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValidationError("t must be nonnegative")
    with np.errstate(over="ignore"):
        # -delta2 q^2 / 4 by parts: where v_T^2 t^2 overflows to inf, the
        # complex product would make inf * 0 a NaN; exp(-inf) is 0
        delta2 = _delta2(sys, t)
        arg = -delta2.real * q**2 / 4.0 + 1j * (-delta2.imag * q**2 / 4.0)
    out = np.exp(arg) / SQRT_2PI
    return out if out.ndim else complex(out)


def isf_phase(sys: PhysicalSystem, q: float, t):
    """Unwrapped ISF phase D_q t q^2 / 2 (radians), linear in t."""
    _require_q(q)
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValidationError("t must be nonnegative")
    out = derive_scales(sys).D_q * t * q**2 / 2.0
    return out if out.ndim else float(out)
