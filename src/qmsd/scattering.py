"""Ideal-gas scattering observables: self pair-correlation function,
dynamic structure factor, intermediate scattering function and its phase."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import ValidationError, _require_positive

SQRT_2PI = math.sqrt(2.0 * math.pi)


@dataclass(frozen=True)
class ScatteringParams:
    v_T: float  # m/s
    D_q: float  # m^2/s
    q: float    # 1/m, momentum transfer wavenumber

    def __post_init__(self):
        _require_positive("v_T", self.v_T)
        _require_positive("D_q", self.D_q)
        if not math.isfinite(self.q):
            raise ValidationError(f"q must be finite, got {self.q!r}")


def _delta2(p: ScatteringParams, t):
    """Complex squared length v_T^2 t^2 - 2i D_q t (m^2) of the ideal-gas
    pair correlation function."""
    return p.v_T**2 * t**2 - 2j * p.D_q * t


def pair_correlation_self(p: ScatteringParams, x, t: float):
    """Self-part of the pair correlation function, a complex Gaussian
    with squared width v_T^2 t^2 - 2i D_q t (1/m).

    t = 0 is rejected: the limit is a Dirac delta, not representable.
    """
    if t <= 0:
        raise ValidationError("t must be positive (t = 0 is a distributional limit)")
    delta2 = _delta2(p, t)
    x = np.asarray(x, dtype=float)
    # principal sqrt: Re delta2 > 0 for t > 0, so Gs decays at large |x|
    out = np.exp(-x * x / (2.0 * delta2)) / np.sqrt(2.0 * math.pi * delta2)
    return out if out.ndim else complex(out)


def dsf(p: ScatteringParams, omega):
    """Dynamic structure factor S(q, omega) (s): a Gaussian in omega
    centered at the recoil shift D_q q^2, of width v_T |q|."""
    if p.q == 0:
        raise ValidationError("q must be nonzero for the DSF")
    omega = np.asarray(omega, dtype=float)
    var = p.v_T**2 * p.q**2
    out = np.exp(-((omega - p.D_q * p.q**2) ** 2) / (2.0 * var)) / np.sqrt(2.0 * math.pi * var)
    return out if out.ndim else float(out)


def isf(p: ScatteringParams, t):
    """Intermediate scattering function I(q, t) = exp(-delta2 q^2/4)/sqrt(2 pi).

    Amplitude decays quadratically in t; the phase carries D_q."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValidationError("t must be nonnegative")
    with np.errstate(over="ignore"):
        # -delta2 q^2 / 4 by parts: where v_T^2 t^2 overflows to inf, the
        # complex product would make inf * 0 a NaN; exp(-inf) is 0
        delta2 = _delta2(p, t)
        arg = -delta2.real * p.q**2 / 4.0 + 1j * (-delta2.imag * p.q**2 / 4.0)
    out = np.exp(arg) / SQRT_2PI
    return out if out.ndim else complex(out)


def isf_phase(p: ScatteringParams, t):
    """Unwrapped ISF phase D_q t q^2 / 2 (radians), linear in t."""
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValidationError("t must be nonnegative")
    out = p.D_q * t * p.q**2 / 2.0
    return out if out.ndim else float(out)
