"""Physical constants, unit conversions, the physical domain, characteristic
scales and the checks of times and time grids.

Internal unit system is SI throughout. ``PhysicalSystem.from_user_units``
accepts atomic mass units, kelvin and picometres and converts once at the
boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class ValidationError(ValueError):
    """A physical parameter failed validation."""


@dataclass(frozen=True)
class PhysicalConstants:
    """2019 SI defining constants (exact, not configurable)."""

    k_B: float = 1.380649e-23       # J/K
    h: float = 6.62607015e-34       # J s
    amu: float = 1.66053906660e-27  # kg

    @property
    def hbar(self) -> float:
        return self.h / (2.0 * math.pi)


CONST = PhysicalConstants()

# unit conversions (SI <-> user-facing units)
U_TO_KG = CONST.amu
PM_TO_M = 1e-12
ANGSTROM_TO_M = 1e-10
J_TO_MEV = 1e3 / 1.602176634e-19


# The physical domain: quantity -> (low, high, unit, SI value of the unit).
# Each input is checked against it where it enters; inside it every derived
# scale, and every square that the closed forms form, is a normal double
# with a margin of at least 1e100 (README, "Physical domain").
DOMAIN = {
    "mass_u": (1e-4, 1e6, "u", U_TO_KG),
    "temperature_K": (1e-9, 1e6, "K", 1.0),
    "lattice_pm": (1.0, 1e6, "pm", PM_TO_M),
    "n_cells": (1, 10**6, "cells", 1),
    "t_s": (0.0, 1e6, "s", 1.0),
    "q_inv_angstrom": (1e-6, 100.0, "1/Angstrom", 1.0 / ANGSTROM_TO_M),
    "alpha": (1e-6, 1e6, "L", 1.0),
}


def check_domain(key: str, value) -> None:
    """Refuse a value (in SI units) outside DOMAIN[key], naming the bound."""
    lo, hi, unit, si = DOMAIN[key]
    if not lo * si <= value <= hi * si:  # NaN fails too
        raise ValidationError(f"{key} = {value / si:.15g} {unit} is outside the physical "
                              f"domain [{lo:g}, {hi:g}] {unit}")


def validate_times(times) -> np.ndarray:
    """Check times (s) lie in DOMAIN's t_s, finite and nonnegative; return
    them as a float array of the input's shape (0-d for a scalar)."""
    times = np.asarray(times, dtype=float)
    # a NaN is the min and the max; initial=0.0 stands in for no times
    check_domain("t_s", np.min(times, initial=0.0))
    check_domain("t_s", np.max(times, initial=0.0))
    return times


def validate_grid(times) -> np.ndarray:
    """Check a time grid is nonempty, finite, nonnegative and strictly
    increasing."""
    times = validate_times(times)
    if times.size == 0:
        raise ValidationError("empty time grid")
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise ValidationError("time grid must be strictly increasing")
    return times


@dataclass(frozen=True)
class PhysicalSystem:
    """A free particle on a periodic super-cell, all fields in SI units."""

    mass: float          # kg
    temperature: float   # K
    lattice_a: float     # m
    n_cells: int

    def __post_init__(self):
        check_domain("mass_u", self.mass)
        check_domain("temperature_K", self.temperature)
        check_domain("lattice_pm", self.lattice_a)
        if not isinstance(self.n_cells, int):
            raise ValidationError(f"n_cells must be an integer, got {self.n_cells!r}")
        check_domain("n_cells", self.n_cells)

    @property
    def L(self) -> float:
        """Super-cell length L = n_cells * lattice_a (m)."""
        return self.n_cells * self.lattice_a

    @classmethod
    def from_user_units(cls, mass_u, temperature_K, lattice_pm, n_cells) -> "PhysicalSystem":
        return cls(
            mass=mass_u * U_TO_KG,
            temperature=temperature_K,
            lattice_a=lattice_pm * PM_TO_M,
            n_cells=n_cells,
        )


@dataclass(frozen=True)
class CharacteristicScales:
    """Derived time, length and velocity scales of a thermal free particle."""

    beta: float      # 1/J
    t_b: float       # s, thermal time hbar*beta
    t_c: float       # s, collision time L*sqrt(m*beta)
    v_T: float       # m/s, thermal speed
    lambda_T: float  # m, thermal de Broglie length
    D_q: float       # m^2/s, hbar/2m
    Q_approx: float  # dimensionless, continuum partition function


def derive_scales(sys: PhysicalSystem) -> CharacteristicScales:
    """Derive all characteristic scales from a physical system."""
    hbar = CONST.hbar
    beta = 1.0 / (CONST.k_B * sys.temperature)
    t_b = hbar * beta
    t_c = sys.L * math.sqrt(sys.mass * beta)
    v_T = 1.0 / math.sqrt(beta * sys.mass)
    lambda_T = math.sqrt(hbar**2 * beta / (2.0 * math.pi * sys.mass))
    D_q = hbar / (2.0 * sys.mass)
    Q_approx = sys.L * math.sqrt(sys.mass / (2.0 * math.pi * beta * hbar**2))
    return CharacteristicScales(
        beta=beta, t_b=t_b, t_c=t_c, v_T=v_T,
        lambda_T=lambda_T, D_q=D_q, Q_approx=Q_approx,
    )
