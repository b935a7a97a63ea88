"""Physical constants, unit conversions, characteristic scales and the
checks of times and time grids.

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


def _require_positive(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValidationError(f"{name} must be positive and finite, got {value!r}")


def validate_times(times) -> np.ndarray:
    """Check times (s) are finite and nonnegative; return them as a float
    array of the input's shape (0-d for a scalar)."""
    times = np.asarray(times, dtype=float)
    finite = np.isfinite(times)
    if not finite.all():
        # at most nan, inf and -inf
        bad = np.unique(times[~finite]).tolist()
        raise ValidationError(f"time grid must be finite, got {bad}")
    if np.any(times < 0):
        raise ValidationError("time grid must be nonnegative")
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
        _require_positive("mass", self.mass)
        _require_positive("temperature", self.temperature)
        _require_positive("lattice_a", self.lattice_a)
        if not (isinstance(self.n_cells, int) and self.n_cells >= 1):
            raise ValidationError(f"n_cells must be an integer >= 1, got {self.n_cells!r}")
        # MSDs are reported over a^2 and the plateau takes L^2 (a <= L)
        _require_positive("lattice_a^2", self.lattice_a * self.lattice_a)
        _require_positive("L^2", self.L * self.L)

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

    def __post_init__(self):
        # positive for every valid system, but they can leave the float range
        for name, value in vars(self).items():
            _require_positive(f"derived scale {name}", value)


def derive_scales(sys: PhysicalSystem) -> CharacteristicScales:
    """Derive all characteristic scales from a physical system."""
    hbar = CONST.hbar
    # each denominator below can underflow to 0 (k_B T below about 1e-300
    # K; beta m at a subnormal mass and a huge temperature)
    kT = CONST.k_B * sys.temperature
    if kT == 0.0:
        raise ValidationError(f"k_B T underflows to 0 at temperature {sys.temperature!r} K")
    beta = 1.0 / kT
    if beta * sys.mass == 0.0:
        raise ValidationError(f"beta * mass underflows to 0 at mass {sys.mass!r} kg "
                              f"and temperature {sys.temperature!r} K")
    t_b = hbar * beta
    t_c = sys.L * math.sqrt(sys.mass * beta)
    v_T = 1.0 / math.sqrt(beta * sys.mass)
    lambda_T = math.sqrt(hbar**2 * beta / (2.0 * math.pi * sys.mass))
    D_q = hbar / (2.0 * sys.mass)
    # 2 pi beta hbar^2 underflows to 0 above about 2e279 K
    den = 2.0 * math.pi * beta * hbar**2
    Q_approx = sys.L * math.sqrt(sys.mass / den) if den else math.inf
    return CharacteristicScales(
        beta=beta, t_b=t_b, t_c=t_c, v_T=v_T,
        lambda_T=lambda_T, D_q=D_q, Q_approx=Q_approx,
    )
