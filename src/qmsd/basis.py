"""Truncated plane-wave eigenbasis on the periodic super-cell.

Wavenumbers q_n = 2 pi n / L, energies E_n = hbar^2 q_n^2 / 2m, Boltzmann
weights and the partition function, on a given or a converged basis.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONST, PhysicalSystem, ValidationError, derive_scales

WEIGHT_FLOOR = 1e-18  # relative to w(n = 1); see EigenBasis.weight_floor
# the most states build_basis makes: the Monte-Carlo check's K x K coupling
# matrix takes 8 K^2 bytes (about 4 times that while it is built), and
# mc-verify peaked at 166 MiB at K = 2049
MAX_K = 2049


@dataclass(frozen=True)
class EigenBasis:
    """Momentum basis n = -M..M with precomputed spectra and weights."""

    indices: np.ndarray  # int, -M..M
    q: np.ndarray        # 1/m
    E: np.ndarray        # J
    w: np.ndarray        # exp(-beta E), dimensionless
    L: float             # m
    beta: float          # 1/J
    mass: float          # kg

    @property
    def K(self) -> int:
        return self.indices.size

    @property
    def M(self) -> int:
        return (self.K - 1) // 2

    @property
    def weight_floor(self) -> float:
        """WEIGHT_FLOOR times w(n = 1), the Boltzmann weight below which a
        state's pairs are below WEIGHT_FLOOR of the largest pairs (0, +-1).

        Relative, so that a cold basis, where w(n = 1) itself is far below
        WEIGHT_FLOOR, keeps its pairs; 1.0 stands for w(n = 1) when K = 1.
        """
        return WEIGHT_FLOOR * (float(self.w[self.M + 1]) if self.M else 1.0)

    @property
    def converged(self) -> bool:
        """Whether the edge weight w[0] is below weight_floor, so that the
        truncated basis sums the infinite lattice to double precision.

        An edge weight of exactly 0 is converged too: on an ultra-cold
        basis w(n = 1) underflows, the floor is 0, and every state past
        n = 0 already contributes nothing.
        """
        return bool(self.w[0] < self.weight_floor or self.w[0] == 0.0)


def lattice_energy(sys: PhysicalSystem) -> float:
    """eps = hbar^2 (2 pi/L)^2 / 2m, the energy of the n = 1 state (J)."""
    return CONST.hbar**2 * (2.0 * math.pi / sys.L)**2 / (2.0 * sys.mass)


def cell_stiffness(sys: PhysicalSystem) -> float:
    """c = beta eps, so that w_n = e^{-c n^2}."""
    return derive_scales(sys).beta * lattice_energy(sys)


def _plane_waves(sys: PhysicalSystem, M: int) -> EigenBasis:
    beta = derive_scales(sys).beta
    indices = np.arange(-M, M + 1)
    q = 2.0 * math.pi * indices / sys.L
    E = CONST.hbar**2 * q**2 / (2.0 * sys.mass)
    w = np.exp(-beta * E)
    return EigenBasis(indices=indices, q=q, E=E, w=w, L=sys.L, beta=beta, mass=sys.mass)


def build_basis(sys: PhysicalSystem, funcs_per_cell: int) -> EigenBasis:
    """Build a basis with K = funcs_per_cell * n_cells functions, rounded
    up to the nearest odd 2M+1 and centered on n = 0; K past MAX_K is
    refused before it is allocated."""
    if funcs_per_cell < 1:
        raise ValidationError("funcs_per_cell must be >= 1")
    M = funcs_per_cell * sys.n_cells // 2
    if 2 * M + 1 > MAX_K:
        raise ValidationError(f"the basis has K = {2 * M + 1} states, past its limit "
                              f"of {MAX_K}")
    return _plane_waves(sys, M)


def converged_basis(sys: PhysicalSystem) -> EigenBasis:
    """The basis n = -M..M that is converged by construction, with no search:
    w(M)/w(1) = e^{-c(M^2 - 1)}, c = beta eps, is below WEIGHT_FLOOR once
    M^2 > 1 + ln(1/WEIGHT_FLOOR)/c. So M, and not n_cells, sets its size."""
    c = cell_stiffness(sys)
    basis = _plane_waves(sys, math.floor(math.sqrt(1.0 - math.log(WEIGHT_FLOOR) / c)) + 1)
    if not basis.converged:
        raise RuntimeError(f"basis n = -{basis.M}..{basis.M} is not converged")
    return basis


def partition_function(basis: EigenBasis) -> float:
    """Canonical partition function, summed smallest weights first."""
    return float(np.sum(np.sort(basis.w)))
