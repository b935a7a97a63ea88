"""Truncated plane-wave eigenbasis on the periodic super-cell.

Wavenumbers q_n = 2 pi n / L, energies E_n = hbar^2 q_n^2 / 2m, Boltzmann
weights and the partition function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import CONST, PhysicalSystem, ValidationError, derive_scales

WEIGHT_FLOOR = 1e-18  # relative to w(n = 1); see EigenBasis.weight_floor


class TruncationWarning(UserWarning):
    """The basis is not converged: its edge weight is not below its floor."""


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


def build_basis(sys: PhysicalSystem, funcs_per_cell: int) -> EigenBasis:
    """Build a basis with K = funcs_per_cell * n_cells functions, rounded
    up to the nearest odd 2M+1 and centered on n = 0."""
    if funcs_per_cell < 1:
        raise ValidationError("funcs_per_cell must be >= 1")
    K = funcs_per_cell * sys.n_cells
    if K % 2 == 0:
        K += 1
    M = (K - 1) // 2
    L = sys.L
    beta = derive_scales(sys).beta
    indices = np.arange(-M, M + 1)
    q = 2.0 * math.pi * indices / L
    E = CONST.hbar**2 * q**2 / (2.0 * sys.mass)
    w = np.exp(-beta * E)
    return EigenBasis(indices=indices, q=q, E=E, w=w, L=L, beta=beta, mass=sys.mass)


def partition_function(basis: EigenBasis) -> float:
    """Canonical partition function, summed smallest weights first."""
    return float(np.sum(np.sort(basis.w)))
