"""Truncated plane-wave eigenbasis on the periodic super-cell.

Wavenumbers q_n = 2 pi n / L, energies E_n = hbar^2 q_n^2 / 2m, Boltzmann
weights and the partition function.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .constants import CONST, PhysicalSystem, ValidationError


class TruncationWarning(UserWarning):
    """Boltzmann weight at the basis edge exceeds the adequacy cutoff."""


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


def build_basis(sys: PhysicalSystem, funcs_per_cell: int,
                edge_weight_cutoff: float = 1e-12) -> EigenBasis:
    """Build a basis with K = funcs_per_cell * n_cells functions, rounded
    up to the nearest odd 2M+1 and centered on n = 0.

    Warns (does not fail) if the edge Boltzmann weight exceeds the cutoff.
    """
    if funcs_per_cell < 1:
        raise ValidationError("funcs_per_cell must be >= 1")
    K = funcs_per_cell * sys.n_cells
    if K % 2 == 0:
        K += 1
    M = (K - 1) // 2
    L = sys.L
    beta = 1.0 / (CONST.k_B * sys.temperature)
    indices = np.arange(-M, M + 1)
    q = 2.0 * math.pi * indices / L
    E = CONST.hbar**2 * q**2 / (2.0 * sys.mass)
    w = np.exp(-beta * E)
    if M > 0 and w[0] > edge_weight_cutoff:
        warnings.warn(
            f"edge Boltzmann weight {w[0]:.3e} exceeds cutoff "
            f"{edge_weight_cutoff:.1e}; basis may be under-truncated",
            TruncationWarning,
        )
    return EigenBasis(indices=indices, q=q, E=E, w=w, L=L, beta=beta, mass=sys.mass)


def partition_function(basis: EigenBasis) -> float:
    """Canonical partition function, summed smallest weights first."""
    return float(np.sum(np.sort(basis.w)))
