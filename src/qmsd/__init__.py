"""Quantum mean square displacement of a thermalized free particle.

Exact coherent basis sums, closed analytical formulas, ideal-gas
scattering observables and a Monte-Carlo random-phase oracle.
"""

__version__ = "0.1.0"

from .basis import EigenBasis, build_basis, partition_function
from .closedforms import (CollisionModelParams, I_ab, J, breve_closed,
                          msd_collision_model)
from .constants import (CONST, CharacteristicScales, PhysicalConstants,
                        PhysicalSystem, ValidationError, derive_scales)
from .curves import MsdCurve, geometric_grid, linear_grid
from .exact import breve_sum, msd_exact_curve
from .ideal import IdealMsdParams, msd_ideal, msd_ideal_curve
from .montecarlo import (EnsembleResult, sample_msd, sample_msd_rerandomized,
                         sample_phases)
from .scattering import ScatteringParams, dsf, isf, isf_phase, pair_correlation_self

__all__ = [
    "CONST", "CharacteristicScales", "CollisionModelParams", "EigenBasis",
    "EnsembleResult", "I_ab", "IdealMsdParams", "J", "MsdCurve",
    "PhysicalConstants", "PhysicalSystem", "ScatteringParams",
    "ValidationError", "breve_closed", "breve_sum", "build_basis",
    "derive_scales", "dsf", "geometric_grid", "isf", "isf_phase",
    "linear_grid", "msd_collision_model", "msd_exact_curve", "msd_ideal",
    "msd_ideal_curve", "pair_correlation_self", "partition_function",
    "sample_msd", "sample_msd_rerandomized", "sample_phases",
]
