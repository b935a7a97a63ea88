"""Quantum mean square displacement of a thermalized free particle.

Exact coherent basis sums, closed analytical formulas, ideal-gas
scattering observables and a Monte-Carlo random-phase oracle.
"""

__version__ = "0.1.0"

from .basis import EigenBasis, build_basis, converged_basis, partition_function
from .closedforms import (I_ab, J, breve_closed, msd_collision_model, msd_ideal,
                          msd_ideal_curve)
from .constants import (CONST, CharacteristicScales, PhysicalConstants,
                        PhysicalSystem, ValidationError, derive_scales)
from .exact import (breve_basis_sum, breve_sum, exact_params, msd_basis_curve,
                    msd_exact_curve)
from .montecarlo import (EnsembleResult, sample_msd, sample_msd_rerandomized,
                         sample_phases)
from .scattering import dsf, isf, isf_phase, pair_correlation_self

__all__ = [
    "CONST", "CharacteristicScales", "EigenBasis", "EnsembleResult", "I_ab",
    "J", "PhysicalConstants", "PhysicalSystem", "ValidationError",
    "breve_basis_sum", "breve_closed", "breve_sum", "build_basis",
    "converged_basis", "derive_scales", "dsf", "exact_params", "isf",
    "isf_phase", "msd_basis_curve", "msd_collision_model", "msd_exact_curve",
    "msd_ideal", "msd_ideal_curve", "pair_correlation_self",
    "partition_function", "sample_msd", "sample_msd_rerandomized",
    "sample_phases",
]
