"""Exact coherent double-sum MSD on the plane-wave basis, and the
decohered plateau constant.

Two evaluation paths give the same sum, and the basis decides which one
runs. A converged basis on a cell much longer than the thermal length
takes the O(K) theta series; any other basis takes the O(K^2) direct
pair sum.

Theta series. With d = j - n, s = n + j, eps = hbar^2 (2 pi/L)^2 / 2m,
c = beta eps and a = c/2, the weights are w_n w_j = exp(-c(d^2+s^2)/2)
and the phase is eps d s t / 2 hbar, so

    MSD(t) = 4/Q^2 (L/2pi)^2 sum_{d != 0} e^{-cd^2/2}/d^2
             sum_{s = d mod 2} e^{-as^2} sin^2(b s/2),   b = eps d t/hbar.

Poisson summation (Jacobi's imaginary transformation, DLMF ch. 20) turns
the inner sum over s into sqrt(pi/4a)/2 times the bracket

    -expm1(-b^2/4a) + sum_{nu>=1} (-1)^(nu p) [2 e^{-pi^2 nu^2/4a}
                      - e^{-(b - pi nu)^2/4a} - e^{-(b + pi nu)^2/4a}],

p = d mod 2. The series sums the untruncated lattice, which equals the
basis sum to the edge weight.
"""

from __future__ import annotations

import math

import numpy as np

from .basis import EigenBasis
from .constants import CONST
from .curves import MsdCurve, validate_grid
from .kernels import BLOCK, blocked_sum, msd_reduce, pair_arrays

# theta-series terms below exp(-TAIL) (~1e-40) of the leading one are cut
TAIL = 92.0
# below this a, every 2 e^{-pi^2 nu^2/4a} and e^{-(b + pi nu)^2/4a} term is
# cut, so each (d, t) keeps only the 1-3 images e^{-(b - pi nu)^2/4a} with
# pi nu nearest b (the revivals). Above it (cells shorter than about 48
# thermal lengths) many images overlap and cancel, losing digits, while
# the direct sum over the few states above the weight floor is cheap.
A_MAX = math.pi**2 / (4.0 * TAIL)
# (d, t) elements per vectorised block of the theta series
_BLOCK_ELEMS = 1 << 16


def _lattice_energy(basis: EigenBasis) -> float:
    """eps = hbar^2 (2 pi/L)^2 / 2m, the energy of the n = 1 state (J)."""
    return CONST.hbar**2 * (2.0 * math.pi / basis.L)**2 / (2.0 * basis.mass)


def _use_theta(basis: EigenBasis, weight_floor: float) -> bool:
    """Whether the theta series applies: the basis edge weight is below
    the floor (the basis is converged) and a = beta eps/2 < A_MAX."""
    a = 0.5 * basis.beta * _lattice_energy(basis)
    return bool(basis.w[0] < weight_floor and a < A_MAX)


def _theta_outer(basis: EigenBasis, Q: float):
    """Outer-sum data (d, p = d mod 2, weight g_d, eps/hbar, a) of the series.

    g_d carries every constant factor, so MSD(t) = sum_d g_d bracket_d(t).
    """
    eps = _lattice_energy(basis)
    c = basis.beta * eps
    a = 0.5 * c
    d = np.arange(1.0, math.floor(math.sqrt(2.0 * TAIL / c)) + 1.0)
    # 2 e^{-cd^2/2}/d^2 for d and -d, times sqrt(pi/4a)/2 from the inner sum
    g = (4.0 / Q**2 * (basis.L / (2.0 * math.pi))**2
         * math.sqrt(math.pi / (4.0 * a)) * np.exp(-0.5 * c * d * d) / (d * d))
    return d, d % 2.0, g, eps / CONST.hbar, a


def _theta_msd(basis: EigenBasis, Q: float, times: np.ndarray) -> np.ndarray:
    """Coherent MSD at each time by the theta series, O(K) per time."""
    d, p, g, eps_over_hbar, a = _theta_outer(basis, Q)
    p = p[:, None]
    inv4a = 0.25 / a
    # the image nearest b/pi lies within pi/2 of b, the k-th next beyond
    # pi (k - 1/2); those beyond sqrt(4 a TAIL) are cut
    width = math.floor(math.sqrt(4.0 * a * TAIL) / math.pi + 0.5)
    out = np.empty(times.size)
    step = max(1, _BLOCK_ELEMS // d.size)
    for lo in range(0, times.size, step):
        b = eps_over_hbar * d[:, None] * times[None, lo:lo + step]
        bracket = -np.expm1(-b * b * inv4a)
        centre = np.rint(b / math.pi)
        for k in range(-width, width + 1):
            nu = centre + k
            q = (b - math.pi * nu)**2 * inv4a
            # nu = 0 is the expm1 term above; 1 - 2p(nu mod 2) = (-1)^(nu p)
            bracket -= (np.exp(-q) * ((nu != 0.0) & (q <= TAIL))
                        * (1.0 - 2.0 * p * (nu % 2.0)))
        out[lo:lo + step] = g @ bracket
    return out


def _direct_msd(basis, Q, times, weight_floor):
    wprod, half_omega = pair_arrays(basis, weight_floor)
    return 8.0 / Q**2 * msd_reduce(wprod, half_omega, times)


def msd_exact(basis: EigenBasis, Q: float, t: float,
              weight_floor: float = 1e-18) -> float:
    """Coherent MSD at a single time (m^2).

    A converged basis takes the theta series; otherwise the ordered pairs
    n < j are summed directly and doubled (the sum is symmetric).
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    times = np.array([t], dtype=float)
    if _use_theta(basis, weight_floor):
        return float(_theta_msd(basis, Q, times)[0])
    return float(_direct_msd(basis, Q, times, weight_floor)[0])


def msd_exact_curve(basis: EigenBasis, Q: float, grid,
                    weight_floor: float = 1e-18) -> MsdCurve:
    """Coherent MSD over a time grid; params["path"] names the path taken."""
    times = validate_grid(grid)
    theta = _use_theta(basis, weight_floor)
    if theta:
        values = _theta_msd(basis, Q, times)
    else:
        values = _direct_msd(basis, Q, times, weight_floor)
    return MsdCurve(
        times=times,
        values=values,
        method="exact-sum",
        params={
            "L": basis.L,
            "K": basis.K,
            "beta": basis.beta,
            "mass": basis.mass,
            "path": "theta" if theta else "direct",
            "edge_weight": float(basis.w[0]),
            "weight_floor": weight_floor,
            "reduction_block": BLOCK,
        },
    )


def breve_sum(basis: EigenBasis, Q: float,
              weight_floor: float = 1e-18) -> float:
    """Decohered plateau constant (m^2).

    Equals the coherent sum with every sin^2 factor replaced by 1/2; the
    path is chosen as in msd_exact_curve.
    """
    if _use_theta(basis, weight_floor):
        # the theta bracket's time mean is 1, leaving the outer weights
        return float(np.sum(_theta_outer(basis, Q)[2]))
    wprod, _ = pair_arrays(basis, weight_floor)
    return float(4.0 / Q**2 * blocked_sum(wprod))
