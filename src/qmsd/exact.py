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

from .basis import EigenBasis, partition_function
from .constants import CONST, validate_grid
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
# -expm1(-x) rounds to exactly 1.0 once e^{-x} < 2^-54 (x > 54 ln 2 = 37.4),
# so the bracket's leading term is evaluated only where x = b^2/4a < X_CUT
X_CUT = 38.0
# relative slack on the bounds in b that select elements, far above the
# few roundings in b, x and q
_SLACK = 1e-9


def _lattice_energy(basis: EigenBasis) -> float:
    """eps = hbar^2 (2 pi/L)^2 / 2m, the energy of the n = 1 state (J)."""
    return CONST.hbar**2 * (2.0 * math.pi / basis.L)**2 / (2.0 * basis.mass)


def _use_theta(basis: EigenBasis) -> bool:
    """Whether the theta series applies: the basis is converged and
    a = beta eps/2 < A_MAX."""
    a = 0.5 * basis.beta * _lattice_energy(basis)
    return basis.converged and a < A_MAX


def _theta_outer(basis: EigenBasis):
    """Outer-sum data (d, p = d mod 2, weight g_d, eps/hbar, a) of the series.

    g_d carries every constant factor, so MSD(t) = sum_d g_d bracket_d(t).
    """
    Q = partition_function(basis)
    eps = _lattice_energy(basis)
    c = basis.beta * eps
    a = 0.5 * c
    d = np.arange(1.0, math.floor(math.sqrt(2.0 * TAIL / c)) + 1.0)
    # 2 e^{-cd^2/2}/d^2 for d and -d, times sqrt(pi/4a)/2 from the inner sum
    g = (4.0 / Q**2 * (basis.L / (2.0 * math.pi))**2
         * math.sqrt(math.pi / (4.0 * a)) * np.exp(-0.5 * c * d * d) / (d * d))
    return d, d % 2.0, g, eps / CONST.hbar, a


def _row_prefixes(lengths: np.ndarray):
    """(rows, cols) of the first lengths[i] columns of each row i."""
    rows = np.repeat(np.arange(lengths.size), lengths)
    cols = np.arange(rows.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return rows, cols


def _theta_msd(basis: EigenBasis, times: np.ndarray) -> np.ndarray:
    """Coherent MSD at each time by the theta series, O(K) per time.

    Each block of the (d, t) bracket starts at 1.0, and the transcendental
    terms are evaluated only where they can change it. b = (eps/hbar) d t
    grows with d and with t, so:
    - x = b^2/4a < X_CUT on the first columns of each row; only there is
      -expm1(-x) evaluated, and beyond them it is exactly 1.0;
    - an image nu != 0 with q = (b - pi nu)^2/4a <= TAIL needs
      b >= pi - sqrt(4 a TAIL), so the images are scanned only in the
      columns where the largest d reaches that, and exp runs only on the
      terms that the cut keeps.
    Every evaluated element sees the expressions of the dense series in
    the same order, k = -width..width, and the cut terms there are exact
    zeros, so every output bit equals the dense series.
    """
    d, p, g, eps_over_hbar, a = _theta_outer(basis)
    inv4a = 0.25 / a
    reach = math.sqrt(4.0 * a * TAIL)
    # the image nearest b/pi lies within pi/2 of b, the k-th next beyond
    # pi (k - 1/2); those beyond reach are cut
    width = math.floor(reach / math.pi + 0.5)
    ed = eps_over_hbar * d
    b_cut = math.sqrt(X_CUT / inv4a) * (1.0 + _SLACK)
    b_image = (math.pi - reach) * (1.0 - _SLACK)
    out = np.empty(times.size)
    step = max(1, _BLOCK_ELEMS // d.size)
    for lo in range(0, times.size, step):
        t = times[lo:lo + step]
        bracket = np.ones((d.size, t.size))
        flat = bracket.ravel()
        rows, cols = _row_prefixes(np.searchsorted(t, b_cut / ed, "right"))
        b = ed[rows] * t[cols]
        flat[rows * t.size + cols] = -np.expm1(-b * b * inv4a)
        first = int(np.searchsorted(t, b_image / ed[-1]))
        n = t.size - first
        if n:
            b = ed[:, None] * t[None, first:]
            # one layer per k = -width..width
            nu = np.rint(b / math.pi) + np.arange(-width, width + 1.0)[:, None, None]
            # at a huge b, b - pi nu is of the order of b's ulp, and its square
            # can overflow to inf, a q that the cut drops
            with np.errstate(over="ignore"):
                q = (b - math.pi * nu)**2 * inv4a
            # nu = 0 is the expm1 term; a NaN q (b overflowed) is kept, as
            # the dense series' NaN * 0 would be
            i = np.flatnonzero((nu != 0.0) & ~(q > TAIL))
            e = i % b.size
            row = e // n
            nu = nu.ravel()[i]
            # (-1)^(nu p) = 1 - 2p(nu mod 2), with nu mod 2 taken exactly
            # by floor: the same +-1 as %, at a fraction of its cost
            parity = nu - 2.0 * np.floor(0.5 * nu)
            term = np.exp(-q.ravel()[i]) * (1.0 - 2.0 * p[row] * parity)
            # element e of b is bracket[row, first + e % n]; subtract.at
            # applies the terms in the order of i, so k ascending per element
            np.subtract.at(flat, e + first * (row + 1), term)
        out[lo:lo + step] = g @ bracket
    return out


def exact_params(basis: EigenBasis) -> dict:
    """The exact sum's parameters on a basis: the cell, the path that
    msd_exact_curve and breve_sum take, and the convergence that picks it."""
    return {
        "L": basis.L,
        "K": basis.K,
        "beta": basis.beta,
        "mass": basis.mass,
        "path": "theta" if _use_theta(basis) else "direct",
        "edge_weight": float(basis.w[0]),
        "weight_floor": basis.weight_floor,
        "reduction_block": BLOCK,
    }


def msd_exact_curve(basis: EigenBasis, grid) -> np.ndarray:
    """Coherent MSD (m^2) at each time of a validated time grid, normalised
    by the basis's own partition function; exact_params names the path."""
    times = validate_grid(grid)
    if _use_theta(basis):
        return _theta_msd(basis, times)
    # the ordered pairs n < j, doubled (the sum is symmetric)
    wprod, half_omega = pair_arrays(basis)
    return 8.0 / partition_function(basis)**2 * msd_reduce(wprod, half_omega, times)


def breve_sum(basis: EigenBasis) -> float:
    """Decohered plateau constant (m^2).

    Equals the coherent sum with every sin^2 factor replaced by 1/2; the
    path is chosen as in msd_exact_curve.
    """
    if _use_theta(basis):
        # the theta bracket's time mean is 1, leaving the outer weights
        return float(np.sum(_theta_outer(basis)[2]))
    wprod, _ = pair_arrays(basis)
    return float(4.0 / partition_function(basis)**2 * blocked_sum(wprod))
