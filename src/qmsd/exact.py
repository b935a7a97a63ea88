"""Exact coherent double-sum MSD on the plane-wave basis, and the
decohered plateau constant.

The physical routes take the PhysicalSystem, and the cell picks the path: a
cell much longer than the thermal length takes the O(K) theta series, with
no basis; any other the O(K^2) direct pair sum over its converged basis (at
most 57 states). The given-basis routes always take the direct sum.

Theta series. With d = j - n, s = n + j, eps = hbar^2 (2 pi/L)^2 / 2m,
c = beta eps and a = c/2, the weights are w_n w_j = exp(-c(d^2+s^2)/2)
and the phase is eps d s t / 2 hbar, so

    MSD(t) = 4/Q^2 (L/2pi)^2 sum_{d != 0} e^{-cd^2/2}/d^2
             sum_{s = d mod 2} e^{-as^2} sin^2(b s/2),   b = eps d t/hbar.

Poisson summation (Jacobi's imaginary transformation, DLMF ch. 20) turns
the inner sum over s into sqrt(pi/4a)/2 times the bracket

    -expm1(-b^2/4a) + sum_{nu>=1} (-1)^(nu p) [2 e^{-pi^2 nu^2/4a}
                      - e^{-(b - pi nu)^2/4a} - e^{-(b + pi nu)^2/4a}],

p = d mod 2. The series sums the untruncated lattice, whose Q is the continuum
Q_approx = sqrt(pi/c): its Jacobi dual's images are below e^{-92}.

Direct pair sum: pair_arrays gives the pairs n < j above the weight floor;
msd_reduce sums them by one np.sum per time, and blocked_sum plain values by
one np.sum (numpy's pairwise summation, deterministic run to run).
"""

from __future__ import annotations

import math

import numpy as np

from .basis import (EigenBasis, cell_stiffness, converged_basis, lattice_energy,
                    partition_function)
from .constants import (CONST, PhysicalSystem, ValidationError, derive_scales,
                        validate_grid)

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
# the theta series' limits: d_max = sqrt(2 TAIL/c) ~ L sqrt(mT) outer terms set
# its memory, and d_max x times elements its time (~12 s at 8e7 per s)
MAX_OUTER = 1 << 18
MAX_WORK = 10**9


def _use_theta(system: PhysicalSystem) -> bool:
    """Whether the theta series applies: a = beta eps/2 < A_MAX."""
    return 0.5 * cell_stiffness(system) < A_MAX


def _theta_outer(system: PhysicalSystem, n_times: int):
    """Outer-sum data (d, p = d mod 2, weight g_d, eps/hbar, a) of the series.

    g_d carries every constant factor, so MSD(t) = sum_d g_d bracket_d(t).
    A series past MAX_OUTER or MAX_WORK at n_times times is refused first.
    """
    c = cell_stiffness(system)
    a = 0.5 * c
    d_max = math.sqrt(2.0 * TAIL / c)
    if not (d_max <= MAX_OUTER and d_max * n_times <= MAX_WORK):
        raise ValidationError(f"the theta series needs d_max = {d_max:.4g} at {n_times} "
                              f"time(s), past its limits of {MAX_OUTER} outer terms "
                              f"and {MAX_WORK:.0e} terms x times")
    d = np.arange(1.0, math.floor(d_max) + 1.0)
    # 2 e^{-cd^2/2}/d^2 for d and -d, times sqrt(pi/4a)/2 from the inner sum
    g = (4.0 / derive_scales(system).Q_approx**2 * (system.L / (2.0 * math.pi))**2
         * math.sqrt(math.pi / (4.0 * a)) * np.exp(-0.5 * c * d * d) / (d * d))
    return d, d % 2.0, g, lattice_energy(system) / CONST.hbar, a


def _row_prefixes(lengths: np.ndarray):
    """(rows, cols) of the first lengths[i] columns of each row i."""
    rows = np.repeat(np.arange(lengths.size), lengths)
    cols = np.arange(rows.size) - np.repeat(np.cumsum(lengths) - lengths, lengths)
    return rows, cols


def _theta_msd(system: PhysicalSystem, times: np.ndarray) -> np.ndarray:
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
    d, p, g, eps_over_hbar, a = _theta_outer(system, times.size)
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
            q = (b - math.pi * nu)**2 * inv4a
            # nu = 0 is the expm1 term
            i = np.flatnonzero((nu != 0.0) & (q <= TAIL))
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


def exact_params(system: PhysicalSystem) -> dict:
    """The path that msd_exact_curve and breve_sum take for the system, its
    partition function Q, and the theta series' d_max or the direct sum's K."""
    if _use_theta(system):
        return {"path": "theta", "Q": derive_scales(system).Q_approx,
                "d_max": _theta_outer(system, 1)[0].size}
    basis = converged_basis(system)
    return {"path": "direct", "Q": partition_function(basis), "K": basis.K}


def msd_exact_curve(system: PhysicalSystem, grid) -> np.ndarray:
    """Coherent MSD (m^2) of the particle on its super-cell at each time of
    a validated time grid; exact_params names the path."""
    times = validate_grid(grid)
    if _use_theta(system):
        return _theta_msd(system, times)
    return msd_basis_curve(converged_basis(system), times)


def breve_sum(system: PhysicalSystem) -> float:
    """Decohered plateau constant (m^2): the coherent sum with every sin^2
    factor replaced by 1/2, on the path that msd_exact_curve takes."""
    if _use_theta(system):
        # the theta bracket's time mean is 1, leaving the outer weights
        return float(np.sum(_theta_outer(system, 1)[2]))
    return breve_basis_sum(converged_basis(system))


def pair_arrays(basis):
    """Per-pair data for the coherent double sum.

    Returns (wprod, half_omega) over ordered index pairs n < j of the
    basis, keeping only states with Boltzmann weight >= basis.weight_floor
    and > 0 (the floor is 0 where w(n = 1) underflows).

    wprod = w_n w_j |x_nj|^2  (m^2), half_omega = (E_n - E_j)/(2 hbar).
    """
    keep = (basis.w >= basis.weight_floor) & (basis.w > 0)
    q = basis.q[keep]
    E = basis.E[keep]
    w = basis.w[keep]
    i, j = np.triu_indices(q.size, k=1)
    dq = q[i] - q[j]
    wprod = w[i] * w[j] / (dq * dq)
    half_omega = (E[i] - E[j]) / (2.0 * CONST.hbar)
    return wprod, half_omega


def msd_reduce(wprod, half_omega, times) -> np.ndarray:
    """sum_p wprod_p sin^2(half_omega_p t) for each t, one time at a time,
    so that no (times x pairs) temporary is made."""
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    out = np.empty(times.size)
    for it, t in enumerate(times):
        s = np.sin(half_omega * t)
        out[it] = np.sum(wprod * s * s)
    return out


def blocked_sum(values) -> float:
    """Sum of values, by the same np.sum as msd_reduce; the name is kept
    because the benchmark's tracer (perfbench/spans.py) wraps it here."""
    return float(np.sum(values))


def msd_basis_curve(basis: EigenBasis, grid) -> np.ndarray:
    """Coherent MSD (m^2) at each time of a validated time grid by the direct
    pair sum on the basis as given, normalised by its own partition function."""
    times = validate_grid(grid)
    # the ordered pairs n < j, doubled (the sum is symmetric)
    wprod, half_omega = pair_arrays(basis)
    return 8.0 / partition_function(basis)**2 * msd_reduce(wprod, half_omega, times)


def breve_basis_sum(basis: EigenBasis) -> float:
    """Decohered plateau constant (m^2) by the direct pair sum on the basis as given."""
    wprod, _ = pair_arrays(basis)
    return float(4.0 / partition_function(basis)**2 * blocked_sum(wprod))
