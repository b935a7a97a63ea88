"""Hot kernels: the O(K^2) pair reduction behind the direct exact sum and
the per-member position evaluation behind the Monte-Carlo sampler.

The pair reduction uses a fixed-block sum (BLOCK pairs per partial sum,
blocks combined in index order), so results are reproducible run to run.
"""

from __future__ import annotations

import numpy as np

from .constants import CONST

BLOCK = 4096
# ensemble members per block of the position kernel; its six
# (MEMBER_BLOCK, K) work buffers take 0.4 MiB each at K = 201; 128-512
# rows ran within 8 % of each other (1 BLAS thread, 2-core Xeon)
MEMBER_BLOCK = 256


# ---------------------------------------------------------------------------
# pair data: weights and transition frequencies over ordered pairs n < j
# ---------------------------------------------------------------------------

def pair_arrays(basis, weight_floor: float = 1e-18):
    """Per-pair data for the coherent double sum.

    Returns (wprod, half_omega) over ordered index pairs n < j of the
    basis, keeping only states with Boltzmann weight >= weight_floor
    (dropped terms are below double precision in the total).

    wprod = w_n w_j |x_nj|^2  (m^2), half_omega = (E_n - E_j)/(2 hbar).
    """
    keep = basis.w >= weight_floor
    q = basis.q[keep]
    E = basis.E[keep]
    w = basis.w[keep]
    i, j = np.triu_indices(q.size, k=1)
    dq = q[i] - q[j]
    wprod = w[i] * w[j] / (dq * dq)
    half_omega = (E[i] - E[j]) / (2.0 * CONST.hbar)
    return wprod, half_omega


# ---------------------------------------------------------------------------
# coherent MSD reduction: sum_p wprod_p * sin^2(half_omega_p * t)
# ---------------------------------------------------------------------------

def msd_reduce(wprod, half_omega, times) -> np.ndarray:
    """sum_p wprod_p sin^2(half_omega_p t) for each t, in BLOCK partial sums."""
    wprod = np.ascontiguousarray(wprod, dtype=np.float64)
    half_omega = np.ascontiguousarray(half_omega, dtype=np.float64)
    times = np.ascontiguousarray(np.atleast_1d(times), dtype=np.float64)
    n = wprod.size
    out = np.empty(times.size)
    for it, t in enumerate(times):
        total = 0.0
        for lo in range(0, n, BLOCK):
            s = np.sin(half_omega[lo:lo + BLOCK] * t)
            total += float(np.sum(wprod[lo:lo + BLOCK] * s * s))
        out[it] = total
    return out


def blocked_sum(values) -> float:
    """Fixed-block deterministic sum (same reduction contract as above)."""
    values = np.asarray(values, dtype=np.float64)
    n = values.size
    total = 0.0
    for lo in range(0, n, BLOCK):
        total += float(np.sum(values[lo:lo + BLOCK]))
    return total


# ---------------------------------------------------------------------------
# ensemble position expectation: x(t) = pref * v(t)^T A u(t) per member
# ---------------------------------------------------------------------------

def antisym_coupling_matrix(K: int) -> np.ndarray:
    """A[n, j] = (-1)^(n-j) / (n - j) off the diagonal, 0 on it."""
    idx = np.arange(K)
    d = idx[:, None] - idx[None, :]
    with np.errstate(divide="ignore"):
        A = np.where(d % 2 == 0, 1.0, -1.0) / np.where(d == 0, np.inf, d)
    np.fill_diagonal(A, 0.0)
    return A


def ensemble_positions(wt, thetas, eom, times, A, pref) -> np.ndarray:
    """Position expectation values, shape (members, times).

    wt: e^(-beta E/2) amplitudes; thetas: random phases per member;
    eom: E/hbar; A: antisymmetric coupling matrix; pref: L/(pi Q).

    With phi = theta - eom t, u = wt cos(phi) and v = wt sin(phi), the
    position is pref * v^T A u. Angle addition splits each phase: with
    C = wt cos(theta) and S = wt sin(theta), computed once per member,
    u = C cos(eom t) + S sin(eom t) and v = S cos(eom t) - C sin(eom t),
    so each time point costs two K-vector trig calls, not two per member
    and state. Members are processed MEMBER_BLOCK at a time in reused
    buffers.
    """
    wt = np.ascontiguousarray(wt, dtype=np.float64)
    thetas = np.ascontiguousarray(np.atleast_2d(thetas), dtype=np.float64)
    eom = np.ascontiguousarray(eom, dtype=np.float64)
    times = np.ascontiguousarray(np.atleast_1d(times), dtype=np.float64)
    AT = np.ascontiguousarray(np.asarray(A, dtype=np.float64).T)
    pref = float(pref)
    m, K = thetas.shape
    coswt = np.cos(eom[None, :] * times[:, None])
    sinwt = np.sin(eom[None, :] * times[:, None])
    out = np.empty((m, times.size))
    rows = max(1, min(m, MEMBER_BLOCK))
    C, S, u, v, tmp, Au = (np.empty((rows, K)) for _ in range(6))
    for lo in range(0, m, rows):
        b = min(rows, m - lo)
        Cb, Sb, ub, vb, tb, Aub = C[:b], S[:b], u[:b], v[:b], tmp[:b], Au[:b]
        np.cos(thetas[lo:lo + b], out=Cb)
        np.sin(thetas[lo:lo + b], out=Sb)
        Cb *= wt
        Sb *= wt
        for it in range(times.size):
            c, s = coswt[it], sinwt[it]
            np.multiply(Cb, c, out=ub)
            np.multiply(Sb, s, out=tb)
            ub += tb
            np.multiply(Sb, c, out=vb)
            np.multiply(Cb, s, out=tb)
            vb -= tb
            np.matmul(ub, AT, out=Aub)
            out[lo:lo + b, it] = pref * np.einsum("mk,mk->m", vb, Aub)
    return out
