"""Hot kernels: the O(K^2) pair reduction behind the direct exact sum and
the per-member position evaluation behind the Monte-Carlo sampler, which
folds the basis by its n -> -n parity.

The pair reduction uses a fixed-block sum (BLOCK pairs per partial sum,
blocks combined in index order), so results are reproducible run to run.
"""

from __future__ import annotations

import numpy as np

from .constants import CONST

BLOCK = 4096
# ensemble members per block of the position kernel; its two complex
# (K, MEMBER_BLOCK) buffers take 0.8 MiB each at K = 201 and its complex
# (M, MEMBER_BLOCK) GEMM output 0.4 MiB; 128-1024 rows ran within 10 % of
# each other (1 BLAS thread, 2-core Xeon)
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
    wt, eom and A are over the basis n = -M..M, in order.

    The position is pref * v^T A u with u = Re z, v = Im z and
    z = wt e^(i(theta - eom t)). The spectrum is even under n -> -n and A
    is odd (A[-n, -j] = -A[n, j]), so A maps even vectors to odd ones and
    back, and v^T A u = v_odd^T A u_even + v_even^T A u_odd. In the folded
    coordinates e[0] = u_0, e[p] = u_p + u_-p and o[p] = u_p - u_-p
    (p = 1..M) this is o_v . B e_u - o_u . B e_v, where B (M x M+1) is
    B[p, 0] = A[p, 0], B[p, k] = (A[p, k] + A[p, -k]) / 2.

    Per member the folded amplitudes ze = wt_p (e^(i theta_p) +
    e^(i theta_-p)) (ze_0 = wt_0 e^(i theta_0)) and zo = -i wt_p
    (e^(i theta_p) - e^(i theta_-p)) are formed once. Since eom is even,
    each time point rotates both by e^(-i eom_p t) in one complex multiply
    over K rows; then y = B ze is one real GEMM for re and im together,
    half the flops of the unfolded K x K product, and
    x = pref Re(zo . conj(y)). Members are processed MEMBER_BLOCK at a
    time in reused buffers stored (row, member), so the float view of ze
    is the GEMM operand as it stands.

    Raises ValueError unless K is odd and wt, eom and A have this parity
    exactly.
    """
    wt = np.asarray(wt, dtype=np.float64)
    thetas = np.atleast_2d(np.asarray(thetas, dtype=np.float64))
    eom = np.asarray(eom, dtype=np.float64)
    times = np.atleast_1d(np.asarray(times, dtype=np.float64))
    A = np.asarray(A, dtype=np.float64)
    pref = float(pref)
    m, K = thetas.shape
    if not (K % 2 == 1 and wt.shape == eom.shape == (K,) and A.shape == (K, K)
            and np.array_equal(wt, wt[::-1]) and np.array_equal(eom, eom[::-1])
            and np.array_equal(A, -A[::-1, ::-1])):
        raise ValueError("ensemble_positions needs K phases on a basis n = -M..M, "
                         "with wt and eom even and A odd under n -> -n")
    M = K // 2
    pos, neg = slice(M, K), slice(M, None, -1)   # n = 0..M and n = 0..-M
    B = 0.5 * (A[M + 1:, pos] + A[M + 1:, neg])
    wt_e = wt[pos].copy()
    wt_e[0] *= 0.5   # ze_0 = wt_0 (e^(i theta_0) + e^(i theta_0)) / 2
    # ze and zo are rows 0..M and M+1..2M of one (K, members) buffer; the
    # rotation's rows are e^(-i eom_p t) for p = 0..M, then p = 1..M again
    phase = np.multiply.outer(times, eom[pos])
    rot = np.empty((times.size, K), dtype=np.complex128)
    rot[:, :M + 1] = np.cos(phase) - 1j * np.sin(phase)
    rot[:, M + 1:] = rot[:, 1:M + 1]
    out = np.empty((m, times.size))
    rows = max(1, min(m, MEMBER_BLOCK))
    # flat buffers, so that a short last block is contiguous too
    z0_buf, zt_buf = (np.empty(rows * K, dtype=np.complex128) for _ in range(2))
    y_buf = np.empty(rows * M, dtype=np.complex128)
    for lo in range(0, m, rows):
        b = min(rows, m - lo)
        z0, zt = z0_buf[:K * b].reshape(K, b), zt_buf[:K * b].reshape(K, b)
        y = y_buf[:M * b].reshape(M, b)
        # e^(i theta) as (member, n), in zt's buffer until the time loop
        eith = zt_buf[:b * K].reshape(b, K)
        np.cos(thetas[lo:lo + b], out=eith.real)
        np.sin(thetas[lo:lo + b], out=eith.imag)
        cp, cn = eith.real[:, pos], eith.real[:, neg]
        sp, sn = eith.imag[:, pos], eith.imag[:, neg]
        z0.real[:M + 1] = ((cp + cn) * wt_e).T
        z0.imag[:M + 1] = ((sp + sn) * wt_e).T
        # zo = -i wt (e^(i theta_p) - e^(i theta_-p)): re = Im(.), im = -Re(.)
        z0.real[M + 1:] = ((sp - sn)[:, 1:] * wt[M + 1:]).T
        z0.imag[M + 1:] = ((cn - cp)[:, 1:] * wt[M + 1:]).T
        ze, zo = zt[:M + 1], zt[M + 1:]
        for it in range(times.size):
            np.multiply(z0, rot[it, :, None], out=zt)
            np.matmul(B, ze.view(np.float64), out=y.view(np.float64))
            col = np.einsum("pk,pk->k", zo.view(np.float64), y.view(np.float64))
            out[lo:lo + b, it] = pref * (col[0::2] + col[1::2])
    return out
