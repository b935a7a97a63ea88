"""Hot kernels: the O(K^2) pair reduction behind the direct exact sum and
the per-member position evaluation behind the Monte-Carlo sampler, which
folds the basis by its n -> -n parity and takes its phase factors
e^(i theta) from a table (_cis).

The pair reduction uses a fixed-block sum (BLOCK pairs per partial sum,
blocks combined in index order), so results are reproducible run to run.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading

import numpy as np

from .constants import CONST

BLOCK = 4096
# ensemble members per block of the position kernel; each worker thread's
# two complex (K, MEMBER_BLOCK) buffers take 0.4 MiB each at K = 201 and its
# complex (M + 1, MEMBER_BLOCK) GEMM output 0.2 MiB, and the phase factors
# work in these three, with no scratch of their own; 128-1024 rows ran
# within 10 % of each other on one thread (1 BLAS thread, 2-core Xeon), and
# two workers at 128 rows hold what one held at 256
MEMBER_BLOCK = 128


# ---------------------------------------------------------------------------
# pair data: weights and transition frequencies over ordered pairs n < j
# ---------------------------------------------------------------------------

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


# e^(i theta) from a table at the nodes j 2pi/N, j = 0..N: theta = j 2pi/N
# + d with |d| <= pi/N, where j 2pi/N = j _CIS_HI + j _CIS_LO is split
# Cody-Waite style so that j _CIS_HI is exact (_CIS_HI has 24 bits and
# j <= 2^12); P. T. P. Tang, ACM TOMS 15(2), 144-157 (1989)
_TWO_PI = 2.0 * math.pi
_CIS_N = 4096
_CIS_HI = float(np.float32(_TWO_PI / _CIS_N))
_CIS_LO = _TWO_PI / _CIS_N - _CIS_HI


def _cis_table() -> np.ndarray:
    """C_j + i S_j = e^(i j (_CIS_HI + _CIS_LO)), j = 0..N.

    A node rounds to x; its remainder r = (j hi - x) + j lo is exact
    (Fast2Sum, as j hi and j lo are exact) and enters to first order, so
    each entry is within libm's error of the exact node's value.
    """
    j = np.arange(_CIS_N + 1.0)
    x = j * _CIS_HI + j * _CIS_LO
    r = (j * _CIS_HI - x) + j * _CIS_LO
    return (np.cos(x) - r * np.sin(x)) + 1j * (np.sin(x) + r * np.cos(x))


_CIS_TABLE = _cis_table()


def _cis(theta, out, w, j) -> None:
    """e^(i theta) into out, for theta in [0, 2 pi].

    With j = rint(theta N / 2pi) and d = (theta - j hi) - j lo, sin d ~ s =
    d - d^3/6 and 1 - cos d ~ h = d^2/2 - d^4/24 (truncation below 3e-18 at
    |d| <= pi/N). With the table entry E_j = C_j + i S_j, out = E_j - E_j
    (h - i s), that is cos theta = C_j - (C_j h + S_j s) and sin theta =
    S_j - (S_j h - C_j s); within 2^-53 of libm on 2e6 uniform phases.

    w (complex) and j (int64) are scratch of theta's shape; every step
    writes into out, w or j. The caller checks the domain: a phase outside
    [0, 2 pi] or NaN would index outside the table.
    """
    d, v = w.real, w.imag
    np.multiply(theta, _CIS_N / _TWO_PI, out=d)
    np.rint(d, out=j, casting="unsafe")
    np.multiply(j, _CIS_HI, out=d)
    np.subtract(theta, d, out=d)
    np.multiply(j, _CIS_LO, out=v)
    np.subtract(d, v, out=d)
    # j lies in [0, N], so "clip" never clips; unlike "raise" it is unbuffered
    np.take(_CIS_TABLE, j, out=out, mode="clip")
    d2 = j.view(np.float64)                       # j is read; reuse its memory
    np.multiply(d, d, out=d2)
    np.multiply(d2, 1.0 / 6.0, out=v)
    np.subtract(v, 1.0, out=v)
    np.multiply(v, d, out=v)                      # -s = d (d^2/6 - 1)
    np.multiply(d2, -1.0 / 24.0, out=d)
    np.add(d, 0.5, out=d)
    np.multiply(d, d2, out=d)                     # h = d^2 (1/2 - d^2/24)
    np.multiply(w, out, out=w)                    # (C h + S s) + i (S h - C s)
    np.subtract(out, w, out=out)


def _pool_size(n_blocks: int) -> int:
    """Threads for ensemble_positions' member blocks: one per core of the
    process's CPU affinity (the CPU count where the platform has no
    affinity call), and no more than n_blocks."""
    if hasattr(os, "sched_getaffinity"):
        cores = len(os.sched_getaffinity(0))
    else:
        cores = os.cpu_count() or 1
    return max(1, min(cores, n_blocks))


@functools.cache
def _openblas():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, found
    through numpy's own extension on first use; None where numpy links
    another BLAS."""
    try:
        from numpy._core import _multiarray_umath
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        set_ = lib.scipy_openblas_set_num_threads64_
    except (ImportError, OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    return get, set_


_BLAS_LOCK = threading.RLock()


@contextlib.contextmanager
def _one_blas_thread():
    """Hold numpy's OpenBLAS at one thread, and restore its count on exit;
    yields whether it holds. Holders run one at a time (a holder may nest
    one), and meanwhile every other BLAS call of the process gets one thread."""
    with _BLAS_LOCK:
        blas = _openblas()
        if blas is None:
            yield False
            return
        get, set_ = blas
        before = get()
        set_(1)
        try:
            yield True
        finally:
            set_(before)


def ensemble_positions(wt, thetas, eom, times, A, pref, out=None) -> np.ndarray:
    """Position expectation values, shape (members, times).

    wt: e^(-beta E/2) amplitudes; thetas: random phases per member, read
    as (n, member) rows, which is contiguous in sample_phases' layout;
    eom: E/hbar; A: antisymmetric coupling matrix; pref: -L/(pi Q).
    wt, eom and A are over the basis n = -M..M, in order. out, if given,
    is a float64 (members, times) array that receives the result and is
    returned.

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
    over K rows (t = 0 reads them unrotated); then y = B ze is one real GEMM for re and im together,
    half the flops of the unfolded K x K product, and
    x = pref Re(zo . conj(y)). Members are processed MEMBER_BLOCK at a
    time in reused buffers stored (row, member), so the float view of ze
    is the GEMM operand as it stands. Each block's e^(i theta) comes from
    _cis, a 4097-node table with a two-term correction, within 2^-53 of
    libm's cos and sin; the rotation factors are libm's.

    The blocks are shared out whole over _pool_size threads, worker k
    taking blocks k, k + n, ...; the caller is worker 0 and joins the
    others before returning. Each worker has its own buffers, and a
    block's result does not depend on which worker computes it. The call
    holds numpy's OpenBLAS at one thread (_one_blas_thread), so the GEMM
    and the output bits do not depend on the BLAS thread count; where
    that setter is not found, one worker runs and BLAS is left alone.

    Raises ValueError unless K is odd and wt, eom and A have this parity
    exactly, and for a phase outside [0, 2 pi] or NaN.
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
    if m and not (thetas.min() >= 0.0 and thetas.max() <= _TWO_PI):
        raise ValueError("ensemble_positions needs phases in [0, 2 pi]")
    if out is None:
        out = np.empty((m, times.size))
    elif out.shape != (m, times.size) or out.dtype != np.float64:
        raise ValueError(f"ensemble_positions needs out of shape {(m, times.size)} "
                         f"and dtype float64, got {out.shape} and {out.dtype}")
    M = K // 2
    pos, neg = slice(M, K), slice(M, None, -1)   # n = 0..M and n = 0..-M
    B = 0.5 * (A[M + 1:, pos] + A[M + 1:, neg])
    # the weights of ze's rows p = 0..M, then of zo's rows p = 1..M; halved
    # at p = 0, as ze_0 = wt_0 (e^(i theta_0) + e^(i theta_0)) / 2
    wz = np.concatenate((wt[pos], wt[M + 1:]))[:, None]
    wz[0] *= 0.5
    # ze and zo are rows 0..M and M+1..2M of one (K, members) buffer; the
    # rotation's rows are e^(-i eom_p t) for p = 0..M, then p = 1..M again
    phase = np.multiply.outer(times, eom[pos])
    rot = np.empty((times.size, K), dtype=np.complex128)
    rot[:, :M + 1] = np.cos(phase) - 1j * np.sin(phase)
    rot[:, M + 1:] = rot[:, 1:M + 1]
    rows = max(1, min(m, MEMBER_BLOCK))
    starts = range(0, m, rows)

    def buffers():
        # flat, so that a short last block is contiguous too; y has M rows,
        # and one more makes its int64 view hold _cis's K indices per
        # member, as y is written only in the time loop; cols holds each
        # time's re and im parts of zo . conj(y), interleaved
        return (np.empty(rows * K, dtype=np.complex128),
                np.empty(rows * K, dtype=np.complex128),
                np.empty(rows * (M + 1), dtype=np.complex128),
                np.empty(times.size * 2 * rows))

    def work(k, z0_buf, zt_buf, y_buf, col_buf):
        for lo in starts[k::n_workers]:
            b = min(rows, m - lo)
            z0, zt = z0_buf[:K * b].reshape(K, b), zt_buf[:K * b].reshape(K, b)
            y = y_buf[:M * b].reshape(M, b)
            cols = col_buf[:times.size * 2 * b].reshape(times.size, 2 * b)
            # e^(i theta) as (n, member), in zt until the time loop; z0 is
            # written only after it, so it is _cis's scratch
            _cis(thetas[lo:lo + b].T, zt, z0, y_buf.view(np.int64)[:K * b].reshape(K, b))
            cp, cn = zt.real[pos], zt.real[neg]
            sp, sn = zt.imag[pos], zt.imag[neg]
            np.add(cp, cn, out=z0.real[:M + 1])
            np.add(sp, sn, out=z0.imag[:M + 1])
            # zo = -i wt (e^(i theta_p) - e^(i theta_-p)): re = Im(.), im = -Re(.)
            np.subtract(sp[1:], sn[1:], out=z0.real[M + 1:])
            np.subtract(cn[1:], cp[1:], out=z0.imag[M + 1:])
            np.multiply(z0.real, wz, out=z0.real)
            np.multiply(z0.imag, wz, out=z0.imag)
            for it in range(times.size):
                if times[it] == 0.0:
                    # the rotation by 1 + 0i gives z0 up to the sign of a zero part
                    z = z0
                else:
                    z = zt
                    np.multiply(z0, rot[it, :, None], out=zt)
                ze, zo = z[:M + 1], z[M + 1:]
                np.matmul(B, ze.view(np.float64), out=y.view(np.float64))
                np.einsum("pk,pk->k", zo.view(np.float64), y.view(np.float64),
                          out=cols[it])
            x = cols[:, 0::2]
            np.add(x, cols[:, 1::2], out=x)
            np.multiply(x, pref, out=x)
            out[lo:lo + b] = x.T

    errors = []

    def worker(k, bufs):
        try:
            work(k, *bufs)
        except BaseException as exc:  # re-raised by the caller after the join
            errors.append(exc)

    with _one_blas_thread() as held:
        n_workers = _pool_size(len(starts)) if held else 1
        threads = [threading.Thread(target=worker, args=(k, buffers()))
                   for k in range(1, n_workers)]
        for thread in threads:
            thread.start()
        try:
            work(0, *buffers())
        finally:
            for thread in threads:
                thread.join()
    if errors:
        raise errors[0]
    return out
