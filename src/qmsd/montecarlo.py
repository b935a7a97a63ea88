"""Stochastic oracle: explicit random-phase thermal wave packets.

Samples members of the thermal ensemble, evolves them coherently,
and averages squared displacements of the position expectation value.
Validates the analytic phase-averaged double sum and the decohered
plateau. One phase stream is drawn and evaluated once: the plateau
comes from the members' x(0) that the same pass computes. This is an
oracle path: K is kept small (each member costs O(K^2) per time point).

It holds the phase draw (sample_phases), the parity-folded position kernel
(ensemble_positions: table phase factors, member blocks on a thread per
core) with the inputs whose parity it checks (_ensemble_setup), and the sampler.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .basis import MAX_K, EigenBasis, partition_function
from .constants import CONST, ValidationError, validate_grid

_HBAR = CONST.hbar


@dataclass
class EnsembleResult:
    times: np.ndarray
    mean_msd: np.ndarray  # m^2
    stderr: np.ndarray    # m^2
    n_members: int
    seed: int
    x0: np.ndarray        # each member's x(0) (m)


# numpy's SeedSequence (O'Neill's seed_seq_fe) and PCG64 (setseq-128,
# XSL-RR output), evaluated for every member at once in uint32/uint64 arrays
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
# each member's stream is drawn in _LANES lanes, lane l holding states
# l + 1, l + 1 + r, ...: s_(j+r) = a^r s_j + C_r inc with C_r = sum_(i<r) a^i
# (F. B. Brown, Trans. Am. Nucl. Soc. 71, 202 (1994)), exact mod 2**128
_LANES = 8
_LANE_MULT = pow(_PCG_MULT, _LANES, 1 << 128)
_LANE_INC = sum(pow(_PCG_MULT, i, 1 << 128) for i in range(_LANES)) % (1 << 128)
# 53-bit uniform to [0, 2 pi): 2 pi / 2**53 is exact, so one product gives
# next_double's bits times 2 pi
_TWO_PI_ULP = 2.0 * math.pi / 9007199254740992.0
_MAX_MEMBERS = 2**32
# the largest ensemble run admitted: basis.MAX_K states, and x(t) 8 bytes
# per member and time (3 times that with the squared displacements and their
# spread); mc-verify peaked at 413 MiB at 2**24 - 1 x(t)
MAX_MEMBER_TIMES = 1 << 24
# ensemble members per block of the position kernel; each worker thread's
# two complex (K, MEMBER_BLOCK) buffers take 0.4 MiB each at K = 201 and its
# complex (M + 1, MEMBER_BLOCK) GEMM output 0.2 MiB, and the phase factors
# work in these three, with no scratch of their own; 128-1024 rows ran
# within 10 % of each other on one thread (1 BLAS thread, 2-core Xeon), and
# two workers at 128 rows hold what one held at 256
MEMBER_BLOCK = 128
# members per phase draw in sample_msd: whole ensemble_positions blocks, so
# each block holds the same members as in one draw of all members and every
# output bit is the same
PHASE_CHUNK = 16 * MEMBER_BLOCK


def _uint32_words(n: int) -> list[int]:
    """A nonnegative int as little-endian 32-bit words, as SeedSequence splits it."""
    words = [n & _MASK32]
    while n > _MASK32:
        n >>= 32
        words.append(n & _MASK32)
    return words


def _hashmix(init: int, mult: int):
    """SeedSequence's hashmix; its constant advances with each call."""
    const = init

    def hashmix(value: np.ndarray) -> np.ndarray:
        nonlocal const
        value = value ^ np.uint32(const)
        const = const * mult & _MASK32
        value = value * np.uint32(const)
        return value ^ (value >> 16)
    return hashmix


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = x * np.uint32(_MIX_MULT_L) - y * np.uint32(_MIX_MULT_R)
    return r ^ (r >> 16)


def _seed_words(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence(entropy).generate_state(4, uint64), word by word."""
    hashmix = _hashmix(_INIT_A, _MULT_A)
    zero = np.zeros_like(entropy[0])
    pool = [hashmix(entropy[k] if k < len(entropy) else zero)
            for k in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hashmix(_INIT_B, _MULT_B)
    out32 = [hashmix(pool[k % _POOL_SIZE]).astype(np.uint64) for k in range(8)]
    return [out32[2 * k] | (out32[2 * k + 1] << np.uint64(32)) for k in range(4)]


def _lcg_advance(hi, lo, mult: int, add_hi, add_lo, scratch) -> None:
    """(hi, lo) <- mult (hi, lo) + (add_hi, add_lo) mod 2**128, in place.

    A 128-bit number is a (hi, lo) pair of uint64 arrays; mult is a Python
    int. The high word of lo times mult's low word is taken from 32-bit
    limbs (Hacker's Delight 8-2). scratch is four uint64 arrays of hi's
    shape; every step writes into hi, lo or scratch.
    """
    m_hi, m_lo = np.uint64(mult >> 64), np.uint64(mult & 0xFFFFFFFFFFFFFFFF)
    b0, b1 = np.uint64(mult & _MASK32), np.uint64(mult >> 32 & _MASK32)
    mask, half = np.uint64(_MASK32), np.uint64(32)
    a0, a1, t, w = scratch
    np.bitwise_and(lo, mask, out=a0)
    np.right_shift(lo, half, out=a1)
    np.multiply(a1, b0, out=t)
    np.multiply(a0, b0, out=w)
    np.right_shift(w, half, out=w)
    np.add(t, w, out=t)                           # t = a1 b0 + (a0 b0 >> 32)
    np.bitwise_and(t, mask, out=w)
    np.multiply(a0, b1, out=a0)
    np.add(w, a0, out=w)                          # w = (t & mask) + a0 b1
    np.multiply(a1, b1, out=a1)
    np.right_shift(t, half, out=t)
    np.add(a1, t, out=a1)
    np.right_shift(w, half, out=w)
    np.add(a1, w, out=a1)                         # high word of lo m_lo
    np.multiply(hi, m_lo, out=hi)
    np.add(hi, a1, out=hi)
    np.multiply(lo, m_hi, out=a1)
    np.add(hi, a1, out=hi)
    np.multiply(lo, m_lo, out=lo)
    np.add(lo, add_lo, out=lo)
    np.less(lo, add_lo, out=a0)                   # the carry out of lo
    np.add(hi, add_hi, out=hi)
    np.add(hi, a0, out=hi)


def _uniform_rows(hi, lo, out, scratch) -> None:
    """PCG64's XSL-RR output of each state, as next_double's 53 bits scaled
    to [0, 2 pi), into out; scratch is three uint64 arrays of hi's shape."""
    x, rot, y = scratch
    np.bitwise_xor(hi, lo, out=x)
    np.right_shift(hi, np.uint64(58), out=rot)
    np.right_shift(x, rot, out=y)
    np.negative(rot, out=rot)
    np.bitwise_and(rot, np.uint64(63), out=rot)
    np.left_shift(x, rot, out=x)
    np.bitwise_or(x, y, out=x)
    np.right_shift(x, np.uint64(11), out=x)
    np.multiply(x, _TWO_PI_ULP, out=out)


def _check_members(seed: int, first: int, n_members: int) -> None:
    """seed must be >= 0, and members first..first+n-1 must have one 32-bit
    entropy word each."""
    if seed < 0:
        raise ValidationError(f"seed must be >= 0, got {seed}")
    if first < 0 or first + n_members > _MAX_MEMBERS:
        raise ValidationError(f"members {first}..{first + n_members - 1} lie outside "
                              f"the 2**32 member streams 0..{_MAX_MEMBERS - 1}")


def _check_ensemble(K: int, n_members: int, n_times: int) -> None:
    """An ensemble run must fit MAX_K and MAX_MEMBER_TIMES; refused before
    it allocates."""
    if K > MAX_K:
        raise ValidationError(f"the Monte-Carlo basis has K = {K} states, past its limit "
                              f"of {MAX_K}")
    if n_members * n_times > MAX_MEMBER_TIMES:
        raise ValidationError(f"the Monte-Carlo ensemble needs x(t) at {n_members} members "
                              f"x {n_times} times = {n_members * n_times}, past its limit "
                              f"of {MAX_MEMBER_TIMES} members x times")


def _seeded_states(n_members: int, seed: int, first: int):
    """PCG64 (hi, lo) states and (inc_hi, inc_lo) increments of members
    first..first+n-1 as seeded by default_rng([seed, first + i, 0]),
    before their first draw."""
    n = n_members
    # every member's entropy words: [seed words..., first + i, 0]
    seed_words = [np.full(n, w, np.uint32) for w in _uint32_words(seed)]
    index = (np.arange(n, dtype=np.uint64) + np.uint64(first)).astype(np.uint32)
    state_hi, state_lo, seq_hi, seq_lo = _seed_words(
        seed_words + [index, np.zeros(n, np.uint32)])
    # pcg_setseq_128_srandom_r: inc = 2 initseq + 1; step; add initstate; step
    one = np.uint64(1)
    inc_hi = (seq_hi << one) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << one) | one
    lo = inc_lo + state_lo
    hi = inc_hi + state_hi + (lo < state_lo)
    _lcg_advance(hi, lo, _PCG_MULT, inc_hi, inc_lo, np.empty((4, n), np.uint64))
    return hi, lo, inc_hi, inc_lo


def sample_phases(basis: EigenBasis, n_members: int, seed: int,
                  first: int = 0) -> np.ndarray:
    """Phases of members first..first+n-1, K each, uniform on [0, 2 pi).

    Row i is bit for bit ``np.random.default_rng([seed, first + i, 0])
    .uniform(0, 2 pi, K)``: each member has its own stream, so a member's
    phases do not depend on which members are drawn with it. The draws are
    made _LANES at a time: lane l holds draws l, l + r, l + 2r, ... of every
    member and jumps r states per step.
    """
    seed, first = int(seed), int(first)
    _check_members(seed, first, n_members)
    hi, lo, inc_hi, inc_lo = _seeded_states(n_members, seed, first)
    hi_l, lo_l, *scratch = np.empty((6, _LANES, n_members), np.uint64)
    row_scratch = [a[0] for a in scratch]
    # lane l starts at draw l's state, stepped one at a time
    for lane in range(_LANES):
        _lcg_advance(hi, lo, _PCG_MULT, inc_hi, inc_lo, row_scratch)
        hi_l[lane], lo_l[lane] = hi, lo
    # from here the lanes step r draws at a time: inc becomes D = C_r inc
    zero = np.uint64(0)
    _lcg_advance(inc_hi, inc_lo, _LANE_INC, zero, zero, row_scratch)
    # each draw fills one contiguous row; the (members, K) result is the
    # transpose, so a member block's phases are (n, member) rows too
    thetas = np.empty((basis.K, n_members))
    for j0 in range(0, basis.K, _LANES):
        r = min(_LANES, basis.K - j0)
        _uniform_rows(hi_l[:r], lo_l[:r], thetas[j0:j0 + r], [a[:r] for a in scratch[:3]])
        if j0 + _LANES < basis.K:
            _lcg_advance(hi_l, lo_l, _LANE_MULT, inc_hi, inc_lo, scratch)
    return thetas.T


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
    over K rows, t = 0 alike (its rotation by 1 - 0i moves only the sign of
    a zero part); then y = B ze is one real GEMM for re and im together,
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
                np.multiply(z0, rot[it, :, None], out=zt)
                ze, zo = zt[:M + 1], zt[M + 1:]
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


def _ensemble_setup(basis: EigenBasis):
    wt = np.sqrt(basis.w)
    eom = basis.E / _HBAR
    A = antisym_coupling_matrix(basis.K)
    # x(t) = -(L / pi Q) v^T A u with u = wt cos(phi), v = wt sin(phi)
    pref = -basis.L / (math.pi * partition_function(basis))
    return wt, eom, A, pref


def sample_msd(basis: EigenBasis, grid, n_members: int, seed: int = 42) -> EnsembleResult:
    """Ensemble-averaged MSD over a time grid, with standard errors.

    The members are drawn and evaluated PHASE_CHUNK at a time, so no
    (K x members) phase array is held.
    """
    if n_members < 2:
        raise ValidationError("n_members must be >= 2")
    times = validate_grid(grid)
    # baseline x(0) prepended so displacements share one evaluation pass
    times0 = np.concatenate(([0.0], times))
    _check_members(seed, 0, n_members)
    _check_ensemble(basis.K, n_members, times0.size)
    wt, eom, A, pref = _ensemble_setup(basis)
    X = np.empty((n_members, times0.size))
    for lo in range(0, n_members, PHASE_CHUNK):
        b = min(PHASE_CHUNK, n_members - lo)
        # the phases are freed before the next chunk's are drawn, so their
        # memory is reused; two chunks alive at once cost mc-verify about
        # 1 800 more page faults per run
        ensemble_positions(wt, sample_phases(basis, b, seed, first=lo), eom,
                           times0, A, pref, out=X[lo:lo + b])
    del wt, eom, A  # the K x K coupling matrix goes before disp_sq comes
    disp_sq = X[:, 1:] - X[:, :1]
    np.multiply(disp_sq, disp_sq, out=disp_sq)
    mean = disp_sq.mean(axis=0)
    stderr = disp_sq.std(axis=0, ddof=1) / math.sqrt(n_members)
    return EnsembleResult(
        times=times, mean_msd=mean, stderr=stderr,
        n_members=n_members, seed=seed,
        x0=X[:, 0].copy(),
    )


def sample_msd_rerandomized(ensemble: EnsembleResult):
    """Decohered plateau estimate from the members' x(0): (estimate, stderr).

    Under uniform phases x(t) has the same law at every t and E[x] = 0, so
    the plateau 2 Var(x) is estimated by 2 mean(x(0)^2) over the
    ``sample_msd`` ensemble, with stderr std(2 x(0)^2) / sqrt(n). It draws
    and evaluates nothing. The name is kept because the benchmark's tracer
    (perfbench/spans.py) wraps it in qmsd.cli.
    """
    two_x0_sq = 2.0 * np.square(ensemble.x0)
    estimate = float(two_x0_sq.mean())
    stderr = float(two_x0_sq.std(ddof=1) / math.sqrt(ensemble.n_members))
    return estimate, stderr
