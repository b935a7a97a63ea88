"""Stochastic oracle: explicit random-phase thermal wave packets.

Samples members of the thermal ensemble, evolves them coherently,
and averages squared displacements of the position expectation value.
Validates the analytic phase-averaged double sum and the decohered
plateau. One phase stream (stream 0) is drawn and evaluated once: the
plateau comes from the members' x(0) that the same pass computes. This
is an oracle path: K is kept small (each member costs O(K^2) per time
point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import EigenBasis, partition_function
from .constants import CONST, ValidationError, validate_grid
from .kernels import MEMBER_BLOCK, antisym_coupling_matrix, ensemble_positions

_HBAR = CONST.hbar


@dataclass
class EnsembleResult:
    times: np.ndarray
    mean_msd: np.ndarray  # m^2
    stderr: np.ndarray    # m^2
    n_members: int
    seed: int
    x0: np.ndarray        # each member's x(0) (m), stream-0 phases


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
# the largest ensemble run admitted: the K x K coupling matrix takes 8 K^2
# bytes (about 4 times that while it is built), and x(t) 8 bytes per member
# and time (3 times that with the squared displacements and their spread);
# mc-verify peaked at 166 MiB at K = 2049 and at 413 MiB at 2**24 - 1 x(t)
MAX_K = 2049
MAX_MEMBER_TIMES = 1 << 24
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


def _check_members(seed: int, stream: int, first: int, n_members: int) -> None:
    """seed and stream must be >= 0, and members first..first+n-1 must have
    one 32-bit entropy word each."""
    if seed < 0 or stream < 0:
        raise ValidationError(f"seed and stream must be >= 0, got {seed}, {stream}")
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


def _seeded_states(n_members: int, seed: int, stream: int, first: int):
    """PCG64 (hi, lo) states and (inc_hi, inc_lo) increments of members
    first..first+n-1 as seeded by default_rng([seed, first + i, stream]),
    before their first draw."""
    n = n_members
    # every member's entropy words: [seed words..., first + i, stream words...]
    seed_words = [np.full(n, w, np.uint32) for w in _uint32_words(seed)]
    stream_words = [np.full(n, w, np.uint32) for w in _uint32_words(stream)]
    index = (np.arange(n, dtype=np.uint64) + np.uint64(first)).astype(np.uint32)
    state_hi, state_lo, seq_hi, seq_lo = _seed_words(seed_words + [index] + stream_words)
    # pcg_setseq_128_srandom_r: inc = 2 initseq + 1; step; add initstate; step
    one = np.uint64(1)
    inc_hi = (seq_hi << one) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << one) | one
    lo = inc_lo + state_lo
    hi = inc_hi + state_hi + (lo < state_lo)
    _lcg_advance(hi, lo, _PCG_MULT, inc_hi, inc_lo, np.empty((4, n), np.uint64))
    return hi, lo, inc_hi, inc_lo


def sample_phases(basis: EigenBasis, n_members: int, seed: int,
                  stream: int = 0, first: int = 0) -> np.ndarray:
    """Phases of members first..first+n-1, K each, uniform on [0, 2 pi).

    Row i is bit for bit ``np.random.default_rng([seed, first + i, stream])
    .uniform(0, 2 pi, K)``: each member has its own stream, so a member's
    phases do not depend on which members are drawn with it. The draws are
    made _LANES at a time: lane l holds draws l, l + r, l + 2r, ... of every
    member and jumps r states per step.
    """
    seed, stream, first = int(seed), int(stream), int(first)
    _check_members(seed, stream, first, n_members)
    hi, lo, inc_hi, inc_lo = _seeded_states(n_members, seed, stream, first)
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


def _ensemble_setup(basis: EigenBasis):
    wt = np.sqrt(basis.w)
    eom = basis.E / _HBAR
    A = antisym_coupling_matrix(basis.K)
    # x(t) = -(L / pi Q) v^T A u with u = wt cos(phi), v = wt sin(phi)
    pref = -basis.L / (math.pi * partition_function(basis))
    return wt, eom, A, pref


def _ensemble_chunks(basis: EigenBasis, n_members: int, seed: int,
                     times: np.ndarray) -> np.ndarray:
    """x(t) of members 0..n-1 of stream 0, shape (members, times).

    The members are drawn and evaluated PHASE_CHUNK at a time, so no
    (K x members) phase array is held.
    """
    _check_members(seed, 0, 0, n_members)
    _check_ensemble(basis.K, n_members, times.size)
    wt, eom, A, pref = _ensemble_setup(basis)
    X = np.empty((n_members, times.size))
    for lo in range(0, n_members, PHASE_CHUNK):
        b = min(PHASE_CHUNK, n_members - lo)
        # the phases are freed before the next chunk's are drawn, so their
        # memory is reused; two chunks alive at once cost mc-verify about
        # 1 800 more page faults per run
        ensemble_positions(wt, sample_phases(basis, b, seed, first=lo), eom,
                           times, A, pref, out=X[lo:lo + b])
    return X


def sample_msd(basis: EigenBasis, grid, n_members: int, seed: int = 42) -> EnsembleResult:
    """Ensemble-averaged MSD over a time grid, with standard errors."""
    if n_members < 2:
        raise ValidationError("n_members must be >= 2")
    times = validate_grid(grid)
    # baseline x(0) prepended so displacements share one evaluation pass
    X = _ensemble_chunks(basis, n_members, seed, np.concatenate(([0.0], times)))
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
