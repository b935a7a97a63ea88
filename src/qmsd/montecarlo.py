"""Stochastic oracle: explicit random-phase thermal wave packets.

Samples members of the thermal ensemble, evolves them coherently,
and averages squared displacements of the position expectation value.
Validates the analytic phase-averaged double sum and the
re-randomization plateau. This is an oracle path: K is kept small
(each member costs O(K^2) per time point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .basis import EigenBasis
from .constants import CONST, ValidationError
from .curves import validate_grid
from .kernels import antisym_coupling_matrix, ensemble_positions

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
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645


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


def _mulhi64(a: np.ndarray, b: int) -> np.ndarray:
    """High 64 bits of a * b, from 32-bit limbs (Hacker's Delight 8-2)."""
    a0, a1 = a & np.uint64(_MASK32), a >> np.uint64(32)
    b0, b1 = np.uint64(b & _MASK32), np.uint64(b >> 32)
    t = a1 * b0 + ((a0 * b0) >> np.uint64(32))
    w = (t & np.uint64(_MASK32)) + a0 * b1
    return a1 * b1 + (t >> np.uint64(32)) + (w >> np.uint64(32))


def _pcg_step(hi, lo, inc_hi, inc_lo):
    """The PCG64 state (hi, lo) times its multiplier plus inc, mod 2**128."""
    new_lo = lo * np.uint64(_PCG_MULT_LO) + inc_lo
    carry = new_lo < inc_lo
    new_hi = (_mulhi64(lo, _PCG_MULT_LO) + hi * np.uint64(_PCG_MULT_LO)
              + lo * np.uint64(_PCG_MULT_HI) + inc_hi + carry)
    return new_hi, new_lo


def sample_phases(basis: EigenBasis, n_members: int, seed: int,
                  stream: int = 0) -> np.ndarray:
    """Member i's K phases, uniform on [0, 2 pi), drawn for all members at once.

    Row i is bit for bit ``np.random.default_rng([seed, i, stream])
    .uniform(0, 2 pi, K)``: each member has its own stream, so a member's
    phases do not depend on how many members are drawn.
    """
    seed, stream = int(seed), int(stream)
    if seed < 0 or stream < 0:
        raise ValidationError(f"seed and stream must be >= 0, got {seed}, {stream}")
    if n_members > 2**32:
        raise ValidationError(f"at most 2**32 members, got {n_members}")
    # every member's entropy words: [seed words..., i, stream words...]
    seed_words = [np.full(n_members, w, np.uint32) for w in _uint32_words(seed)]
    stream_words = [np.full(n_members, w, np.uint32) for w in _uint32_words(stream)]
    entropy = seed_words + [np.arange(n_members, dtype=np.uint32)] + stream_words
    state_hi, state_lo, seq_hi, seq_lo = _seed_words(entropy)
    # pcg_setseq_128_srandom_r: inc = 2 initseq + 1; step; add initstate; step
    one = np.uint64(1)
    inc_hi = (seq_hi << one) | (seq_lo >> np.uint64(63))
    inc_lo = (seq_lo << one) | one
    lo = inc_lo + state_lo
    hi = inc_hi + state_hi + (lo < state_lo)
    hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
    # each draw fills one contiguous row; the (members, K) result is the
    # transpose, so a member block's phases are (n, member) rows too
    thetas = np.empty((basis.K, n_members))
    for j in range(basis.K):
        hi, lo = _pcg_step(hi, lo, inc_hi, inc_lo)
        # XSL-RR output, then next_double's 53 bits scaled to [0, 2 pi)
        x, rot = hi ^ lo, hi >> np.uint64(58)
        x = (x >> rot) | (x << (-rot & np.uint64(63)))
        thetas[j] = (x >> np.uint64(11)) * (1.0 / 9007199254740992.0) * (2.0 * math.pi)
    return thetas.T


def _ensemble_setup(basis: EigenBasis, Q: float):
    wt = np.sqrt(basis.w)
    eom = basis.E / _HBAR
    A = antisym_coupling_matrix(basis.K)
    # x(t) = -(L / pi Q) v^T A u with u = wt cos(phi), v = wt sin(phi)
    pref = -basis.L / (math.pi * Q)
    return wt, eom, A, pref


def sample_msd(basis: EigenBasis, Q: float, grid, n_members: int,
               seed: int = 42) -> EnsembleResult:
    """Ensemble-averaged MSD over a time grid, with standard errors."""
    if n_members < 2:
        raise ValidationError("n_members must be >= 2")
    times = validate_grid(grid)
    wt, eom, A, pref = _ensemble_setup(basis, Q)
    thetas = sample_phases(basis, n_members, seed)
    # baseline x(0) prepended so displacements share one evaluation pass
    eval_times = np.concatenate(([0.0], times))
    X = ensemble_positions(wt, thetas, eom, eval_times, A, pref)
    disp_sq = (X[:, 1:] - X[:, :1]) ** 2
    mean = disp_sq.mean(axis=0)
    stderr = disp_sq.std(axis=0, ddof=1) / math.sqrt(n_members)
    return EnsembleResult(
        times=times, mean_msd=mean, stderr=stderr,
        n_members=n_members, seed=seed,
        x0=X[:, 0].copy(),
    )


def sample_msd_rerandomized(basis: EigenBasis, Q: float, ensemble: EnsembleResult,
                            t: float | None = None):
    """Plateau estimate with independent phase sets before and after.

    Pairs each member's x(0) from ``ensemble``, the ``sample_msd`` result
    on the same basis and Q (stream-0 phases), with x(t) from fresh
    stream-1 phases of the same seed, so the averaged squared difference
    is time-independent and estimates the decohered plateau. Returns
    (estimate, stderr, t_used).
    """
    if t is None:
        # arbitrary; any time gives the same expectation
        t = 10.0 * _HBAR * basis.beta
    wt, eom, A, pref = _ensemble_setup(basis, Q)
    thetas_after = sample_phases(basis, ensemble.n_members, ensemble.seed, stream=1)
    xt = ensemble_positions(wt, thetas_after, eom, np.array([float(t)]), A, pref)[:, 0]
    disp_sq = (xt - ensemble.x0) ** 2
    estimate = float(disp_sq.mean())
    stderr = float(disp_sq.std(ddof=1) / math.sqrt(ensemble.n_members))
    return estimate, stderr, float(t)
