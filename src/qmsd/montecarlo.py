"""Stochastic oracle: explicit random-phase thermal wave packets.

Samples members of the thermal ensemble, evolves them coherently,
and averages squared displacements of the position expectation value.
Validates the analytic phase-averaged double sum and the
re-randomization plateau. This is an oracle path: K is kept small
(each member costs O(K^2) per time point).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .basis import EigenBasis
from .constants import CONST, ValidationError
from .curves import validate_grid
from .kernels import antisym_coupling_matrix, ensemble_positions

_HBAR = CONST.hbar


@dataclass(frozen=True)
class ThermalMember:
    """One random-phase member; phases match basis indices in order."""

    phases: np.ndarray  # theta_n in [0, 2 pi)

    def amplitudes(self, basis: EigenBasis, Q: float) -> np.ndarray:
        """c_n = exp(-beta E_n / 2 + i theta_n) / sqrt(Q)."""
        if self.phases.size != basis.K:
            raise ValueError("member phase count does not match basis size")
        return np.exp(-basis.beta * basis.E / 2.0 + 1j * self.phases) / math.sqrt(Q)


@dataclass
class EnsembleResult:
    times: np.ndarray
    mean_msd: np.ndarray  # m^2
    stderr: np.ndarray    # m^2
    n_members: int
    seed: int
    params: dict = field(default_factory=dict)
    x0: np.ndarray | None = None  # each member's x(0) (m), stream-0 phases


def _member_rng(seed: int, index: int, stream: int = 0) -> np.random.Generator:
    # stream derived from (seed, member index), so member sets are
    # order-independent under parallel generation
    return np.random.default_rng([seed, index, stream])


def sample_phases(basis: EigenBasis, n_members: int, seed: int,
                  stream: int = 0) -> np.ndarray:
    thetas = np.empty((n_members, basis.K))
    for i in range(n_members):
        thetas[i] = _member_rng(seed, i, stream).uniform(0.0, 2.0 * math.pi, basis.K)
    return thetas


def position_expectation(member: ThermalMember, basis: EigenBasis, Q: float,
                         t: float) -> float:
    """Position expectation value of one member at time t (m).

    Evaluated through the real antisymmetric quadratic form equivalent
    to the trace of x rho(t); the complex residue cancels identically.
    """
    if member.phases.size != basis.K:
        raise ValueError("member phase count does not match basis size")
    wt, eom, A, pref = _ensemble_setup(basis, Q)
    X = ensemble_positions(wt, member.phases[None, :], eom,
                           np.array([float(t)]), A, pref)
    return float(X[0, 0])


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
        params={"K": basis.K, "L": basis.L, "Q": Q},
        x0=X[:, 0].copy(),
    )


def sample_msd_rerandomized(basis: EigenBasis, Q: float, n_members: int,
                            seed: int = 42, t: float | None = None,
                            x0: np.ndarray | None = None):
    """Plateau estimate with independent phase sets before and after.

    Draws uncorrelated phases for time 0 and time t, so the averaged
    squared difference is time-independent and estimates the decohered
    plateau. Returns (estimate, stderr, t_used).

    x0, if given, is the members' x(0) from ``sample_msd`` with the same
    basis, Q, n_members and seed (``EnsembleResult.x0``); the stream-0
    phases are then not drawn again.
    """
    if n_members < 2:
        raise ValidationError("n_members must be >= 2")
    if t is None:
        # arbitrary; any time gives the same expectation
        t = 10.0 * _HBAR * basis.beta
    wt, eom, A, pref = _ensemble_setup(basis, Q)
    if x0 is None:
        thetas_before = sample_phases(basis, n_members, seed, stream=0)
        x0 = ensemble_positions(wt, thetas_before, eom, np.array([0.0]), A, pref)[:, 0]
    elif np.shape(x0) != (n_members,):
        raise ValueError(f"x0 has shape {np.shape(x0)}, expected ({n_members},)")
    thetas_after = sample_phases(basis, n_members, seed, stream=1)
    xt = ensemble_positions(wt, thetas_after, eom, np.array([float(t)]), A, pref)[:, 0]
    disp_sq = (xt - x0) ** 2
    estimate = float(disp_sq.mean())
    stderr = float(disp_sq.std(ddof=1) / math.sqrt(n_members))
    return estimate, stderr, float(t)
