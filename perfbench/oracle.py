"""Plain-numpy reference values for the benchmark's correctness checks.

Nothing here imports qmsd. The basis, the Boltzmann weights and the full
double sum over n != j are written out from their physical definitions,
so a check never runs through the code path being timed (the program
folds the sum to n < j, drops states below a weight floor and uses its
own kernels).
"""

from __future__ import annotations

import math

import numpy as np

K_B = 1.380649e-23        # J/K
HBAR = 6.62607015e-34 / (2.0 * math.pi)  # J s
AMU = 1.66053906660e-27   # kg

# the CLI defaults: CO at 28 u and 190 K on a lattice of a = 256 pm
MASS_U, TEMPERATURE_K, LATTICE_PM = 28.0, 190.0, 256.0
LATTICE_M = LATTICE_PM * 1e-12


def read_csv(path) -> dict[str, np.ndarray]:
    """Columns of a qmsd CSV (comment line, header, rows) by header name."""
    lines = [ln for ln in open(path).read().splitlines() if not ln.startswith("#")]
    header = lines[0].split(",")
    rows = np.array([[float(x) for x in ln.split(",")] for ln in lines[1:]])
    return {name: rows[:, i] for i, name in enumerate(header)}


def direct_sums(n_cells: int, funcs_per_cell: int, times, rows: int = 256):
    """Exact MSD at each time and the decohered plateau, both in m^2.

    MSD(t) = 4/Q^2 sum_{n != j} w_n w_j / (q_n - q_j)^2 sin^2((E_n - E_j) t / 2 hbar)
    plateau = 2/Q^2 sum_{n != j} w_n w_j / (q_n - q_j)^2
    over the K = funcs_per_cell * n_cells (rounded up to odd) plane waves.
    """
    K = funcs_per_cell * n_cells
    K += K % 2 == 0
    M = (K - 1) // 2
    L = n_cells * LATTICE_M
    mass = MASS_U * AMU
    beta = 1.0 / (K_B * TEMPERATURE_K)
    q = 2.0 * math.pi * np.arange(-M, M + 1) / L
    E = HBAR**2 * q**2 / (2.0 * mass)
    w = np.exp(-beta * E)
    Q = math.fsum(w)
    times = np.asarray(times, dtype=float)
    sums = np.zeros(times.size)
    plain = 0.0
    for lo in range(0, K, rows):
        dq = q[lo:lo + rows, None] - q[None, :]
        off = dq != 0.0
        c = np.zeros_like(dq)
        c[off] = (w[lo:lo + rows, None] * w[None, :])[off] / dq[off] ** 2
        plain += c.sum()
        half_omega = (E[lo:lo + rows, None] - E[None, :]) / (2.0 * HBAR)
        for i, t in enumerate(times):
            sums[i] += (c * np.sin(half_omega * t) ** 2).sum()
    return 4.0 / Q**2 * sums, 2.0 / Q**2 * plain


def rel_dev(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.abs(want)))
