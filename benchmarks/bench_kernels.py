"""Time the two exact-sum paths (the O(K) theta series and the O(K^2)
direct pair sum) and the Monte-Carlo ensemble kernel.

Usage: python benchmarks/bench_kernels.py [--repeats N]

For CO at 190 K on L = 10a, 20a and 40a (100 functions per cell) it times
``msd_exact_curve``, which takes the theta series on these converged
bases, and the direct pair sum (``pair_arrays`` + ``msd_reduce``) on the
same 52 time points: 5 in (0, 0.05 t_b], 39 in (0, 100 t_b] and 8 in
[3 t_c, 5 t_c]. It prints the best-of-N wall time of each and the maximum
relative deviation of the theta series from the direct sum. At L = 80a it
times the theta series alone: there the direct sum's pair arrays take
about 0.9 GiB.

It then times ``ensemble_positions`` for the ``mc-verify`` defaults (K = 201,
10 000 members, 21 times: 0 and 1..20 t_b), and again with the times
stretched to 0 and 50..1000 t_b, against the plain per-time expression
(phi = theta - E t/hbar, u @ A.T per time). It prints the maximum
deviation relative to max |x|, and the matmul flops per member and time
of the plain K x K form (2 K^2) and of the kernel, which folds the basis
by n -> -n into one real (M x M+1) product for the real and imaginary
parts together (4 M (M + 1) = K^2 - 1). Last it times ``sample_phases`` for
the same 10 000 members and K = 201 against one
``default_rng([seed, i, stream])`` per member, and prints the maximum
|difference|, which must be 0. Needs numpy only.
"""

import argparse
import time
import warnings

import numpy as np

from qmsd import PhysicalSystem, build_basis, derive_scales, partition_function
from qmsd.exact import msd_exact_curve
from qmsd.kernels import ensemble_positions, msd_reduce, pair_arrays
from qmsd.montecarlo import _ensemble_setup, sample_phases


def timed(fn, repeats):
    best = float("inf")
    out = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        out = fn()
        best = min(best, time.perf_counter() - t0)
    return out, best


def direct_sum(basis, Q, times):
    wprod, half_omega = pair_arrays(basis)
    return 8.0 / Q**2 * msd_reduce(wprod, half_omega, times)


def plain_positions(wt, thetas, eom, times, A, pref):
    out = np.empty((thetas.shape[0], times.size))
    for it, t in enumerate(times):
        phi = thetas - eom[None, :] * t
        u = wt[None, :] * np.cos(phi)
        v = wt[None, :] * np.sin(phi)
        out[:, it] = pref * np.einsum("mk,mk->m", v, u @ A.T)
    return out


def bench_ensemble(repeats):
    sys_ = PhysicalSystem.from_user_units(28, 190, 256, 10)
    s = derive_scales(sys_)
    basis = build_basis(sys_, 20, edge_weight_cutoff=1.0)
    Q = partition_function(basis)
    wt, eom, A, pref = _ensemble_setup(basis, Q)
    thetas = sample_phases(basis, 10000, seed=42)
    K, M = basis.K, basis.M
    flops_plain, flops_folded = 2 * K * K, 4 * M * (M + 1)
    print(f"\nensemble_positions, K = {K}, {thetas.shape[0]} members, 21 times; "
          f"flops are matmul flops per member and time")
    print(f"{'t_max/t_b':>9} {'kernel s':>9} {'plain s':>9} {'speedup':>8} "
          f"{'plain flops':>11} {'kernel flops':>12} {'max dev / max|x|':>17}")
    for t_first, t_max in ((1.0, 20.0), (50.0, 1000.0)):
        times = np.concatenate(([0.0], np.linspace(t_first, t_max, 20))) * s.t_b
        X, t_new = timed(lambda: ensemble_positions(wt, thetas, eom, times, A, pref),
                         repeats)
        ref, t_plain = timed(lambda: plain_positions(wt, thetas, eom, times, A, pref), 1)
        dev = float(np.max(np.abs(X - ref)) / np.max(np.abs(ref)))
        print(f"{t_max:>9.0f} {t_new:>9.3f} {t_plain:>9.3f} {t_plain / t_new:>7.1f}x "
              f"{flops_plain:>11} {flops_folded:>12} {dev:>17.1e}")


def member_loop_phases(n_members, K, seed, stream=0):
    return np.array([np.random.default_rng([seed, i, stream])
                     .uniform(0.0, 2.0 * np.pi, K) for i in range(n_members)])


def bench_phases(repeats):
    basis = build_basis(PhysicalSystem.from_user_units(28, 190, 256, 10), 20,
                        edge_weight_cutoff=1.0)
    n_members = 10000
    thetas, t_vec = timed(lambda: sample_phases(basis, n_members, seed=42), repeats)
    ref, t_loop = timed(lambda: member_loop_phases(n_members, basis.K, 42), 1)
    diff = float(np.max(np.abs(thetas - ref)))
    print(f"\nsample_phases, K = {basis.K}, {n_members} members, one stream")
    print(f"{'vector s':>9} {'loop s':>9} {'speedup':>8} {'max |diff|':>11}")
    print(f"{t_vec:>9.3f} {t_loop:>9.3f} {t_loop / t_vec:>7.1f}x {diff:>11.1e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    warnings.simplefilter("error")  # a truncation warning would void the timing

    print(f"{'L':>4} {'K':>6} {'path':>6} {'theta s':>9} {'direct s':>9} "
          f"{'speedup':>8} {'max rel dev':>12}")
    for n_cells in (10, 20, 40, 80):
        sys_ = PhysicalSystem.from_user_units(28, 190, 256, n_cells)
        s = derive_scales(sys_)
        basis = build_basis(sys_, 100)
        Q = partition_function(basis)
        times = np.sort(np.concatenate([
            np.geomspace(1e-3, 0.05, 5) * s.t_b,
            np.linspace(100 / 39, 100, 39) * s.t_b,
            np.linspace(3 * s.t_c, 5 * s.t_c, 8)]))
        curve, t_theta = timed(lambda: msd_exact_curve(basis, Q, times), args.repeats)
        row = f"{n_cells:>3}a {basis.K:>6} {curve.params['path']:>6} {t_theta:>9.4f}"
        if n_cells == 80:
            print(row + f" {'-':>9} {'-':>8} {'-':>12}")
            continue
        ref, t_direct = timed(lambda: direct_sum(basis, Q, times), 1)
        dev = float(np.max(np.abs(curve.values - ref) / ref))
        print(row + f" {t_direct:>9.3f} {t_direct / t_theta:>7.0f}x {dev:>12.1e}")
    bench_ensemble(args.repeats)
    bench_phases(args.repeats)


if __name__ == "__main__":
    main()
