"""Time the two exact-sum paths: the O(K) theta series and the O(K^2)
direct pair sum.

Usage: python benchmarks/bench_kernels.py [--repeats N]

For CO at 190 K on L = 10a, 20a and 40a (100 functions per cell) it times
``msd_exact_curve``, which takes the theta series on these converged
bases, and the direct pair sum (``pair_arrays`` + ``msd_reduce``) on the
same 52 time points: 5 in (0, 0.05 t_b], 39 in (0, 100 t_b] and 8 in
[3 t_c, 5 t_c]. It prints the best-of-N wall time of each and the maximum
relative deviation of the theta series from the direct sum. At L = 80a it
times the theta series alone: there the direct sum's pair arrays take
about 0.9 GiB. Needs numpy only.
"""

import argparse
import time
import warnings

import numpy as np

from qmsd import PhysicalSystem, build_basis, derive_scales, partition_function
from qmsd.exact import msd_exact_curve
from qmsd.kernels import msd_reduce, pair_arrays


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


if __name__ == "__main__":
    main()
