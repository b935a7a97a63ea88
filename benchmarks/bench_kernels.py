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

Next it times the theta series (``_theta_msd``), which evaluates expm1 and
the revival images only where they are not exactly 1 and 0, against the
dense series that evaluates them on every (d, t) element
(``dense_theta_msd`` in tests/test_exact.py), at L = 1a, 10a, 20a, 40a and
80a on four grids: the figure2 benchmark's 30 points and figure2's default
300 points on 0..30 t_b, 48 points in [3 t_c, 5 t_c], and the 52 points
above. It prints the best-of-N wall time of each and the maximum
|difference|, which must be 0. L = 1a has a between A_MAX/4 and A_MAX,
so three images per element.

It then times ``ensemble_positions`` for the ``mc-verify`` defaults (K = 201,
10 000 members, 21 times: 0 and 1..20 t_b), and again with the times
stretched to 0 and 50..1000 t_b, against the plain per-time expression
(phi = theta - E t/hbar, u @ A.T per time). It prints the maximum
deviation relative to max |x|, and the matmul flops per member and time
of the plain K x K form (2 K^2) and of the kernel, which folds the basis
by n -> -n into one real (M x M+1) product for the real and imaginary
parts together (4 M (M + 1) = K^2 - 1). At the ``mc-verify`` defaults
it times the kernel again with one worker and with its thread pool
(``kernels._pool_size``: one worker per core that BLAS leaves free, so
two on a 2-core host with OPENBLAS_NUM_THREADS=1 and one at the default
BLAS thread count), and prints both times and the maximum |difference|,
which must be 0. It times the kernel's phase
factors e^(i theta) on one stream of the same 10 000 x 201 phases, in
blocks of ``MEMBER_BLOCK`` members as the kernel takes them: the table
(``_cis``) against ``np.cos`` + ``np.sin``, and prints both times and the
maximum absolute deviation of the table from libm. Then it times the
phase draw for the same 10 000 members and K = 201, one stream: the
8-lane jump-ahead of ``sample_phases`` in ``PHASE_CHUNK``-member chunks,
as ``sample_msd`` draws them, against the row-by-row draw of every
member at once (one PCG64 step per row, no lanes) and against one
``default_rng([seed, i, stream])`` per member, and prints the maximum
|difference| of each from the last, which must be 0. Last it prints the
tracemalloc peak of ``sample_msd`` at 10 000 and 100 000 members (K = 201,
20 times). Needs numpy, and pytest for the test module it imports the
dense series from.
"""

import argparse
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

import numpy as np

import qmsd.kernels
from qmsd import PhysicalSystem, build_basis, derive_scales, partition_function
from qmsd.exact import _theta_msd, msd_exact_curve
from qmsd.kernels import MEMBER_BLOCK, _cis, ensemble_positions, msd_reduce, pair_arrays
from qmsd.montecarlo import (_PCG_MULT, PHASE_CHUNK, _ensemble_setup, _lcg_advance,
                             _seeded_states, _uniform_rows, sample_msd, sample_phases)

# the dense theta series is the tests' oracle and lives with them
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from test_exact import dense_theta_msd  # noqa: E402


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
    basis = build_basis(sys_, 20)
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

    # the mc-verify times again, with one worker and with the thread pool
    times = np.concatenate(([0.0], np.linspace(1.0, 20.0, 20))) * s.t_b
    workers = qmsd.kernels._pool_size(-(-thetas.shape[0] // MEMBER_BLOCK))
    X_pool, t_pool = timed(lambda: ensemble_positions(wt, thetas, eom, times, A, pref),
                           repeats)
    pool_size = qmsd.kernels._pool_size
    qmsd.kernels._pool_size = lambda n_blocks: 1
    try:
        X_one, t_one = timed(lambda: ensemble_positions(wt, thetas, eom, times, A, pref),
                             repeats)
    finally:
        qmsd.kernels._pool_size = pool_size
    diff = float(np.max(np.abs(X_pool - X_one)))
    print(f"\nensemble_positions thread pool, t_max = 20 t_b, {MEMBER_BLOCK}-member blocks")
    print(f"{'1 worker s':>10} {f'{workers} workers s':>11} {'speedup':>8} {'max |diff|':>11}")
    print(f"{t_one:>10.3f} {t_pool:>11.3f} {t_one / t_pool:>7.2f}x {diff:>11.1e}")


def bench_phase_factors(repeats):
    basis = build_basis(PhysicalSystem.from_user_units(28, 190, 256, 10), 20)
    thetas = sample_phases(basis, 10000, seed=42).T     # (K, members)
    K, m = thetas.shape
    rows = MEMBER_BLOCK
    w = np.empty(K * rows, dtype=np.complex128)
    j = np.empty(K * rows, dtype=np.int64)

    def table():
        z = np.empty((K, m), dtype=np.complex128)
        for lo in range(0, m, rows):
            b = min(rows, m - lo)
            _cis(thetas[:, lo:lo + b], z[:, lo:lo + b], w[:K * b].reshape(K, b),
                 j[:K * b].reshape(K, b))
        return z

    def libm():
        z = np.empty((K, m), dtype=np.complex128)
        for lo in range(0, m, rows):
            np.cos(thetas[:, lo:lo + rows], out=z.real[:, lo:lo + rows])
            np.sin(thetas[:, lo:lo + rows], out=z.imag[:, lo:lo + rows])
        return z

    z_tab, t_tab = timed(table, repeats)
    z_libm, t_libm = timed(libm, repeats)
    dev = float(max(np.abs(z_tab.real - z_libm.real).max(),
                    np.abs(z_tab.imag - z_libm.imag).max()))
    print(f"\nphase factors e^(i theta), K = {K}, {m} members, one stream, "
          f"{rows}-member blocks")
    print(f"{'table s':>9} {'libm s':>9} {'speedup':>8} {'max |dev|':>10}")
    print(f"{t_tab:>9.4f} {t_libm:>9.4f} {t_libm / t_tab:>7.1f}x {dev:>10.1e}")


def member_loop_phases(n_members, K, seed, stream=0):
    return np.array([np.random.default_rng([seed, i, stream])
                     .uniform(0.0, 2.0 * np.pi, K) for i in range(n_members)])


def row_by_row_phases(basis, n_members, seed, stream=0, first=0):
    """One PCG64 step per row of K rows for all n members at once, no lanes."""
    hi, lo, inc_hi, inc_lo = _seeded_states(n_members, seed, stream, first)
    scratch = np.empty((4, n_members), np.uint64)
    thetas = np.empty((basis.K, n_members))
    for j in range(basis.K):
        _lcg_advance(hi, lo, _PCG_MULT, inc_hi, inc_lo, scratch)
        _uniform_rows(hi, lo, thetas[j], scratch[:3])
    return thetas.T


def in_chunks(draw, basis, n_members, seed):
    """draw's phases, PHASE_CHUNK members at a time, as the samplers take them."""
    for lo in range(0, n_members, PHASE_CHUNK):
        yield draw(basis, min(PHASE_CHUNK, n_members - lo), seed, 0, lo)


def bench_phases(repeats):
    basis = build_basis(PhysicalSystem.from_user_units(28, 190, 256, 10), 20)
    n_members = 10000
    ref, t_loop = timed(lambda: member_loop_phases(n_members, basis.K, 42), 1)
    print(f"\nphase draw, K = {basis.K}, {n_members} members, one stream; each chunk "
          f"is dropped before the next, as in sample_msd; max |diff| from one "
          f"default_rng per member")
    print(f"{'draw':>34} {'s':>9} {'max |diff|':>11}")
    draws = {f"8 lanes, {PHASE_CHUNK}-member chunks":
             lambda: in_chunks(sample_phases, basis, n_members, 42),
             f"row by row, {PHASE_CHUNK}-member chunks":
             lambda: in_chunks(row_by_row_phases, basis, n_members, 42),
             "row by row, all members at once":
             lambda: iter([row_by_row_phases(basis, n_members, 42)])}
    for name, draw in draws.items():
        _, t_draw = timed(lambda: [chunk.shape for chunk in draw()], repeats)
        diff = float(np.max(np.abs(np.concatenate(list(draw())) - ref)))
        print(f"{name:>34} {t_draw:>9.4f} {diff:>11.1e}")
    print(f"{'default_rng per member':>34} {t_loop:>9.4f} {0.0:>11.1e}")


def bench_sample_msd_memory():
    sys_ = PhysicalSystem.from_user_units(28, 190, 256, 10)
    basis = build_basis(sys_, 20)
    Q = partition_function(basis)
    grid = np.linspace(1.0, 20.0, 20) * derive_scales(sys_).t_b
    print(f"\nsample_msd tracemalloc peak, K = {basis.K}, 20 times")
    print(f"{'members':>9} {'peak MB':>9}")
    for n_members in (10000, 100000):
        tracemalloc.start()
        try:
            sample_msd(basis, Q, grid, n_members, seed=42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        print(f"{n_members:>9} {peak / 1e6:>9.1f}")


def mixed_grid(s):
    """52 times: 5 in (0, 0.05 t_b], 39 in (0, 100 t_b], 8 in [3 t_c, 5 t_c]."""
    return np.sort(np.concatenate([
        np.geomspace(1e-3, 0.05, 5) * s.t_b,
        np.linspace(100 / 39, 100, 39) * s.t_b,
        np.linspace(3 * s.t_c, 5 * s.t_c, 8)]))


def co_cell(n_cells):
    sys_ = PhysicalSystem.from_user_units(28, 190, 256, n_cells)
    basis = build_basis(sys_, 100)
    return derive_scales(sys_), basis, partition_function(basis)


def bench_theta(repeats):
    print("\ntheta series against the dense series; speedup = dense s / theta s")
    print(f"{'L':>4} {'grid':>12} {'theta s':>9} {'dense s':>9} {'speedup':>8} "
          f"{'max |diff|':>11}")
    for n_cells in (1, 10, 20, 40, 80):
        s, basis, Q = co_cell(n_cells)
        grids = {"0:30:30": np.linspace(0.0, 30.0 * s.t_b, 30),
                 "0:30:300": np.linspace(0.0, 30.0 * s.t_b, 300),
                 "3-5 t_c": np.linspace(3 * s.t_c, 5 * s.t_c, 48),
                 "mixed 52": mixed_grid(s)}
        for name, times in grids.items():
            got, t_new = timed(lambda: _theta_msd(basis, Q, times), repeats)
            want, t_dense = timed(lambda: dense_theta_msd(basis, Q, times), repeats)
            diff = float(np.max(np.abs(got - want)))
            print(f"{n_cells:>3}a {name:>12} {t_new:>9.5f} {t_dense:>9.5f} "
                  f"{t_dense / t_new:>7.1f}x {diff:>11.1e}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args()
    warnings.simplefilter("error")  # a numpy overflow warning would void the timing

    print(f"{'L':>4} {'K':>6} {'path':>6} {'theta s':>9} {'direct s':>9} "
          f"{'speedup':>8} {'max rel dev':>12}")
    for n_cells in (10, 20, 40, 80):
        s, basis, Q = co_cell(n_cells)
        times = mixed_grid(s)
        curve, t_theta = timed(lambda: msd_exact_curve(basis, Q, times), args.repeats)
        row = f"{n_cells:>3}a {basis.K:>6} {curve.params['path']:>6} {t_theta:>9.4f}"
        if n_cells == 80:
            print(row + f" {'-':>9} {'-':>8} {'-':>12}")
            continue
        ref, t_direct = timed(lambda: direct_sum(basis, Q, times), 1)
        dev = float(np.max(np.abs(curve.values - ref) / ref))
        print(row + f" {t_direct:>9.3f} {t_direct / t_theta:>7.0f}x {dev:>12.1e}")
    bench_theta(args.repeats)
    bench_ensemble(args.repeats)
    bench_phase_factors(args.repeats)
    bench_phases(args.repeats)
    bench_sample_msd_memory()


if __name__ == "__main__":
    main()
