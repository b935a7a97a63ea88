import dataclasses
import os
import sys
import threading

import numpy as np
import pytest

import qmsd.kernels
from qmsd.kernels import (_CIS_N, _TWO_PI, BLOCK, MEMBER_BLOCK, _cis, _pool_size,
                          antisym_coupling_matrix, blocked_sum, ensemble_positions,
                          msd_reduce, pair_arrays)


def unpruned_wprod(basis):
    """w_n w_j |x_nj|^2 over every pair n < j of the basis, none dropped."""
    i, j = np.triu_indices(basis.K, k=1)
    dq = basis.q[i] - basis.q[j]
    return basis.w[i] * basis.w[j] / (dq * dq)


class TestPairArrays:
    def test_counts_and_signs(self, small_basis):
        # every state of this truncated basis is above the weight floor
        assert small_basis.w.min() >= small_basis.weight_floor
        wprod, half_omega = pair_arrays(small_basis)
        K = small_basis.K
        assert wprod.size == K * (K - 1) // 2
        assert half_omega.size == wprod.size
        assert np.all(wprod > 0)

    def test_weight_floor_prunes(self, co_basis):
        pruned, _ = pair_arrays(co_basis)
        kept = np.count_nonzero(co_basis.w >= co_basis.weight_floor)
        assert kept < co_basis.K
        assert pruned.size == kept * (kept - 1) // 2

    def test_state_at_the_floor_is_kept(self, small_basis):
        # n = +-10 moved to exactly the floor, which reads w(n = 1) alone
        w = small_basis.w.copy()
        w[0] = w[-1] = small_basis.weight_floor
        basis = dataclasses.replace(small_basis, w=w)
        assert basis.weight_floor == small_basis.weight_floor
        K = basis.K
        assert pair_arrays(basis)[0].size == K * (K - 1) // 2

    def test_pruning_preserves_total(self, co_basis):
        pruned, _ = pair_arrays(co_basis)
        assert blocked_sum(pruned) == pytest.approx(
            blocked_sum(unpruned_wprod(co_basis)), rel=1e-12, abs=0)


@pytest.fixture(scope="module")
def reduce_data(co_basis, co_scales):
    wprod, half_omega = pair_arrays(co_basis)
    times = np.linspace(0.0, 20.0, 17) * co_scales.t_b
    return wprod, half_omega, times


class TestMsdReduceTwins:
    def test_deterministic_across_calls(self, reduce_data):
        wprod, half_omega, times = reduce_data
        a = msd_reduce(wprod, half_omega, times)
        b = msd_reduce(wprod, half_omega, times)
        assert np.array_equal(a, b)

    def test_matches_plain_sum(self, reduce_data):
        wprod, half_omega, times = reduce_data
        got = msd_reduce(wprod, half_omega, times)
        want = np.array([np.sum(wprod * np.sin(half_omega * t) ** 2)
                         for t in times])
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_scalar_time_accepted(self, reduce_data):
        wprod, half_omega, _ = reduce_data
        out = msd_reduce(wprod, half_omega, 0.0)
        assert out.shape == (1,)
        assert out[0] == 0.0


class TestBlockedSum:
    def test_small_and_block_boundary_sizes(self):
        rng = np.random.default_rng(0)
        for n in (0, 1, BLOCK - 1, BLOCK, BLOCK + 1, 3 * BLOCK + 17):
            v = rng.standard_normal(n)
            assert blocked_sum(v) == pytest.approx(float(np.sum(v)),
                                                   rel=1e-12, abs=1e-12)

    def test_deterministic(self):
        v = np.random.default_rng(1).standard_normal(10 * BLOCK + 5)
        assert blocked_sum(v) == blocked_sum(v)


class TestAntisymCouplingMatrix:
    def test_structure(self):
        A = antisym_coupling_matrix(7)
        assert np.array_equal(A, -A.T)
        assert np.all(np.diag(A) == 0.0)
        assert A[1, 0] == -1.0
        assert A[2, 0] == 0.5
        assert A[3, 0] == pytest.approx(-1 / 3)

    def test_alternating_sign_along_rows(self):
        A = antisym_coupling_matrix(10)
        for gap in range(1, 9):
            expected = (-1.0) ** gap / gap
            assert A[gap, 0] == pytest.approx(expected, rel=1e-15, abs=0)


@pytest.fixture(scope="module")
def position_data(mc_basis):
    from qmsd import partition_function
    from qmsd.montecarlo import _ensemble_setup, sample_phases
    Q = partition_function(mc_basis)
    wt, eom, A, pref = _ensemble_setup(mc_basis, Q)
    thetas = sample_phases(mc_basis, 32, seed=17)
    t_b = 1.0 / eom[2]
    times = np.linspace(0.0, 40.0, 5) * t_b
    return wt, thetas, eom, times, A, pref


class TestEnsemblePositionsTwins:
    def test_single_member_row_vector_promoted(self, position_data):
        wt, thetas, eom, times, A, pref = position_data
        one = ensemble_positions(wt, thetas[0], eom, times, A, pref)
        assert one.shape == (1, 5)
        full = ensemble_positions(wt, thetas, eom, times, A, pref)
        np.testing.assert_allclose(one[0], full[0], rtol=1e-13)


def plain_positions(wt, thetas, eom, times, A, pref):
    """Oracle: the position form evaluated directly at each time."""
    out = np.empty((thetas.shape[0], times.size))
    for it, t in enumerate(times):
        phi = thetas - eom[None, :] * t
        u = wt[None, :] * np.cos(phi)
        v = wt[None, :] * np.sin(phi)
        out[:, it] = pref * np.einsum("mk,mk->m", v, u @ A.T)
    return out


@pytest.fixture(scope="module")
def oracle_data(mc_basis):
    from qmsd import CONST, partition_function
    from qmsd.montecarlo import _ensemble_setup, sample_phases
    Q = partition_function(mc_basis)
    wt, eom, A, pref = _ensemble_setup(mc_basis, Q)
    thetas = sample_phases(mc_basis, 1030, seed=23)
    t_b = CONST.hbar * mc_basis.beta
    times = np.concatenate(([0.0], np.geomspace(1e-2, 1e3, 12))) * t_b
    return wt, thetas, eom, times, A, pref


class TestEnsemblePositionsOracle:
    @pytest.mark.parametrize("members", [1, 96, 192, 513, 1030])
    def test_matches_per_time_formula(self, oracle_data, members):
        # member counts that leave a partial last block; 96 is one short
        # block
        assert members % MEMBER_BLOCK
        wt, thetas, eom, times, A, pref = oracle_data
        got = ensemble_positions(wt, thetas[:members], eom, times, A, pref)
        want = plain_positions(wt, thetas[:members], eom, times, A, pref)
        assert got.shape == (members, times.size)
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-13 * np.abs(want).max())


def cis(theta):
    """_cis on an array of phases, with its scratch allocated here."""
    theta = np.asarray(theta, dtype=np.float64)
    out = np.empty(theta.shape, dtype=np.complex128)
    _cis(theta, out, np.empty_like(out), np.empty(theta.shape, dtype=np.int64))
    return out


class TestCis:
    """The table phase factors against libm's cos and sin."""

    def test_matches_libm_on_seeded_phases(self):
        # sample_phases' values: k 2^-53 2pi, k up to 2^53
        k = np.random.default_rng(2024).integers(0, 2**53, size=1_000_000,
                                                 endpoint=True)
        theta = k * (1.0 / 2**53) * _TWO_PI
        z = cis(theta)
        assert np.abs(z.real - np.cos(theta)).max() <= 2.0**-52
        assert np.abs(z.imag - np.sin(theta)).max() <= 2.0**-52

    def test_matches_libm_at_table_edges(self):
        # each node j 2pi/N and each midpoint, where rint changes j, +- 1 ulp
        j = np.arange(_CIS_N + 1)
        step = _TWO_PI / _CIS_N
        points = np.concatenate((j * step, (j[:-1] + 0.5) * step))
        theta = np.concatenate((points, np.nextafter(points, -1.0),
                                np.nextafter(points, 7.0),
                                [0.0, _TWO_PI, np.nextafter(_TWO_PI, 0.0)]))
        theta = theta[(theta >= 0.0) & (theta <= _TWO_PI)]
        assert theta.size > 6 * _CIS_N
        z = cis(theta)
        assert np.abs(z.real - np.cos(theta)).max() <= 2.0**-52
        assert np.abs(z.imag - np.sin(theta)).max() <= 2.0**-52
        assert z[0] == 1.0

    @pytest.mark.parametrize("quarter", [0, 1, 2, 3, 4])
    def test_truncation_below_ulps_where_a_part_vanishes(self, quarter):
        # within 3 nodes of a multiple of pi/2 the vanishing part is small,
        # so its absolute error shows the series' truncation: d^5/120 <=
        # 2.2e-18 at |d| <= pi/N, against 7e-17 if d ranged over 2pi/N
        step = _TWO_PI / _CIS_N
        centre = quarter * (_CIS_N // 4) * step
        theta = centre + np.linspace(-3.0, 3.0, 60_001) * step
        theta = theta[(theta >= 0.0) & (theta <= _TWO_PI)]
        z = cis(theta)
        got, want = (z.imag, np.sin(theta)) if quarter % 2 == 0 else (z.real, np.cos(theta))
        assert np.abs(got - want).max() <= 5e-18


class TestEnsemblePositionsDomain:
    @pytest.mark.parametrize("bad", [-5e-324, np.nextafter(_TWO_PI, 7.0),
                                     np.nan, np.inf])
    def test_phase_outside_zero_two_pi_rejected(self, position_data, bad):
        wt, thetas, eom, times, A, pref = position_data
        thetas = thetas.copy()
        thetas[3, 7] = bad
        with pytest.raises(ValueError, match=r"\[0, 2 pi\]"):
            ensemble_positions(wt, thetas, eom, times, A, pref)

    def test_both_ends_accepted(self, position_data):
        wt, thetas, eom, times, A, pref = position_data
        thetas = thetas.copy()
        thetas[3, :2] = 0.0, _TWO_PI
        got = ensemble_positions(wt, thetas, eom, times, A, pref)
        want = plain_positions(wt, thetas, eom, times, A, pref)
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-13 * np.abs(want).max())


def with_workers(monkeypatch, n):
    """Make ensemble_positions share its blocks over n workers, or fewer
    when there are fewer blocks."""
    monkeypatch.setattr(qmsd.kernels, "_pool_size", lambda n_blocks: min(n, n_blocks))


@pytest.fixture(scope="module")
def pool_data(mc_basis):
    from qmsd import partition_function
    from qmsd.montecarlo import _ensemble_setup, sample_phases
    wt, eom, A, pref = _ensemble_setup(mc_basis, partition_function(mc_basis))
    thetas = sample_phases(mc_basis, 4101, seed=29)
    times = np.array([0.0, 1.0, 7.0, 300.0]) / eom[2]
    return wt, thetas, eom, times, A, pref


class TestEnsemblePositionsPool:
    """The member blocks shared out over worker threads."""

    @pytest.mark.parametrize("members", [1, MEMBER_BLOCK - 1, MEMBER_BLOCK,
                                         MEMBER_BLOCK + 1, 1030, 4101])
    def test_bit_identical_across_pool_sizes(self, pool_data, monkeypatch, members):
        # each call writes into NaN, so a block that no worker computes shows
        wt, thetas, eom, times, A, pref = pool_data
        got = {}
        for n in (1, 2):
            with_workers(monkeypatch, n)
            out = np.full((members, times.size), np.nan)
            ensemble_positions(wt, thetas[:members], eom, times, A, pref, out=out)
            got[n] = out
        assert np.array_equal(got[1], got[2])
        want = plain_positions(wt, thetas[:members], eom, times, A, pref)
        np.testing.assert_allclose(got[2], want, rtol=0.0,
                                   atol=1e-13 * np.abs(want).max())

    def test_more_workers_than_cores_under_fast_switching(self, pool_data, monkeypatch):
        # four workers on 4101 members (33 blocks), switching threads every
        # microsecond: a buffer or row shared between workers would show
        wt, thetas, eom, times, A, pref = pool_data
        with_workers(monkeypatch, 1)
        want = ensemble_positions(wt, thetas, eom, times, A, pref)
        with_workers(monkeypatch, 4)
        before = threading.active_count()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = ensemble_positions(wt, thetas, eom, times, A, pref)
        finally:
            sys.setswitchinterval(interval)
        assert threading.active_count() == before
        assert np.array_equal(got, want)

    def test_no_members_gives_an_empty_result(self, pool_data):
        wt, thetas, eom, times, A, pref = pool_data
        got = ensemble_positions(wt, thetas[:0], eom, times, A, pref)
        assert got.shape == (0, times.size)

    def test_bad_phase_in_second_workers_block_raises(self, pool_data, monkeypatch):
        wt, thetas, eom, times, A, pref = pool_data
        thetas = thetas[:4 * MEMBER_BLOCK].copy()
        thetas[MEMBER_BLOCK + 5, 7] = np.nan          # block 1, worker 1's
        with_workers(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(ValueError, match=r"\[0, 2 pi\]"):
            ensemble_positions(wt, thetas, eom, times, A, pref)
        assert threading.active_count() == before

    def test_worker_exception_raised_in_caller(self, pool_data, monkeypatch):
        # an error inside a worker thread reaches the caller once every
        # worker is joined
        wt, thetas, eom, times, A, pref = pool_data
        real = qmsd.kernels._cis

        def failing_off_main(*args):
            if threading.current_thread() is not threading.main_thread():
                raise FloatingPointError("worker failed")
            real(*args)

        monkeypatch.setattr(qmsd.kernels, "_cis", failing_off_main)
        with_workers(monkeypatch, 2)
        before = threading.active_count()
        with pytest.raises(FloatingPointError, match="worker failed"):
            ensemble_positions(wt, thetas[:4 * MEMBER_BLOCK], eom, times, A, pref)
        assert threading.active_count() == before

    def test_writes_into_out_rows(self, pool_data, monkeypatch):
        wt, thetas, eom, times, A, pref = pool_data
        with_workers(monkeypatch, 2)
        want = ensemble_positions(wt, thetas[:1030], eom, times, A, pref)
        X = np.full((1100, times.size), -1.0)
        rows = X[40:1070]
        got = ensemble_positions(wt, thetas[:1030], eom, times, A, pref, out=rows)
        assert got is rows
        assert np.array_equal(X[40:1070], want)
        assert np.all(X[:40] == -1.0) and np.all(X[1070:] == -1.0)

    @pytest.mark.parametrize("shape,dtype", [((1030, 3), np.float64),
                                             ((1029, 4), np.float64),
                                             ((1030, 4), np.float32)])
    def test_out_of_wrong_shape_or_dtype_rejected(self, pool_data, shape, dtype):
        wt, thetas, eom, times, A, pref = pool_data
        with pytest.raises(ValueError, match="out of shape"):
            ensemble_positions(wt, thetas[:1030], eom, times, A, pref,
                               out=np.empty(shape, dtype))


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


@pytest.fixture
def cores(monkeypatch):
    """Set the affinity _pool_size reads to n cores, with no BLAS variable."""
    for var in BLAS_VARS:
        monkeypatch.delenv(var, raising=False)

    def set_cores(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
    return set_cores


class TestPoolSize:
    """One worker per core that BLAS leaves free, never more than the blocks."""

    @pytest.mark.parametrize("n", [1, 2, 8])
    def test_unset_is_one_worker(self, cores, n):
        cores(n)
        assert _pool_size(100) == 1

    @pytest.mark.parametrize("var", BLAS_VARS)
    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_one_blas_thread_gives_a_worker_per_core(self, cores, monkeypatch, var, n):
        cores(n)
        monkeypatch.setenv(var, "1")
        assert _pool_size(100) == n

    def test_two_blas_threads_on_two_cores_is_one_worker(self, cores, monkeypatch):
        cores(2)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert _pool_size(100) == 1

    def test_openblas_order_of_precedence(self, cores, monkeypatch):
        cores(8)
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        monkeypatch.setenv("GOTO_NUM_THREADS", "4")
        assert _pool_size(100) == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "8")
        assert _pool_size(100) == 1

    @pytest.mark.parametrize("value", ["", "two", "1.5", "0", "-1"])
    def test_value_not_a_positive_integer_counts_as_unset(self, cores, monkeypatch,
                                                          value):
        cores(4)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", value)
        assert _pool_size(100) == 1
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        assert _pool_size(100) == 2

    def test_cpu_count_where_there_is_no_affinity_call(self, cores, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert _pool_size(100) == 2

    @pytest.mark.parametrize("n_blocks", [1, 2, 3])
    def test_never_more_workers_than_blocks(self, cores, monkeypatch, n_blocks):
        cores(8)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert _pool_size(n_blocks) == n_blocks


class TestSampleMsdEstimator:
    def test_matches_estimator_from_plain_positions(self, mc_basis):
        # 1030 members: eight whole blocks and a short one
        from qmsd import CONST, partition_function, sample_msd
        from qmsd.montecarlo import _ensemble_setup, sample_phases
        members, seed = 1030, 11
        assert members % MEMBER_BLOCK
        Q = partition_function(mc_basis)
        grid = np.linspace(1.0, 20.0, 20) * CONST.hbar * mc_basis.beta
        res = sample_msd(mc_basis, Q, grid, n_members=members, seed=seed)
        thetas = sample_phases(mc_basis, members, seed)
        # the kernel's stated domain; the largest draw, (2^53 - 1) 2^-53
        # 2pi, rounds to at most 2pi
        assert thetas.min() >= 0.0 and thetas.max() <= _TWO_PI
        assert (2**53 - 1) * (1.0 / 2**53) * _TWO_PI <= _TWO_PI
        wt, eom, A, pref = _ensemble_setup(mc_basis, Q)
        X = plain_positions(wt, thetas, eom, np.concatenate(([0.0], grid)), A, pref)
        disp_sq = (X[:, 1:] - X[:, :1]) ** 2
        np.testing.assert_allclose(res.mean_msd, disp_sq.mean(axis=0),
                                   rtol=1e-13, atol=0)
        np.testing.assert_allclose(res.stderr,
                                   disp_sq.std(axis=0, ddof=1) / np.sqrt(members),
                                   rtol=1e-13, atol=0)


class TestStreamZeroReuse:
    def test_rerandomized_with_x0_bit_identical(self, mc_basis):
        # the plateau from the ensemble's x(0) equals one built here from
        # a stream 0 drawn afresh and evaluated at t = 0 alone
        from qmsd import CONST, partition_function, sample_msd, sample_msd_rerandomized
        from qmsd.montecarlo import _ensemble_setup, sample_phases
        Q = partition_function(mc_basis)
        grid = np.linspace(1.0, 5.0, 3) * CONST.hbar * mc_basis.beta
        res = sample_msd(mc_basis, Q, grid, n_members=600, seed=3)
        t = 10.0 * CONST.hbar * mc_basis.beta
        wt, eom, A, pref = _ensemble_setup(mc_basis, Q)
        x0 = ensemble_positions(wt, sample_phases(mc_basis, 600, 3, stream=0), eom,
                                np.array([0.0]), A, pref)[:, 0]
        xt = ensemble_positions(wt, sample_phases(mc_basis, 600, 3, stream=1), eom,
                                np.array([t]), A, pref)[:, 0]
        disp_sq = (xt - x0) ** 2
        np.testing.assert_array_equal(res.x0, x0)
        assert sample_msd_rerandomized(mc_basis, Q, res) == (
            float(disp_sq.mean()), float(disp_sq.std(ddof=1) / np.sqrt(600)), t)


def small_inputs(K, members, seed):
    """Kernel inputs on a single-cell basis of K states, with phases."""
    from qmsd import CONST, PhysicalSystem, build_basis, partition_function
    from qmsd.montecarlo import _ensemble_setup, sample_phases
    basis = build_basis(PhysicalSystem.from_user_units(28.0, 190.0, 256.0, 1), K)
    assert basis.K == K
    wt, eom, A, pref = _ensemble_setup(basis, partition_function(basis))
    thetas = sample_phases(basis, members, seed=seed)
    times = np.array([0.0, 0.3, 2.0, 50.0]) * CONST.hbar * basis.beta
    return wt, thetas, eom, times, A, pref


class TestEnsemblePositionsParity:
    """The kernel folds n -> -n; inputs without that parity are refused."""

    def test_single_state_has_no_position(self):
        # K = 1: the only state is n = 0 and A = [[0]]
        wt, thetas, eom, times, A, pref = small_inputs(1, 5, seed=2)
        got = ensemble_positions(wt, thetas, eom, times, A, pref)
        assert got.shape == (5, times.size)
        assert np.array_equal(got, np.zeros_like(got))
        assert np.array_equal(plain_positions(wt, thetas, eom, times, A, pref),
                              np.zeros_like(got))

    def test_three_states_match_per_time_formula(self):
        wt, thetas, eom, times, A, pref = small_inputs(3, 40, seed=5)
        got = ensemble_positions(wt, thetas, eom, times, A, pref)
        want = plain_positions(wt, thetas, eom, times, A, pref)
        assert np.abs(want).max() > 0
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-13 * np.abs(want).max())

    def test_even_K_rejected(self):
        # reversal-symmetric inputs of even length: there is no n = 0
        wt, eom, A = np.ones(4), np.zeros(4), antisym_coupling_matrix(4)
        assert np.array_equal(A, -A[::-1, ::-1])
        with pytest.raises(ValueError, match="n -> -n"):
            ensemble_positions(wt, np.zeros((2, 4)), eom, [0.0, 1.0], A, 1.0)

    @pytest.mark.parametrize("which", ["wt", "eom"])
    def test_spectrum_one_ulp_off_rejected(self, position_data, which):
        wt, thetas, eom, times, A, pref = position_data
        args = {"wt": wt.copy(), "eom": eom.copy()}
        args[which][-1] = np.nextafter(args[which][-1], np.inf)
        with pytest.raises(ValueError, match="n -> -n"):
            ensemble_positions(args["wt"], thetas, args["eom"], times, A, pref)

    def test_coupling_not_reversal_odd_rejected(self, position_data):
        # still antisymmetric, A = -A.T, but no longer odd under n -> -n
        wt, thetas, eom, times, A, pref = position_data
        bent = A.copy()
        bent[0, 1] += 1e-3
        bent[1, 0] -= 1e-3
        assert np.array_equal(bent, -bent.T)
        with pytest.raises(ValueError, match="n -> -n"):
            ensemble_positions(wt, thetas, eom, times, bent, pref)

    def test_phase_count_mismatch_rejected(self, position_data):
        wt, thetas, eom, times, A, pref = position_data
        with pytest.raises(ValueError, match="n -> -n"):
            ensemble_positions(wt, thetas[:, :-2], eom, times, A, pref)
