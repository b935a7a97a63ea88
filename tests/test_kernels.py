import numpy as np
import pytest

from qmsd.kernels import (BLOCK, MEMBER_BLOCK, antisym_coupling_matrix,
                          blocked_sum, ensemble_positions, msd_reduce,
                          pair_arrays)


class TestPairArrays:
    def test_counts_and_signs(self, small_basis):
        wprod, half_omega = pair_arrays(small_basis, weight_floor=0.0)
        K = small_basis.K
        assert wprod.size == K * (K - 1) // 2
        assert half_omega.size == wprod.size
        assert np.all(wprod > 0)

    def test_weight_floor_prunes(self, co_basis):
        full, _ = pair_arrays(co_basis, weight_floor=0.0)
        pruned, _ = pair_arrays(co_basis)
        assert pruned.size < full.size

    def test_pruning_preserves_total(self, co_basis):
        full, _ = pair_arrays(co_basis, weight_floor=0.0)
        pruned, _ = pair_arrays(co_basis)
        assert blocked_sum(pruned) == pytest.approx(blocked_sum(full),
                                                    rel=1e-12, abs=0)


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
    @pytest.mark.parametrize("members", [1, 3 * MEMBER_BLOCK // 4, 513, 1030])
    def test_matches_per_time_formula(self, oracle_data, members):
        # member counts that leave a partial last block; 3/4 of a block
        # is one short block
        assert members % MEMBER_BLOCK
        wt, thetas, eom, times, A, pref = oracle_data
        got = ensemble_positions(wt, thetas[:members], eom, times, A, pref)
        want = plain_positions(wt, thetas[:members], eom, times, A, pref)
        assert got.shape == (members, times.size)
        np.testing.assert_allclose(got, want, rtol=0.0,
                                   atol=1e-13 * np.abs(want).max())


class TestStreamZeroReuse:
    def test_rerandomized_with_x0_bit_identical(self, mc_basis):
        from qmsd import CONST, partition_function, sample_msd, sample_msd_rerandomized
        Q = partition_function(mc_basis)
        grid = np.linspace(1.0, 5.0, 3) * CONST.hbar * mc_basis.beta
        res = sample_msd(mc_basis, Q, grid, n_members=600, seed=3)
        assert res.x0.shape == (600,)
        reused = sample_msd_rerandomized(mc_basis, Q, 600, seed=3, x0=res.x0)
        fresh = sample_msd_rerandomized(mc_basis, Q, 600, seed=3)
        assert reused == fresh

    def test_x0_of_wrong_length_rejected(self, mc_basis):
        from qmsd import partition_function, sample_msd_rerandomized
        Q = partition_function(mc_basis)
        with pytest.raises(ValueError):
            sample_msd_rerandomized(mc_basis, Q, 600, seed=3, x0=np.zeros(599))


def small_inputs(K, members, seed):
    """Kernel inputs on a single-cell basis of K states, with phases."""
    from qmsd import CONST, PhysicalSystem, build_basis, partition_function
    from qmsd.montecarlo import _ensemble_setup, sample_phases
    basis = build_basis(PhysicalSystem.from_user_units(28.0, 190.0, 256.0, 1), K,
                        edge_weight_cutoff=1.0)
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
