import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

import qmsd.montecarlo
from qmsd import (CONST, breve_basis_sum, msd_basis_curve, partition_function, sample_msd,
                  sample_msd_rerandomized, sample_phases)
from qmsd.constants import ValidationError
from qmsd.montecarlo import (MAX_K, MAX_MEMBER_TIMES, MEMBER_BLOCK, PHASE_CHUNK,
                             _check_ensemble, _ensemble_setup, ensemble_positions)
from oracles import ThermalMember, brute_position, domain_pattern, one_draw_positions


class TestPositionExpectation:
    def test_matches_brute_force(self, small_basis):
        Q = partition_function(small_basis)
        t_b = CONST.hbar * small_basis.beta
        wt, eom, A, pref = _ensemble_setup(small_basis)
        rng = np.random.default_rng(7)
        for trial in range(3):
            member = ThermalMember(
                phases=rng.uniform(0, 2 * math.pi, small_basis.K))
            for t in (0.0, 0.7 * t_b, 3.3 * t_b):
                fast = ensemble_positions(wt, member.phases[None, :], eom,
                                          np.array([t]), A, pref)[0, 0]
                slow = brute_position(member, small_basis, Q, t)
                assert fast == pytest.approx(slow, rel=1e-10, abs=1e-25)

    def test_bounded_by_half_box(self, small_basis):
        rng = np.random.default_rng(11)
        t_b = CONST.hbar * small_basis.beta
        wt, eom, A, pref = _ensemble_setup(small_basis)
        for trial in range(20):
            phases = rng.uniform(0, 2 * math.pi, small_basis.K)
            x = ensemble_positions(wt, phases[None, :], eom, np.array([2 * t_b]), A, pref)
            assert abs(x[0, 0]) < small_basis.L / 2


class TestAmplitudes:
    def test_normalized(self, small_basis):
        Q = partition_function(small_basis)
        member = ThermalMember(phases=np.zeros(small_basis.K))
        c = member.amplitudes(small_basis, Q)
        assert np.sum(np.abs(c) ** 2) == pytest.approx(1.0, abs=1e-10)

    def test_phase_carried(self, small_basis):
        Q = partition_function(small_basis)
        theta = np.full(small_basis.K, 0.5)
        c = member_c = ThermalMember(phases=theta).amplitudes(small_basis, Q)
        np.testing.assert_allclose(np.angle(member_c), 0.5, rtol=1e-12)
        assert np.all(np.abs(c) > 0)


class TestSamplePhases:
    def test_deterministic_and_order_independent(self, mc_basis):
        a = sample_phases(mc_basis, 8, seed=42)
        b = sample_phases(mc_basis, 8, seed=42)
        assert np.array_equal(a, b)
        # member i is the same regardless of how many members are drawn
        c = sample_phases(mc_basis, 3, seed=42)
        assert np.array_equal(a[:3], c)

    def test_range(self, mc_basis):
        a = sample_phases(mc_basis, 50, seed=1)
        assert np.all(a >= 0) and np.all(a < 2 * math.pi)
        assert abs(a.mean() - math.pi) < 0.05

    # seeds of one to five 32-bit words: 2**64 + 5 and 3**90 take the
    # SeedSequence mixing loop for entropy beyond its pool of four words
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 5, 3**90])
    # every member's entropy ends in the word 0
    @pytest.mark.parametrize("last_word", [0])
    @pytest.mark.parametrize("n,K", [(1, 1), (300, 201), (7, 1001)])
    def test_bit_identical_to_default_rng(self, seed, last_word, n, K):
        got = sample_phases(SimpleNamespace(K=K), n, seed)
        want = np.array([np.random.default_rng([seed, i, last_word])
                         .uniform(0.0, 2.0 * math.pi, K) for i in range(n)])
        # drawn as K contiguous rows of n and returned transposed
        assert got.shape == (n, K) and got.flags.f_contiguous
        assert np.array_equal(got, want)

    def test_negative_seed_rejected(self, mc_basis):
        with pytest.raises(ValidationError):
            sample_phases(mc_basis, 4, seed=-1)

    def test_more_members_than_member_streams_rejected(self, mc_basis):
        # member indices are one 32-bit entropy word
        with pytest.raises(ValidationError):
            sample_phases(mc_basis, 2**32 + 1, seed=42)

    # K = 21 is two whole 8-lane steps and a partial one; the last case
    # ends at member 2**32 - 1, the last member stream
    @pytest.mark.parametrize("n,first", [(5, 3), (9, 2047), (4, 2**32 - 4)])
    @pytest.mark.parametrize("last_word", [0])
    def test_first_offsets_the_member_streams(self, n, first, last_word):
        got = sample_phases(SimpleNamespace(K=21), n, 42, first=first)
        want = np.array([np.random.default_rng([42, first + i, last_word])
                         .uniform(0.0, 2.0 * math.pi, 21) for i in range(n)])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n,first", [(4, -1), (2, 2**32 - 1), (1, 2**32)])
    def test_members_beyond_the_member_streams_rejected(self, mc_basis, n, first):
        with pytest.raises(ValidationError):
            sample_phases(mc_basis, n, seed=42, first=first)

    # K and members x times at and one past their limits; sample_msd refuses
    # from K alone, before it builds or draws anything at that size
    @pytest.mark.parametrize("K,members,times,admitted", [
        (MAX_K, 2, 2, True), (MAX_K + 2, 2, 2, False),
        (3, MAX_MEMBER_TIMES // 4, 4, True), (3, MAX_MEMBER_TIMES // 4 + 1, 4, False)])
    def test_ensemble_limits(self, K, members, times, admitted):
        if admitted:
            _check_ensemble(K, members, times)
        else:
            with pytest.raises(ValidationError, match="past its limit"):
                sample_msd(SimpleNamespace(K=K), np.arange(1.0, times), members)


@pytest.fixture(scope="module")
def run(mc_basis):
    t_b = CONST.hbar * mc_basis.beta
    grid = np.linspace(0.5, 8.0, 6) * t_b
    return grid, sample_msd(mc_basis, grid, n_members=4000, seed=42)


class TestSampleMsd:
    def test_matches_phase_averaged_sum(self, mc_basis, run):
        # each point within 3 standard errors of the analytic average
        grid, res = run
        for i, t in enumerate(grid):
            ref = msd_basis_curve(mc_basis, [float(t)])[0]
            z = (res.mean_msd[i] - ref) / res.stderr[i]
            assert abs(z) < 3.0

    def test_stderr_scales_inverse_sqrt_n(self, mc_basis, run):
        grid, res = run
        res_small = sample_msd(mc_basis, grid, n_members=1000, seed=42)
        ratio = res_small.stderr / res.stderr
        np.testing.assert_allclose(ratio, 2.0, rtol=0.15)

    def test_seed_reproducible(self, mc_basis, run):
        grid, res = run
        again = sample_msd(mc_basis, grid, n_members=4000, seed=42)
        assert np.array_equal(res.mean_msd, again.mean_msd)
        assert np.array_equal(res.stderr, again.stderr)

    def test_different_seed_differs(self, mc_basis, run):
        grid, res = run
        other = sample_msd(mc_basis, grid, n_members=4000, seed=43)
        assert not np.array_equal(res.mean_msd, other.mean_msd)

    def test_metadata(self, mc_basis, run):
        grid, res = run
        assert res.n_members == 4000
        assert res.seed == 42

    def test_too_few_members_rejected(self, mc_basis):
        with pytest.raises(ValueError):
            sample_msd(mc_basis, np.array([1e-14]), n_members=1)

    @pytest.mark.parametrize("grid", [[np.nan], [np.inf], [0.0, np.inf]],
                             ids=["nan", "inf", "0-inf"])
    def test_non_finite_time_rejected(self, mc_basis, grid):
        with pytest.raises(ValidationError, match=domain_pattern("t_s")):
            sample_msd(mc_basis, grid, 10, seed=3)


class TestPhaseChunks:
    @pytest.mark.parametrize("n", [2, 255, 2047, 2048, 2049, 5000])
    def test_bit_identical_to_one_draw(self, mc_basis, n):
        grid = np.array([0.5, 3.0, 11.0]) * CONST.hbar * mc_basis.beta
        res = sample_msd(mc_basis, grid, n, seed=7)
        X = one_draw_positions(mc_basis, np.concatenate(([0.0], grid)), n, 7)
        disp_sq = (X[:, 1:] - X[:, :1]) ** 2
        assert np.array_equal(res.x0, X[:, 0])
        assert np.array_equal(res.mean_msd, disp_sq.mean(axis=0))
        assert np.array_equal(res.stderr, disp_sq.std(axis=0, ddof=1) / math.sqrt(n))
        # the plateau is 2 mean(x(0)^2) of that one draw
        est, err = sample_msd_rerandomized(res)
        x0_sq = X[:, 0] ** 2
        assert est == 2.0 * float(x0_sq.mean())
        assert err == float((2.0 * x0_sq).std(ddof=1) / math.sqrt(n))

    def test_chunks_are_whole_kernel_blocks(self, mc_basis, monkeypatch):
        # a chunk of whole MEMBER_BLOCK blocks gives each kernel block the
        # members of one draw of all members
        assert PHASE_CHUNK % MEMBER_BLOCK == 0
        calls = []
        real = qmsd.montecarlo.sample_phases

        def recording(basis, n_members, seed, first=0):
            calls.append((first, n_members))
            return real(basis, n_members, seed, first)

        monkeypatch.setattr(qmsd.montecarlo, "sample_phases", recording)
        res = sample_msd(mc_basis, [CONST.hbar * mc_basis.beta], 5000, seed=7)
        sample_msd_rerandomized(res)
        # drawn once: the plateau draws nothing of its own
        assert calls == [(lo, min(PHASE_CHUNK, 5000 - lo))
                         for lo in range(0, 5000, PHASE_CHUNK)]

    def test_too_many_members_rejected_before_allocating(self, mc_basis):
        # x(0) and x(t) of 2**32 + 1 members would take 68 GB
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError):
                sample_msd(mc_basis, [CONST.hbar * mc_basis.beta], 2**32 + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**26

    def test_peak_memory_bounded(self, mc_basis):
        # 20 000 members x 20 times: x(t) takes 3.4 MB and the squared
        # displacements 3.2 MB, while one (K x members) draw of all members
        # would take 32 MB
        grid = np.linspace(1.0, 20.0, 20) * CONST.hbar * mc_basis.beta
        tracemalloc.start()
        try:
            sample_msd(mc_basis, grid, 20000, seed=42)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16e6


def ensemble(basis, n_members, seed):
    """A sample_msd ensemble at one time; it carries the members' x(0)."""
    return sample_msd(basis, [CONST.hbar * basis.beta], n_members, seed)


class TestRerandomized:
    def test_estimates_decohered_plateau(self, mc_basis):
        plateau = breve_basis_sum(mc_basis)
        est, err = sample_msd_rerandomized(ensemble(mc_basis, 4000, 42))
        assert abs(est - plateau) / err < 3.0
        assert err > 0

    def test_exceeds_coherent_msd_at_short_times(self, mc_basis):
        # the decohered plateau lies above the coherent MSD at small t
        t = 0.5 * CONST.hbar * mc_basis.beta
        est, err = sample_msd_rerandomized(ensemble(mc_basis, 3000, 9))
        assert est - 3 * err > msd_basis_curve(mc_basis, [t])[0]

