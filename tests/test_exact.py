import functools
import math

import numpy as np
import pytest

from qmsd import (CONST, PhysicalSystem, ValidationError, breve_sum,
                  build_basis, derive_scales, exact_params, msd_exact_curve,
                  msd_ideal, partition_function)
from qmsd.exact import _BLOCK_ELEMS, TAIL, X_CUT, _theta_outer
from qmsd.kernels import blocked_sum, msd_reduce, pair_arrays
from test_basis import x_element


def brute_force_msd(basis, Q, t):
    """Unfolded double sum over all n != j, complex arithmetic throughout."""
    total = 0.0
    for i, n in enumerate(basis.indices):
        for k, j in enumerate(basis.indices):
            if n == j:
                continue
            x = x_element(n, j, basis.L)
            arg = (basis.E[i] - basis.E[k]) * t / (2 * CONST.hbar)
            total += basis.w[i] * basis.w[k] * abs(x) ** 2 * math.sin(arg) ** 2
    return 4.0 / Q**2 * total


def direct_sum(basis, Q, times):
    """The O(K^2) pair sum over n < j, the oracle for the theta series."""
    wprod, half_omega = pair_arrays(basis)
    return 8.0 / Q**2 * msd_reduce(wprod, half_omega, np.asarray(times, dtype=float))


def direct_breve(basis, Q):
    return 4.0 / Q**2 * blocked_sum(pair_arrays(basis)[0])


def dense_theta_msd(basis, times):
    """The theta series evaluated on every (d, t) element: expm1, rint, exp
    and the image mask everywhere, in the same blocks. The oracle that the
    pruned series in qmsd.exact must equal bit for bit."""
    d, p, g, eps_over_hbar, a = _theta_outer(basis)
    p = p[:, None]
    inv4a = 0.25 / a
    width = math.floor(math.sqrt(4.0 * a * TAIL) / math.pi + 0.5)
    out = np.empty(times.size)
    step = max(1, _BLOCK_ELEMS // d.size)
    for lo in range(0, times.size, step):
        b = eps_over_hbar * d[:, None] * times[None, lo:lo + step]
        bracket = -np.expm1(-b * b * inv4a)
        centre = np.rint(b / math.pi)
        for k in range(-width, width + 1):
            nu = centre + k
            q = (b - math.pi * nu)**2 * inv4a
            bracket -= (np.exp(-q) * ((nu != 0.0) & (q <= TAIL))
                        * (1.0 - 2.0 * p * (nu % 2.0)))
        out[lo:lo + step] = g @ bracket
    return out


def test_zero_at_zero(co_basis):
    assert msd_exact_curve(co_basis, [0.0])[0] == 0.0


def test_negative_time_rejected(co_basis):
    with pytest.raises(ValueError):
        msd_exact_curve(co_basis, [-1e-15])


@pytest.mark.parametrize("grid", [[np.nan], [np.inf], [0.0, np.inf]],
                         ids=["nan", "inf", "0-inf"])
@pytest.mark.parametrize("fixture,path", [("co_basis", "theta"), ("small_basis", "direct")])
def test_non_finite_time_rejected(request, fixture, path, grid):
    basis = request.getfixturevalue(fixture)
    assert exact_params(basis)["path"] == path
    with pytest.raises(ValidationError, match="time grid must be finite"):
        msd_exact_curve(basis, grid)


def test_folded_sum_matches_brute_force(small_basis):
    Q = partition_function(small_basis)
    t_b = CONST.hbar * small_basis.beta
    for t in [0.0, 0.3 * t_b, 2.7 * t_b, 40 * t_b]:
        got = msd_exact_curve(small_basis, [t])[0]
        assert got == pytest.approx(brute_force_msd(small_basis, Q, t),
                                    rel=1e-12, abs=1e-40)


def test_short_time_quadratic_coefficient():
    # CO, T = 190 K, L = 40a: msd/t^2 -> k_B T / 2m within 2 percent
    sys = PhysicalSystem.from_user_units(28, 190, 256, 40)
    s = derive_scales(sys)
    basis = build_basis(sys, 100)
    ts = np.linspace(0.01, 0.1, 5) * s.t_b
    ratios = np.array([msd_exact_curve(basis, [t])[0] / t**2 for t in ts])
    expected = 1.0 / (2 * s.beta * sys.mass)
    np.testing.assert_allclose(ratios, expected, rtol=0.02)


def test_tracks_ideal_longer_for_larger_L(co_system, co_scales):
    window = {}
    grid = np.linspace(0.5, 60.0, 120) * co_scales.t_b
    for n_cells in (10, 20):
        sys = PhysicalSystem.from_user_units(28, 190, 256, n_cells)
        basis = build_basis(sys, 100)
        curve = msd_exact_curve(basis, grid)
        ideal = msd_ideal(co_system, grid)
        rel = np.abs(curve - ideal) / ideal
        exceeded = np.nonzero(rel > 0.1)[0]
        window[n_cells] = grid[exceeded[0]] if exceeded.size else np.inf
    assert window[20] > window[10]


def test_plateau_matches_breve_late(co_system, co_basis, co_scales):
    # the coherent sum saturates on the collision-time scale t_c; its
    # time average far past t_c equals the decohered constant
    bs = breve_sum(co_basis)
    late = np.linspace(3 * co_scales.t_c, 5 * co_scales.t_c, 48)
    curve = msd_exact_curve(co_basis, late)
    assert np.mean(curve) == pytest.approx(bs, rel=0.05, abs=0)
    assert np.max(curve) <= bs * 1.05


def test_never_exceeds_breve_bound(co_basis, co_scales):
    bs = breve_sum(co_basis)
    grid = np.linspace(0.0, 30.0, 150) * co_scales.t_b
    curve = msd_exact_curve(co_basis, grid)
    assert np.max(curve) <= bs * 1.05


def test_truncation_convergence(co_system, co_basis, co_scales):
    basis2 = build_basis(co_system, 200)
    grid = np.linspace(0.1, 20.0, 12) * co_scales.t_b
    c1 = msd_exact_curve(co_basis, grid)
    c2 = msd_exact_curve(basis2, grid)
    np.testing.assert_allclose(c1, c2, rtol=1e-3)


def test_curve_metadata_and_validation(co_basis, co_scales):
    with pytest.raises(ValueError):
        msd_exact_curve(co_basis, np.array([]))
    c = msd_exact_curve(co_basis, np.array([0.0]))
    assert c.dtype == np.float64
    assert c.tolist() == [0.0]
    params = exact_params(co_basis)
    assert params["K"] == co_basis.K
    assert "reduction_block" in params


def test_cold_basis_keeps_its_pairs():
    # at 1 mK, w(n = +-1) is ~7e-46, far below WEIGHT_FLOOR; the floor is
    # relative to it, so the (0, +-1) pairs are kept and the sum equals the
    # one over every pair of the basis
    basis = build_basis(PhysicalSystem.from_user_units(28, 1e-3, 256, 10), 100)
    Q = partition_function(basis)
    times = np.linspace(0.0, 2.0, 9) * CONST.hbar * basis.beta
    curve = msd_exact_curve(basis, times)
    i, j = np.triu_indices(basis.K, k=1)
    dq = basis.q[i] - basis.q[j]
    wprod = basis.w[i] * basis.w[j] / (dq * dq)
    half_omega = (basis.E[i] - basis.E[j]) / (2.0 * CONST.hbar)
    want = [8.0 / Q**2 * np.sum(wprod * np.sin(half_omega * t) ** 2) for t in times]
    assert exact_params(basis)["path"] == "direct"
    assert np.all(curve[1:] > 0)
    np.testing.assert_allclose(curve, want, rtol=1e-12, atol=0)


class TestBreveSum:
    def test_co_plateau_values(self):
        # published plateaus: 0.11, 0.22, 0.44 a^2 for L = 10a, 20a, 40a
        expected = {10: 0.11, 20: 0.22, 40: 0.44}
        for n_cells, target in expected.items():
            sys = PhysicalSystem.from_user_units(28, 190, 256, n_cells)
            basis = build_basis(sys, 100)
            plateau = breve_sum(basis) / sys.lattice_a**2
            assert plateau == pytest.approx(target, rel=0.05, abs=0)

    def test_plateau_doubles_with_L(self):
        vals = {}
        for n_cells in (10, 20):
            sys = PhysicalSystem.from_user_units(28, 190, 256, n_cells)
            basis = build_basis(sys, 100)
            vals[n_cells] = breve_sum(basis)
        assert vals[20] / vals[10] == pytest.approx(2.0, rel=0.02, abs=0)

    def test_upper_bounds_coherent_msd(self, co_basis, co_scales, rng):
        bs = breve_sum(co_basis)
        times = rng.uniform(0.0, 400 * co_scales.t_b, 100)
        times.sort()
        curve = msd_exact_curve(co_basis, times)
        assert np.all(curve <= bs * 1.05)

    def test_equals_sin2_replaced_by_half(self, small_basis):
        Q = partition_function(small_basis)
        total = 0.0
        for i, n in enumerate(small_basis.indices):
            for k, j in enumerate(small_basis.indices):
                if n == j:
                    continue
                x = x_element(n, j, small_basis.L)
                total += small_basis.w[i] * small_basis.w[k] * abs(x) ** 2
        assert breve_sum(small_basis) == pytest.approx(
            2.0 / Q**2 * total, rel=1e-12, abs=0)


class TestThetaPath:
    """The O(K) theta series against the direct pair sum as oracle."""

    @pytest.mark.parametrize("n_cells", [1, 10, 20, 40])
    def test_matches_direct_sum(self, n_cells):
        sys = PhysicalSystem.from_user_units(28, 190, 256, n_cells)
        s = derive_scales(sys)
        basis = build_basis(sys, 100)
        Q = partition_function(basis)
        times = np.concatenate([
            np.geomspace(1e-4, 0.05, 5) * s.t_b,
            np.linspace(100 / 39, 100, 39) * s.t_b,
            np.linspace(3 * s.t_c, 5 * s.t_c, 8)])
        times.sort()
        curve = msd_exact_curve(basis, times)
        assert exact_params(basis)["path"] == "theta"
        np.testing.assert_allclose(curve, direct_sum(basis, Q, times),
                                   rtol=1e-12, atol=0)
        assert msd_exact_curve(basis, [0.0])[0] == 0.0
        assert breve_sum(basis) == pytest.approx(direct_breve(basis, Q), rel=1e-12, abs=0)

    def test_revivals(self, co_system, co_basis, co_Q):
        # at the revival time m L^2 / (2 pi hbar) every sin^2 is 0 or 1, and
        # at twice it every one is 0; the images nu >= 1 carry these points
        t_rev = co_system.mass * co_system.L**2 / (2 * math.pi * CONST.hbar)
        times = t_rev * np.array([0.99, 0.999, 1.0, 1.001, 1.01,
                                  1.99, 1.999, 2.0, 2.001, 2.01])
        got = msd_exact_curve(co_basis, times)
        bs = breve_sum(co_basis)
        assert np.max(np.abs(got - direct_sum(co_basis, co_Q, times))) <= 1e-12 * bs
        assert got[7] <= 1e-12 * bs
        assert got[2] > 0.5 * bs

    @pytest.mark.parametrize("fixture", ["small_basis", "mc_basis"])
    def test_under_truncated_bases_stay_direct(self, request, fixture):
        basis = request.getfixturevalue(fixture)
        Q = partition_function(basis)
        times = np.linspace(0.0, 20.0, 11) * CONST.hbar * basis.beta
        curve = msd_exact_curve(basis, times)
        assert exact_params(basis)["path"] == "direct"
        assert exact_params(basis)["edge_weight"] == basis.w[0] > 1e-18
        np.testing.assert_array_equal(curve, direct_sum(basis, Q, times))
        assert (msd_exact_curve(basis, [times[4]])[0]
                == direct_sum(basis, Q, times[4:5])[0])
        assert breve_sum(basis) == direct_breve(basis, Q)

    def test_short_cell_stays_direct(self):
        # H at 10 K on one 256 pm cell, about 5 thermal lengths long: the
        # basis is converged but the theta images would overlap and cancel
        sys = PhysicalSystem.from_user_units(1, 10, 256, 1)
        basis = build_basis(sys, 100)
        assert basis.w[0] < 1e-18
        curve = msd_exact_curve(basis, np.array([0.0, CONST.hbar * basis.beta]))
        assert exact_params(basis)["path"] == "direct"


@functools.lru_cache(maxsize=None)
def _co_cell(n_cells, temperature_K=190.0):
    """(system, scales, basis) of CO on n_cells lattice constants."""
    sys = PhysicalSystem.from_user_units(28, temperature_K, 256, n_cells)
    return sys, derive_scales(sys), build_basis(sys, 100)


def _pruning_grid(name, sys, s):
    if name == "figure2-30":
        return np.linspace(0.0, 30.0 * s.t_b, 30)
    if name == "figure2-300":
        return np.linspace(0.0, 30.0 * s.t_b, 300)
    if name == "plateau":
        return np.linspace(3 * s.t_c, 5 * s.t_c, 48)
    if name == "revivals":
        t_rev = sys.mass * sys.L**2 / (2 * math.pi * CONST.hbar)
        return t_rev * np.array([0.99, 0.999, 1.0, 1.001, 1.01,
                                 1.99, 1.999, 2.0, 2.001, 2.01])
    # 1e160 t_b: b^2 overflows, and pi nu rounds far from b; at 1e300 t_b
    # (b - pi nu)^2 overflows too
    return np.linspace(0.0, float(name) * s.t_b, 3)


class TestPrunedThetaSeries:
    """The theta series evaluates expm1 and the images only where they are
    not exactly 1 and 0, and must equal the dense series bit for bit."""

    # L = 1a has A_MAX/4 <= a < A_MAX: width 1, three images per element
    @pytest.mark.parametrize("n_cells", [1, 10, 20, 40, 80])
    @pytest.mark.parametrize("grid", ["figure2-30", "figure2-300", "plateau",
                                      "revivals", "1e160", "1e300"])
    def test_bit_identical_to_dense_series(self, n_cells, grid):
        self._check(*_co_cell(n_cells), grid)

    # at 100 K on L = 1a, a = 0.97 A_MAX: both neighbours of the nearest
    # image are kept on most elements, and the order in which the three
    # images are subtracted shows in the output bits
    @pytest.mark.parametrize("grid", ["figure2-300", "plateau"])
    def test_bit_identical_near_a_max(self, grid):
        self._check(*_co_cell(1, 100.0), grid)

    @staticmethod
    def _check(sys, s, basis, grid):
        times = _pruning_grid(grid, sys, s)
        curve = msd_exact_curve(basis, times)
        assert exact_params(basis)["path"] == "theta"
        with np.errstate(over="ignore"):
            want = dense_theta_msd(basis, times)
        assert np.all(np.isfinite(want))
        np.testing.assert_array_equal(curve.view(np.uint64),
                                      want.view(np.uint64))

    def test_expm1_term_is_exactly_one_past_the_cut(self):
        # beyond X_CUT the series leaves the bracket's leading term at 1.0
        x = np.concatenate([np.linspace(X_CUT, X_CUT + 1.0, 1_000_001),
                            np.linspace(X_CUT, 800.0, 1_000_001), [np.inf]])
        assert np.all(-np.expm1(-x) == 1.0)
