import dataclasses
import functools
import math

import numpy as np
import pytest

from qmsd import (CONST, PhysicalSystem, ValidationError, breve_basis_sum,
                  breve_sum, build_basis, converged_basis, derive_scales,
                  exact_params, msd_basis_curve, msd_exact_curve, msd_ideal,
                  partition_function)
from qmsd.exact import TAIL, X_CUT
from qmsd.constants import DOMAIN
from oracles import brute_force_msd, dense_theta_msd, domain_pattern, position_matrix


# H at 10 K on one 256 pm cell, about 5 thermal lengths long: a >= A_MAX, so
# the physical route takes the direct sum over its converged basis
H_CELL = PhysicalSystem.from_user_units(1.008, 10, 256, 1)


def test_zero_at_zero(co_system):
    assert msd_exact_curve(co_system, [0.0])[0] == 0.0


def test_negative_time_rejected(co_system):
    with pytest.raises(ValueError):
        msd_exact_curve(co_system, [-1e-15])


@pytest.mark.parametrize("grid", [[np.nan], [np.inf], [0.0, np.inf]],
                         ids=["nan", "inf", "0-inf"])
@pytest.mark.parametrize("fixture,path", [("co_basis", "theta"), ("small_basis", "direct")])
def test_non_finite_time_rejected(request, co_system, fixture, path, grid):
    # the physical route of co_basis's system takes the theta series, and
    # every given basis the direct sum; each refuses the grid
    basis = request.getfixturevalue(fixture)
    routes = [lambda g: msd_basis_curve(basis, g)]
    if path == "theta":
        assert exact_params(co_system)["path"] == "theta"
        routes.append(lambda g: msd_exact_curve(co_system, g))
    for route in routes:
        with pytest.raises(ValidationError, match=domain_pattern("t_s")):
            route(grid)


def test_folded_sum_matches_brute_force(small_basis):
    Q = partition_function(small_basis)
    t_b = CONST.hbar * small_basis.beta
    for t in [0.0, 0.3 * t_b, 2.7 * t_b, 40 * t_b]:
        got = msd_basis_curve(small_basis, [t])[0]
        assert got == pytest.approx(brute_force_msd(small_basis, Q, t),
                                    rel=1e-12, abs=1e-40)


def test_short_time_quadratic_coefficient():
    # CO, T = 190 K, L = 40a: msd/t^2 -> k_B T / 2m within 2 percent
    sys = PhysicalSystem.from_user_units(28, 190, 256, 40)
    s = derive_scales(sys)
    ts = np.linspace(0.01, 0.1, 5) * s.t_b
    ratios = np.array([msd_exact_curve(sys, [t])[0] / t**2 for t in ts])
    expected = 1.0 / (2 * s.beta * sys.mass)
    np.testing.assert_allclose(ratios, expected, rtol=0.02)


def test_tracks_ideal_longer_for_larger_L(co_system, co_scales):
    window = {}
    grid = np.linspace(0.5, 60.0, 120) * co_scales.t_b
    for n_cells in (10, 20):
        sys = PhysicalSystem.from_user_units(28, 190, 256, n_cells)
        curve = msd_exact_curve(sys, grid)
        ideal = msd_ideal(co_system, grid)
        rel = np.abs(curve - ideal) / ideal
        exceeded = np.nonzero(rel > 0.1)[0]
        window[n_cells] = grid[exceeded[0]] if exceeded.size else np.inf
    assert window[20] > window[10]


def test_plateau_matches_breve_late(co_system, co_scales):
    # the coherent sum saturates on the collision-time scale t_c; its
    # time average far past t_c equals the decohered constant
    bs = breve_sum(co_system)
    late = np.linspace(3 * co_scales.t_c, 5 * co_scales.t_c, 48)
    curve = msd_exact_curve(co_system, late)
    assert np.mean(curve) == pytest.approx(bs, rel=0.05, abs=0)
    assert np.max(curve) <= bs * 1.05


def test_never_exceeds_breve_bound(co_system, co_scales):
    bs = breve_sum(co_system)
    grid = np.linspace(0.0, 30.0, 150) * co_scales.t_b
    curve = msd_exact_curve(co_system, grid)
    assert np.max(curve) <= bs * 1.05


def test_truncation_convergence(co_system, co_basis, co_scales):
    # given bases of 100 and 200 functions per cell are converged, and their
    # direct sums equal the physical route's theta series
    grid = np.linspace(0.1, 20.0, 12) * co_scales.t_b
    want = msd_exact_curve(co_system, grid)
    for basis in (co_basis, build_basis(co_system, 200)):
        np.testing.assert_allclose(msd_basis_curve(basis, grid), want, rtol=1e-12, atol=0)


def test_curve_metadata_and_validation(co_system, co_scales):
    with pytest.raises(ValueError):
        msd_exact_curve(co_system, np.array([]))
    c = msd_exact_curve(co_system, np.array([0.0]))
    assert c.dtype == np.float64
    assert c.tolist() == [0.0]
    # the theta series sums d = 1..floor(sqrt(2 TAIL/c)), c = beta eps
    c_cell = co_scales.beta * CONST.hbar**2 * (2 * math.pi / co_system.L)**2 / (2 * co_system.mass)
    assert exact_params(co_system) == {"path": "theta", "Q": co_scales.Q_approx,
                                       "d_max": math.floor(math.sqrt(2 * TAIL / c_cell))}
    basis = converged_basis(H_CELL)
    assert exact_params(H_CELL) == {"path": "direct", "Q": partition_function(basis),
                                    "K": basis.K}


def test_cold_basis_keeps_its_pairs():
    # at 1 mK, w(n = +-1) is ~7e-46, far below WEIGHT_FLOOR; the floor is
    # relative to it, so the (0, +-1) pairs are kept, and the physical
    # route's sum over its converged basis equals the one over every pair
    # of a basis of 100 functions per cell
    sys = PhysicalSystem.from_user_units(28, 1e-3, 256, 10)
    basis = build_basis(sys, 100)
    Q = partition_function(basis)
    times = np.linspace(0.0, 2.0, 9) * CONST.hbar * basis.beta
    curve = msd_exact_curve(sys, times)
    i, j = np.triu_indices(basis.K, k=1)
    dq = basis.q[i] - basis.q[j]
    wprod = basis.w[i] * basis.w[j] / (dq * dq)
    half_omega = (basis.E[i] - basis.E[j]) / (2.0 * CONST.hbar)
    want = [8.0 / Q**2 * np.sum(wprod * np.sin(half_omega * t) ** 2) for t in times]
    assert exact_params(sys)["path"] == "direct"
    assert np.all(curve[1:] > 0)
    np.testing.assert_allclose(curve, want, rtol=1e-12, atol=0)


class TestBreveSum:
    def test_co_plateau_values(self):
        # published plateaus: 0.11, 0.22, 0.44 a^2 for L = 10a, 20a, 40a
        expected = {10: 0.11, 20: 0.22, 40: 0.44}
        for n_cells, target in expected.items():
            sys = PhysicalSystem.from_user_units(28, 190, 256, n_cells)
            plateau = breve_sum(sys) / sys.lattice_a**2
            assert plateau == pytest.approx(target, rel=0.05, abs=0)

    def test_plateau_doubles_with_L(self):
        vals = {}
        for n_cells in (10, 20):
            sys = PhysicalSystem.from_user_units(28, 190, 256, n_cells)
            vals[n_cells] = breve_sum(sys)
        assert vals[20] / vals[10] == pytest.approx(2.0, rel=0.02, abs=0)

    def test_upper_bounds_coherent_msd(self, co_system, co_scales, rng):
        bs = breve_sum(co_system)
        times = rng.uniform(0.0, 400 * co_scales.t_b, 100)
        times.sort()
        curve = msd_exact_curve(co_system, times)
        assert np.all(curve <= bs * 1.05)

    def test_equals_sin2_replaced_by_half(self, small_basis):
        Q = partition_function(small_basis)
        w = small_basis.w
        total = np.sum(w[:, None] * w[None, :] * np.abs(position_matrix(small_basis)) ** 2)
        assert breve_basis_sum(small_basis) == pytest.approx(
            2.0 / Q**2 * total, rel=1e-12, abs=0)


class TestThetaPath:
    """The physical route against the direct pair sum over the converged
    basis of its system as oracle."""

    @pytest.mark.parametrize("mass_u,temperature_K,n_cells,path", [
        (28, 190, 1, "theta"), (28, 190, 10, "theta"), (28, 190, 20, "theta"),
        (28, 190, 40, "theta"), (131, 105, 10, "theta"),
        (28, 300, 20, "theta"),   # the custom digest configuration
        (1.008, 10, 1, "direct")],
        ids=["1", "10", "20", "40", "xe-105K", "co-300K-20a", "h-10K-1a"])
    def test_matches_direct_sum(self, mass_u, temperature_K, n_cells, path):
        sys = PhysicalSystem.from_user_units(mass_u, temperature_K, 256, n_cells)
        s = derive_scales(sys)
        basis = converged_basis(sys)
        times = np.concatenate([
            np.geomspace(1e-4, 0.05, 5) * s.t_b,
            np.linspace(100 / 39, 100, 39) * s.t_b,
            np.linspace(3 * s.t_c, 5 * s.t_c, 8)])
        times.sort()
        curve = msd_exact_curve(sys, times)
        assert exact_params(sys)["path"] == path
        np.testing.assert_allclose(curve, msd_basis_curve(basis, times),
                                   rtol=1e-12, atol=0)
        assert msd_exact_curve(sys, [0.0])[0] == 0.0
        assert breve_sum(sys) == pytest.approx(breve_basis_sum(basis), rel=1e-12, abs=0)

    def test_revivals(self, co_system, co_basis):
        # at the revival time m L^2 / (2 pi hbar) every sin^2 is 0 or 1, and
        # at twice it every one is 0; the images nu >= 1 carry these points
        t_rev = co_system.mass * co_system.L**2 / (2 * math.pi * CONST.hbar)
        times = t_rev * np.array([0.99, 0.999, 1.0, 1.001, 1.01,
                                  1.99, 1.999, 2.0, 2.001, 2.01])
        got = msd_exact_curve(co_system, times)
        bs = breve_sum(co_system)
        assert np.max(np.abs(got - msd_basis_curve(co_basis, times))) <= 1e-12 * bs
        assert got[7] <= 1e-12 * bs
        assert got[2] > 0.5 * bs

    @pytest.mark.parametrize("fixture", ["small_basis", "mc_basis"])
    def test_under_truncated_bases_stay_direct(self, request, co_system, fixture):
        # a given basis is summed as given, by the direct sum; the physical
        # route of its system does not read it
        basis = request.getfixturevalue(fixture)
        assert basis.w[0] > 1e-18 and not basis.converged
        times = np.linspace(0.0, 20.0, 11) * CONST.hbar * basis.beta
        curve = msd_basis_curve(basis, times)
        Q = partition_function(basis)
        assert curve[4] == pytest.approx(brute_force_msd(basis, Q, times[4]), rel=1e-12, abs=1e-40)
        sys = dataclasses.replace(co_system, n_cells=round(basis.L / co_system.lattice_a))
        assert exact_params(sys)["path"] == "theta"
        assert not np.allclose(msd_exact_curve(sys, times[1:]), curve[1:], rtol=1e-6, atol=0)

    def test_short_cell_stays_direct(self):
        # the theta images would overlap and cancel on H_CELL: its physical
        # route sums the few states of its converged basis directly
        basis = converged_basis(H_CELL)
        assert basis.w[0] < 1e-18 and basis.K <= 57
        times = np.array([0.0, CONST.hbar * basis.beta])
        assert exact_params(H_CELL)["path"] == "direct"
        np.testing.assert_array_equal(msd_exact_curve(H_CELL, times),
                                      msd_basis_curve(basis, times))


@functools.lru_cache(maxsize=None)
def _co_cell(n_cells, temperature_K=190.0):
    """(system, scales) of CO on n_cells lattice constants."""
    sys = PhysicalSystem.from_user_units(28, temperature_K, 256, n_cells)
    return sys, derive_scales(sys)


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
    if name == "t-max":
        # the domain's largest time: b reaches 6e19 (L = 1a), where pi nu rounds far
        # from b, and (b - pi nu)^2 / 4a stays far below the float range
        return np.linspace(0.0, DOMAIN["t_s"][1], 3)
    # 1e160 t_b and 1e300 t_b, where b^2 and (b - pi nu)^2 would overflow
    return np.linspace(0.0, float(name) * s.t_b, 3)


class TestPrunedThetaSeries:
    """The theta series evaluates expm1 and the images only where they are
    not exactly 1 and 0, and must equal the dense series bit for bit."""

    # L = 1a has A_MAX/4 <= a < A_MAX: width 1, three images per element
    @pytest.mark.parametrize("n_cells", [1, 10, 20, 40, 80])
    @pytest.mark.parametrize("grid", ["figure2-30", "figure2-300", "plateau",
                                      "revivals", "t-max", "1e160", "1e300"])
    def test_bit_identical_to_dense_series(self, n_cells, grid):
        sys, s = _co_cell(n_cells)
        if grid in ("1e160", "1e300"):
            # past the domain's 1e6 s: refused, naming the bound
            with pytest.raises(ValidationError, match=domain_pattern("t_s")):
                msd_exact_curve(sys, _pruning_grid(grid, sys, s))
            return
        self._check(sys, s, grid)

    # at 100 K on L = 1a, a = 0.97 A_MAX: both neighbours of the nearest
    # image are kept on most elements, and the order in which the three
    # images are subtracted shows in the output bits
    @pytest.mark.parametrize("grid", ["figure2-300", "plateau"])
    def test_bit_identical_near_a_max(self, grid):
        self._check(*_co_cell(1, 100.0), grid)

    @staticmethod
    def _check(sys, s, grid):
        times = _pruning_grid(grid, sys, s)
        curve = msd_exact_curve(sys, times)
        assert exact_params(sys)["path"] == "theta"
        want = dense_theta_msd(sys, times)
        assert np.all(np.isfinite(want))
        np.testing.assert_array_equal(curve.view(np.uint64),
                                      want.view(np.uint64))

    def test_expm1_term_is_exactly_one_past_the_cut(self):
        # beyond X_CUT the series leaves the bracket's leading term at 1.0
        x = np.concatenate([np.linspace(X_CUT, X_CUT + 1.0, 1_000_001),
                            np.linspace(X_CUT, 800.0, 1_000_001), [np.inf]])
        assert np.all(-np.expm1(-x) == 1.0)

