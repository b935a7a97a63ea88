import dataclasses
import math

import numpy as np
import pytest

from qmsd import (CONST, PhysicalSystem, ValidationError, build_basis,
                  derive_scales, partition_function)


# The closed-form position matrix elements. No command evaluates them (the
# kernels use the coupling matrix A); they are the oracles of the brute-force
# sums in test_exact.py and test_montecarlo.py, which import them from here.

def x_element(n: int, j: int, L: float) -> complex:
    """Position matrix element between plane-wave states n and j.

    Zero on the diagonal, purely imaginary and Hermitian off it:
    i (-1)^(n-j+1) / (q_n - q_j).
    """
    if n == j:
        return 0j
    sign = -1.0 if (n - j) % 2 == 0 else 1.0
    return 1j * sign * L / (2.0 * math.pi * (n - j))


def x_element_general(q: float, L: float) -> float:
    """Off-lattice matrix-element profile X(q), defined for any real q.

    X(q) = L * (2 sin(Lq/2)/(Lq)^2 - cos(Lq/2)/(Lq)); odd in q with a
    removable zero at q = 0. At lattice gaps q_n - q_j its square equals
    1/(q_n - q_j)^2.
    """
    z = L * q
    if abs(z) < 1e-2:
        # X = L (z/12 - z^3/480 + ...), from the Taylor expansion of
        # 2 sin(z/2)/z^2 - cos(z/2)/z. The direct formula cancels to
        # O(z) between terms of size O(1/z), losing ~2 digits per decade
        # below z = 1; the truncated series error is O(z^5), so the
        # crossover at z = 1e-2 keeps both branches below 1e-11 relative.
        return L * z / 12.0 * (1.0 - z * z / 40.0)
    return L * (2.0 * math.sin(z / 2.0) / (z * z) - math.cos(z / 2.0) / z)


def test_k_rounded_up_to_odd(co_basis):
    assert co_basis.K == 1001
    assert co_basis.M == 500
    assert co_basis.indices[0] == -500 and co_basis.indices[-1] == 500


def test_energies_even_in_n(co_basis):
    E = dict(zip(co_basis.indices.tolist(), co_basis.E.tolist()))
    for n in (1, 7, 250, 500):
        assert E[n] == E[-n]
        assert E[n] > 0
    assert E[0] == 0.0


def test_energies_sorted_by_abs_n(co_basis):
    order = np.argsort(np.abs(co_basis.indices), kind="stable")
    assert np.all(np.diff(co_basis.E[order]) >= 0)


def test_weights_in_unit_interval(co_basis):
    assert np.all(co_basis.w > 0)
    assert np.all(co_basis.w <= 1)
    w0 = co_basis.w[co_basis.indices == 0]
    assert w0[0] == 1.0


def test_edge_weight_converged(co_basis):
    # CO, T = 190 K, L = 10a with 100 functions per cell
    assert co_basis.w[0] < 1e-12


def test_beta_is_the_scales_beta(co_system, co_basis):
    assert co_basis.beta == derive_scales(co_system).beta


def test_underflowing_k_B_T_refused():
    # at 1e-302 K, k_B T underflows to 0; beta is not formed from it
    with pytest.raises(ValidationError, match="k_B T underflows to 0"):
        build_basis(PhysicalSystem.from_user_units(28, 1e-302, 256, 10), 100)


def test_converged_reads_the_relative_floor(co_basis, mc_basis):
    # the floor is 1e-18 w(n = 1), and a basis is converged when its edge
    # weight lies strictly below it
    for basis in (co_basis, mc_basis):
        assert basis.weight_floor == 1e-18 * basis.w[basis.M + 1]
    assert co_basis.converged
    assert not mc_basis.converged
    edge = dataclasses.replace(co_basis, w=np.where(co_basis.w < co_basis.weight_floor,
                                                    co_basis.weight_floor, co_basis.w))
    assert edge.w[0] == edge.weight_floor and not edge.converged
    # a one-state basis has no n = 1; its floor reads 1.0 in its place
    one = build_basis(PhysicalSystem.from_user_units(28, 190, 256, 1), 1)
    assert one.K == 1 and one.weight_floor == 1e-18 and not one.converged
    # below about 70 uK w(n = 1) underflows: the floor is 0, and an edge
    # weight of exactly 0 counts as converged
    cold = build_basis(PhysicalSystem.from_user_units(28, 5e-5, 256, 10), 100)
    assert cold.w[0] == cold.weight_floor == 0.0 and cold.converged


class TestXElement:
    L = 2.56e-9

    def test_diagonal_zero(self):
        for n in (-3, 0, 11):
            assert x_element(n, n, self.L) == 0j

    def test_adjacent_value(self):
        assert x_element(1, 0, self.L) == pytest.approx(
            1j * self.L / (2 * math.pi), rel=1e-14, abs=0)

    def test_gap_two_magnitude(self):
        v = x_element(2, 0, self.L)
        assert abs(v) ** 2 == pytest.approx((self.L / (4 * math.pi)) ** 2, rel=1e-13, abs=0)

    def test_hermitian_and_imaginary(self):
        for n, j in [(0, 1), (-4, 7), (10, -10), (500, 499)]:
            v = x_element(n, j, self.L)
            assert x_element(j, n, self.L) == np.conj(v)
            assert v.real == 0.0

    def test_magnitude_squared_is_inverse_gap_squared(self):
        for n, j in [(3, 1), (-2, 5), (100, -100)]:
            dq = 2 * math.pi * (n - j) / self.L
            assert abs(x_element(n, j, self.L)) ** 2 == pytest.approx(
                1.0 / dq**2, rel=1e-13, abs=0)


class TestXElementGeneral:
    L = 2.56e-9

    def test_vanishes_at_origin(self):
        assert x_element_general(0.0, self.L) == 0.0

    def test_odd(self):
        q = 1.7 / self.L
        assert x_element_general(-q, self.L) == pytest.approx(
            -x_element_general(q, self.L), rel=1e-14, abs=0)

    @pytest.mark.parametrize("gap,expected_over_L", [
        (1, 1 / (2 * math.pi)),
        (2, 1 / (4 * math.pi)),
    ])
    def test_lattice_gap_magnitudes(self, gap, expected_over_L):
        q = 2 * math.pi * gap / self.L
        assert abs(x_element_general(q, self.L)) == pytest.approx(
            expected_over_L * self.L, rel=1e-12, abs=0)

    def test_matches_x_element_at_all_sampled_gaps(self):
        for gap in range(1, 40):
            q = 2 * math.pi * gap / self.L
            assert abs(x_element_general(q, self.L)) == pytest.approx(
                abs(x_element(gap, 0, self.L)), rel=1e-10, abs=0)

    # X(z)/L at 50 decimal digits; the direct formula loses ~10 digits
    # to cancellation at these z, so the references are frozen instead
    X_OVER_L = [
        (0.5e-4, 0.000004166666666406250000005813),
        (2e-4, 0.00001666666665000000000595238),
        (0.009, 0.0007499984812510983812845355),
        (0.011, 0.0009166638937529957386492122),
        (0.05, 0.004166406255812804745675966),
    ]

    @pytest.mark.parametrize("z,expected_over_L", X_OVER_L)
    def test_series_and_direct_branches_accurate(self, z, expected_over_L):
        # spans both sides of the series/direct switch at |Lq| = 1e-2
        q = z / self.L
        assert x_element_general(q, self.L) == pytest.approx(
            expected_over_L * self.L, rel=1e-9, abs=0)


class TestPartitionFunction:
    def test_ground_state_limit(self):
        sys = PhysicalSystem.from_user_units(28, 1e-3, 256, 1)
        basis = build_basis(sys, 21)
        assert partition_function(basis) == pytest.approx(1.0, rel=1e-12, abs=0)

    def test_matches_continuum_estimate(self, co_basis, co_scales):
        Q = partition_function(co_basis)
        assert Q == pytest.approx(co_scales.Q_approx, rel=5e-3, abs=0)

    def test_truncation_convergence(self, co_system, co_basis):
        Q1 = partition_function(co_basis)
        Q2 = partition_function(build_basis(co_system, 200))
        assert Q2 == pytest.approx(Q1, rel=1e-12, abs=0)

    @pytest.mark.parametrize("mass_u,temperature_K,n_cells,funcs_per_cell", [
        (28, 190, 1, 100), (28, 190, 10, 100), (28, 190, 20, 100),
        (28, 190, 40, 100), (28, 190, 80, 100),
        # c = 14.5 (H) and 7.3 (4He): the nu >= 1 terms carry 53 % and 34 %
        # of the dual's bracket, so the images are tested, not only nu = 0
        (1.008, 10, 1, 21), (4.0026, 5, 1, 21)])
    def test_equals_its_jacobi_dual(self, mass_u, temperature_K, n_cells, funcs_per_cell):
        # Q = sum_n e^(-c n^2) is theta_3; by Jacobi's imaginary transformation
        # (DLMF §20.7) it equals sqrt(pi/c) (1 + 2 sum_nu e^(-pi^2 nu^2/c)),
        # c = beta hbar^2 (2 pi/L)^2 / 2m; nu <= 15 is exact in double at c <= 15
        sys = PhysicalSystem.from_user_units(mass_u, temperature_K, 256, n_cells)
        basis = build_basis(sys, funcs_per_cell)
        assert basis.w[0] < 1e-17
        c = basis.beta * CONST.hbar**2 * (2.0 * math.pi / basis.L) ** 2 / (2.0 * basis.mass)
        nu = np.arange(1, 16)
        dual = math.sqrt(math.pi / c) * (1.0 + 2.0 * np.sum(np.exp(-math.pi**2 * nu**2 / c)))
        assert partition_function(basis) == pytest.approx(dual, rel=1e-14, abs=0)

    def test_at_least_one_and_monotone_in_L(self):
        prev = 0.0
        for n_cells in (1, 2, 5, 10, 20):
            sys = PhysicalSystem.from_user_units(28, 190, 256, n_cells)
            Q = partition_function(build_basis(sys, 100))
            assert Q >= 1.0
            assert Q > prev
            prev = Q
