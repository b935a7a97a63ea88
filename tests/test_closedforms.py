import dataclasses
import itertools
import math
import re
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from qmsd import (CONST, PhysicalSystem, ValidationError, breve_basis_sum, breve_closed,
                  derive_scales, msd_collision_model, msd_ideal, msd_ideal_curve)
from qmsd.cli import main
from qmsd.closedforms import I_ab, J, J_AT_ZERO
from qmsd.constants import DOMAIN
from oracles import (SYSTEM_KEYS, J_decimal, J_quadrature, assert_within_oracle, breve_exact,
                     domain_pattern, log_range, msd_ideal_decimal, msd_ideal_exact)

# CO at 190 K; the ideal MSD does not depend on the cell
CO = PhysicalSystem.from_user_units(28.0, 190.0, 256.0, 10)
T_B = derive_scales(CO).t_b  # 4.020122411714599e-14 s


def test_zero_at_zero():
    assert msd_ideal(CO, 0.0) == 0.0


def test_value_at_thermal_time():
    expected = (CONST.hbar / CO.mass) * T_B * (math.sqrt(2) - 1)
    assert msd_ideal(CO, T_B) == pytest.approx(expected, rel=1e-12, abs=0)


def test_long_time_slope_approaches_hbar_over_m():
    t = 1000 * T_B
    dt = 1e-3 * T_B
    slope = (msd_ideal(CO, t + dt) - msd_ideal(CO, t - dt)) / (2 * dt)
    assert slope == pytest.approx(CONST.hbar / CO.mass, rel=1e-3, abs=0)


def test_short_time_quadratic_law():
    # (k_B T / 2m) t^2 with k_B T = hbar / t_b
    t = 0.01 * T_B
    quadratic = (CONST.hbar / T_B) / (2 * CO.mass) * t * t
    assert msd_ideal(CO, t) == pytest.approx(quadratic, rel=1e-4, abs=0)


def test_cancellation_safe_at_tiny_times():
    t = 1e-8 * T_B
    quadratic = (CONST.hbar / T_B) / (2 * CO.mass) * t * t
    assert msd_ideal(CO, t) == pytest.approx(quadratic, rel=1e-10, abs=0)


def test_negative_time_rejected():
    # a nan, an inf or a negative time is refused, alone or in an array;
    # -0.0 is a time, and the times need not be sorted
    for t in (-1e-15, np.nan, np.inf, -np.inf):
        for arg in (t, [0.0, t]):
            with pytest.raises(ValidationError, match=domain_pattern("t_s")):
                msd_ideal(CO, arg)
    assert msd_ideal(CO, -0.0) == 0.0
    unsorted = [2 * T_B, 0.0, T_B]
    assert msd_ideal(CO, unsorted).tolist() == [msd_ideal(CO, t) for t in unsorted]


@pytest.mark.parametrize("grid", [[np.nan], [np.inf], [0.0, np.inf]],
                         ids=["nan", "inf", "0-inf"])
def test_non_finite_time_rejected(grid):
    with pytest.raises(ValidationError, match=domain_pattern("t_s")):
        msd_ideal_curve(CO, grid)


def test_nan_after_a_finite_time_named_as_such():
    with pytest.raises(ValidationError, match=r"^t_s = nan s is outside"):
        msd_ideal_curve(CO, [1.0, np.nan])


# t_b = hbar beta would be 7.6e188 s at 1e-200 K, so that t_b^2 overflows,
# and at 7.64e-166 K t^2 + t_b^2 would overflow from about t = 0.9 t_b; both
# temperatures are outside the domain, and refused naming its bound. At its
# coldest, 1e-9 K, t_b = 7.6e-3 s, and the same grids match the oracle
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("temperature,grid", [("1e-200", "geometric:1e-90:1e-10:3"),
                                              ("7.64e-166", "linear:0:1.2:4")])
def test_matches_decimal_oracle_where_t_b_squared_leaves_the_range(tmp_path, capsys,
                                                                   temperature, grid):
    out = tmp_path / "refused"
    assert main(["ideal", "--temperature-K", temperature, "--grid", grid,
                 "--out", str(out)]) == 2
    assert re.search(domain_pattern("temperature_K"), capsys.readouterr().err)
    assert not out.exists()
    coldest = str(DOMAIN["temperature_K"][0])
    assert main(["ideal", "--temperature-K", coldest, "--grid", grid,
                 "--out", str(tmp_path), "--formats", "csv"]) == 0
    rows = (tmp_path / "ideal.csv").read_text().splitlines()[2:]
    t, msd = np.array([[float(v) for v in row.split(",")] for row in rows])[:, [0, 2]].T
    system = dataclasses.replace(CO, temperature=float(coldest))
    assert np.all(msd[t > 0] > 0)
    np.testing.assert_allclose(msd, [msd_ideal_decimal(system, x) for x in t], rtol=1e-15, atol=0)
    np.testing.assert_array_equal(msd_ideal(system, t), msd)


# t^2 and t_b^2 would underflow at 1e200 K (t_b = 7.6e-212 s), which is
# outside the domain and refused naming its bound. At its hottest, 1e6 K
# (t_b = 7.6e-18 s), the collision model's weight g is 1 at every t > 0 of
# the default grid (alpha L / (sqrt(2) v_T t) is at least 160), so it is
# the ideal MSD, checked here against the oracle rather than against msd_ideal
@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", ["ideal", "collision"])
def test_matches_decimal_oracle_where_the_squares_underflow(tmp_path, capsys, command):
    out = tmp_path / "refused"
    assert main([command, "--temperature-K", "1e200", "--out", str(out)]) == 2
    assert re.search(domain_pattern("temperature_K"), capsys.readouterr().err)
    assert not out.exists()
    hottest = DOMAIN["temperature_K"][1]
    assert main([command, "--temperature-K", str(hottest), "--out", str(tmp_path),
                 "--formats", "csv"]) == 0
    rows = (tmp_path / f"{command}.csv").read_text().splitlines()[2:]
    t, msd = np.array([[float(v) for v in row.split(",")] for row in rows])[:, [0, 2]].T
    system = dataclasses.replace(CO, temperature=hottest)
    assert np.all(msd[t > 0] > 0)
    np.testing.assert_allclose(msd, [msd_ideal_decimal(system, x) for x in t], rtol=1e-15, atol=0)


def test_finite_where_t_squared_overflows():
    # t * t would overflow beyond about 1.3e154 s, past the domain's 1e6 s,
    # which refuses such times naming its bound; toward 1e6 s the MSD tends
    # to (hbar/m) t, and up to it every point is within 4e-16 of the oracle
    for t in (1e150, 1e160, 1e300):
        with pytest.raises(ValidationError, match=domain_pattern("t_s")):
            msd_ideal(CO, t)
    t = np.array([1e2, 1e4, 1e6])
    with np.errstate(over="raise", invalid="raise"):
        got = msd_ideal(CO, t)
    np.testing.assert_allclose(got, CONST.hbar / CO.mass * t, rtol=1e-15, atol=0)
    assert isinstance(msd_ideal(CO, 1e6), float)
    t = np.concatenate((np.geomspace(1e-30, 1e6, 200), [0.0]))
    for x, got in zip(t, msd_ideal(CO, t)):
        assert_within_oracle(got, msd_ideal_exact(CO, x), "4e-16")


# over the domain's masses and temperatures, with t from 1e-300 t_b to its
# 1e6 s (1.3e23 t_b at 1e6 K); a subnormal MSD carries no 4e-16, so the
# points below 2.2e-308 m^2 are left out
@given(st.floats(*log_range("mass_u")), st.floats(*log_range("temperature_K")),
       st.floats(min_value=-300.0, max_value=24.0))
@example(log_m=-4.0, log_T=-9.0, log_x=0.0)
@example(log_m=-4.0, log_T=6.0, log_x=23.0)
@example(log_m=6.0, log_T=-9.0, log_x=-90.0)
@example(log_m=6.0, log_T=6.0, log_x=23.0)
@settings(max_examples=150, derandomize=True, deadline=None)
def test_matches_decimal_oracle_across_the_float_range(log_m, log_T, log_x):
    system = PhysicalSystem.from_user_units(10.0**log_m, 10.0**log_T, 256.0, 10)
    t = 10.0**log_x * derive_scales(system).t_b
    exact = msd_ideal_exact(system, t)
    assume(t <= DOMAIN["t_s"][1] and exact > Decimal(np.finfo(float).tiny))
    assert_within_oracle(msd_ideal(system, t), exact, "4e-16")


@given(st.floats(min_value=1e-3, max_value=1e3),
       st.floats(min_value=1e-3, max_value=1e3))
@settings(max_examples=200)
def test_strictly_increasing_and_convex(x1, x2):
    # the slope grows monotonically from 0 toward hbar/m, so the curve
    # is convex: every midpoint lies below the chord
    lo, hi = sorted((x1, x2))
    if hi - lo < 1e-6:
        return
    mid = 0.5 * (lo + hi)
    f = lambda x: msd_ideal(CO, x * T_B)
    assert f(hi) > f(lo)
    chord = 0.5 * (f(lo) + f(hi))
    assert f(mid) <= chord * (1 + 1e-12)


@given(st.floats(min_value=0.0, max_value=1e4))
@settings(max_examples=200)
def test_bounded_by_linear_envelope(x):
    t = x * T_B
    assert msd_ideal(CO, t) <= (CONST.hbar / CO.mass) * t * (1 + 1e-12)


# x is 0 or at least 1e-100: below about 7e-142 the MSD (4.6e-23 x^2 / c m^2)
# is subnormal at c = 1e3, and no subnormal carries 12 significant digits
@given(st.floats(min_value=1e-3, max_value=1e3),
       st.just(0.0) | st.floats(min_value=1e-100, max_value=1e2))
@settings(max_examples=100)
def test_mass_scaling(c, x):
    t = x * T_B
    # t_b = hbar beta does not depend on the mass
    scaled = dataclasses.replace(CO, mass=CO.mass * c)
    assert msd_ideal(scaled, t) == pytest.approx(msd_ideal(CO, t) / c, rel=1e-12, abs=0)


@pytest.mark.parametrize("eps", [1e-3, 1e-6])
def test_classical_limit_vanishes_linearly(eps):
    # hbar -> hbar eps is equivalent to mass -> mass/eps with t_b -> t_b eps,
    # that is T -> T/eps; at fixed t the MSD then sits in its linear regime
    # and shrinks like eps (hbar/m) t, with a relative correction of order
    # eps t_b / t
    # (0.5 u at 0.5 K, so that m / eps and T / eps stay in the domain)
    base = PhysicalSystem.from_user_units(0.5, 0.5, 256.0, 10)
    p = dataclasses.replace(base, mass=base.mass / eps, temperature=base.temperature / eps)
    t = 5 * derive_scales(base).t_b
    assert msd_ideal(p, t) == pytest.approx(
        eps * (CONST.hbar / base.mass) * t, rel=eps, abs=0)


def test_curve_single_point_and_consistency():
    c0 = msd_ideal_curve(CO, np.array([0.0]))
    assert c0.tolist() == [0.0]
    c = msd_ideal_curve(CO, np.array([T_B, 2 * T_B]))
    assert c.dtype == np.float64
    np.testing.assert_allclose(
        c, [msd_ideal(CO, T_B), msd_ideal(CO, 2 * T_B)], rtol=1e-15)


def test_curve_monotone_on_figure_grid():
    grid = np.linspace(0.0, 10 * T_B, 512)
    c = msd_ideal_curve(CO, grid)
    assert np.all(np.diff(c) >= 0)


def test_curve_rejects_empty_and_decreasing():
    with pytest.raises(ValueError):
        msd_ideal_curve(CO, np.array([]))
    with pytest.raises(ValueError):
        msd_ideal_curve(CO, np.array([2e-14, 1e-14]))


# erf reference values computed once at 40 decimal digits and frozen
ERF_TABLE = [
    (0.1, 0.1124629160182848984047122510143),
    (0.35, 0.3793820535623102981309487369951),
    (0.5, 0.52049987781304653768274665389196),
    (1.0, 0.84270079294971486934122063508261),
    (1.5, 0.96610514647531072706697626164595),
    (2.0, 0.99532226501895273416206925636725),
    (3.0, 0.99997790950300141455862722387042),
    (5.0, 0.99999999999846254020557196514981),
]


class TestErf:
    @pytest.mark.parametrize("x,expected", ERF_TABLE)
    def test_reference_values(self, x, expected):
        assert math.erf(x) == pytest.approx(expected, rel=1e-15, abs=0)

    def test_odd_and_endpoints(self):
        assert math.erf(0.0) == 0.0
        for x in (0.3, 1.7, 4.0):
            assert math.erf(-x) == -math.erf(x)
        assert math.erf(50.0) == 1.0


class TestJ:
    def test_matches_decimal_oracle(self):
        # the closed form cancels as y grows; the series takes over below
        # u = 1/sqrt(2y) = 1 and is summed to 1 ulp
        for y in (*np.geomspace(0.02, 1e6, 41), 0.5, 50.0):
            assert J(y) == pytest.approx(J_decimal(y), rel=1e-14, abs=0), y

    def test_value_at_zero(self):
        assert J(0.0) == pytest.approx(math.sqrt(2) * math.pi / 12, rel=1e-14, abs=0)
        assert J(0.0) == J_AT_ZERO

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            J(-1e-9)

    @pytest.mark.parametrize("y", [1e-6, 1e-3, 0.1, 0.5, 1.0, 10.0, 50.0,
                                   60.0, 1e3])
    def test_matches_quadrature(self, y):
        assert J(y) == pytest.approx(J_quadrature(y), rel=1e-6, abs=1e-12)

    def test_decreasing_to_zero(self):
        ys = np.geomspace(1e-8, 1e8, 60)
        vals = np.array([J(y) for y in ys])
        assert np.all(np.diff(vals) < 0)
        assert vals[0] < J_AT_ZERO
        assert vals[-1] < 1e-12

    def test_branch_continuity(self):
        # the series branch starts at u = 1, i.e. y = 0.5
        for y in (0.49, 0.4999, 0.5, 0.5001, 0.51, 200.0):
            assert J(y) == pytest.approx(J_quadrature(y), rel=1e-6, abs=0)

    def test_large_y_no_cancellation(self):
        # naive evaluation loses all digits here; the series must not
        y = 1e12
        naive_scale = (2 * math.sqrt(math.pi) / 3) * math.sqrt(y)
        val = J(y)
        assert 0 < val < 1e-17 * naive_scale
        assert val == pytest.approx(
            math.sqrt(2 * math.pi) / (72 * (2 * y) ** 1.5), rel=1e-4, abs=0)


class TestIab:
    # a << b is excluded here: the naive reference itself cancels there
    # (covered by test_cancellation_safe_small_a instead)
    @pytest.mark.parametrize("a,b", [(1.0, 1.0), (0.5, 3.0), (1e3, 1e-3)])
    def test_defining_formula(self, a, b):
        assert I_ab(a, b) == pytest.approx(
            math.sqrt(math.pi) * (math.sqrt(a + b) - math.sqrt(b)), rel=1e-12, abs=0)

    @pytest.mark.parametrize("a,b", [(0.7, 1.3), (2.5, 0.1), (1e-3, 4.0)])
    def test_matches_gaussian_difference_integral(self, a, b):
        # int_0^inf (exp(-b x^2) - exp(-(a+b) x^2)) / x^2 dx
        f = lambda x: (np.exp(-b * x * x) - np.exp(-(a + b) * x * x)) / x**2
        ref, err = quad(f, 0, np.inf, limit=400)
        assert I_ab(a, b) == pytest.approx(ref, rel=1e-8, abs=0)

    def test_cancellation_safe_small_a(self):
        b = 1.0
        a = 1e-30
        assert I_ab(a, b) == pytest.approx(
            math.sqrt(math.pi) * a / 2, rel=1e-12, abs=0)

    def test_validation(self):
        with pytest.raises(ValidationError):
            I_ab(-1.0, 1.0)
        with pytest.raises(ValidationError):
            I_ab(1.0, 0.0)


class TestBreveClosed:
    def test_large_L_scaling_limit(self):
        # breve/L -> hbar sqrt(pi beta / m) / 6 as L -> infinity
        sys = PhysicalSystem.from_user_units(28, 190, 256, 100000)
        s = derive_scales(sys)
        limit = CONST.hbar * math.sqrt(math.pi * s.beta / sys.mass) / 6
        assert breve_closed(sys) / sys.L == pytest.approx(limit, rel=1e-4, abs=0)

    @pytest.mark.parametrize("n_cells,plateau_a2", [(10, 0.11), (20, 0.22),
                                                    (40, 0.44)])
    def test_co_plateaus(self, n_cells, plateau_a2):
        sys = PhysicalSystem.from_user_units(28, 190, 256, n_cells)
        assert breve_closed(sys) / sys.lattice_a**2 == pytest.approx(
            plateau_a2, rel=0.05, abs=0)

    @pytest.mark.parametrize("mass_u,temperature_K,lattice_pm", [
        (28.0, 190.0, 256.0),
        # 2 beta / (pi m) = 2.8e309 would overflow: outside the domain
        (1e-200, 1e-60, 1e134)])
    def test_a_function_of_y_alone(self, mass_u, temperature_K, lattice_pm):
        # breve = L^2 (2/sqrt(pi)) sqrt(y) J(y), y = hbar^2 beta / (2 m L^2)
        if mass_u < DOMAIN["mass_u"][0]:
            with pytest.raises(ValidationError, match=domain_pattern("mass_u")):
                PhysicalSystem.from_user_units(mass_u, temperature_K, lattice_pm, 10)
            return
        sys = PhysicalSystem.from_user_units(mass_u, temperature_K, lattice_pm, 10)
        beta, L = derive_scales(sys).beta, sys.L
        y = CONST.hbar**2 * beta / (2.0 * sys.mass * L * L)
        assert 1e-8 < y < 1e-2
        assert breve_closed(sys) == pytest.approx(
            L * L * 2.0 / math.sqrt(math.pi) * math.sqrt(y) * J(y), rel=1e-14, abs=0)

    @pytest.mark.parametrize("mass_u,temperature_K,lattice_pm,n_cells", [
        # 2 beta / (pi m) = 6e319 would overflow
        (1e-200, 4.4e-71, 256.0, 10),
        # 2 m L^2 would underflow to 0
        (1e-200, 190.0, 1e-140, 1)])
    def test_finite_where_its_form_leaves_the_float_range(self, mass_u, temperature_K,
                                                         lattice_pm, n_cells):
        # such a system is outside the domain, and refused naming its bound;
        # at each of the domain's 16 corners the plateau is finite and positive
        with pytest.raises(ValidationError, match=domain_pattern("mass_u")):
            PhysicalSystem.from_user_units(mass_u, temperature_K, lattice_pm, n_cells)
        for corner in itertools.product(*(DOMAIN[key][:2] for key in SYSTEM_KEYS)):
            value = breve_closed(PhysicalSystem.from_user_units(*corner))
            assert math.isfinite(value) and value > 0.0

    # over the domain's masses, temperatures, lattices and cell counts, its
    # corners among them: at 1e-4 u, 1e-9 K and 1 pm, u = L / (v_T t_b) is
    # 4.5e-10, far below J's series switch at u = 1
    @given(st.floats(*log_range("mass_u")).map(lambda v: 10.0**v),
           st.floats(*log_range("temperature_K")).map(lambda v: 10.0**v),
           st.floats(*log_range("lattice_pm")).map(lambda v: 10.0**v),
           st.integers(*DOMAIN["n_cells"][:2]))
    @example(28.0, 190.0, 256.0, 10)
    @example(28.0, 5e-5, 256.0, 10)
    @example(1e-4, 1e-9, 1.0, 1)
    @example(1e-4, 1e6, 1e6, 10**6)
    @example(1e6, 1e-9, 1.0, 10**6)
    @example(1e6, 1e6, 1e6, 1)
    @settings(max_examples=100, derandomize=True, deadline=None)
    def test_matches_decimal_oracle(self, mass_u, temperature_K, lattice_pm, n_cells):
        sys = PhysicalSystem.from_user_units(mass_u, temperature_K, lattice_pm, n_cells)
        exact = breve_exact(sys)
        assert abs(Decimal(breve_closed(sys)) - exact) <= Decimal("1e-14") * exact

    def test_agrees_with_discrete_sum(self, co_system, co_basis):
        # the closed form is a continuum approximation that improves with
        # L; at L = 10a it sits ~0.6% above the discrete sum
        assert breve_closed(co_system) == pytest.approx(breve_basis_sum(co_basis), rel=1e-2, abs=0)


@pytest.fixture(scope="module")
def co():
    return CO, derive_scales(CO)


ALPHA = 0.35


class TestCollisionModel:
    def test_zero_at_zero(self, co):
        sys, _ = co
        assert msd_collision_model(sys, ALPHA, 0.0) == 0.0

    def test_negative_time_rejected(self, co):
        # a nan, an inf or a negative time is refused, alone or in an
        # array; -0.0 is a time, and the times need not be sorted
        sys, s = co
        for t in (-1e-18, np.nan, np.inf, -np.inf):
            for arg in (t, [0.0, t]):
                with pytest.raises(ValidationError, match=domain_pattern("t_s")):
                    msd_collision_model(sys, ALPHA, arg)
        assert msd_collision_model(sys, ALPHA, -0.0) == 0.0
        unsorted = [2 * s.t_b, 0.0, s.t_b]
        assert (msd_collision_model(sys, ALPHA, unsorted).tolist()
                == [msd_collision_model(sys, ALPHA, t) for t in unsorted])

    def test_long_time_asymptote(self, co):
        # the erf weight decays like 1/t while the free branch grows like
        # t, so their product leaves a finite slow-velocity excess of
        # sqrt(2/pi) alpha L v_T t_b on top of the decohered plateau
        sys, s = co
        limit = (breve_closed(sys)
                 + math.sqrt(2 / math.pi) * ALPHA * sys.L * s.v_T * s.t_b)
        assert msd_collision_model(sys, ALPHA, 1e9 * s.t_b) == pytest.approx(
            limit, rel=1e-6, abs=0)

    def test_bounded_by_asymptote(self, co):
        sys, s = co
        limit = (breve_closed(sys)
                 + math.sqrt(2 / math.pi) * ALPHA * sys.L * s.v_T * s.t_b)
        t_c = sys.L / s.v_T
        for x in np.geomspace(1e-2, 1e4, 40):
            assert msd_collision_model(sys, ALPHA, x * t_c) <= limit * (1 + 1e-12)

    def test_short_time_follows_ideal(self, co):
        sys, s = co
        t = 0.1 * s.t_b
        assert msd_collision_model(sys, ALPHA, t) == pytest.approx(
            msd_ideal(sys, t), rel=1e-6, abs=0)

    def test_large_alpha_recovers_ideal(self, co):
        sys, s = co
        for x in (0.5, 5.0, 50.0):
            t = x * s.t_b
            assert msd_collision_model(sys, 1e3, t) == pytest.approx(
                msd_ideal(sys, t), rel=1e-6, abs=0)

    def test_parameterization_identity(self, co):
        # v_T^2 t_b = hbar / m ties the free branch to the ideal MSD
        sys, s = co
        assert s.v_T**2 * s.t_b == pytest.approx(CONST.hbar / sys.mass,
                                                 rel=1e-12, abs=0)

    def test_monotone_nondecreasing(self, co):
        sys, s = co
        ts = np.linspace(0.0, 2000 * s.t_b, 400)
        vals = [msd_collision_model(sys, ALPHA, t) for t in ts]
        assert np.all(np.diff(vals) >= -1e-30)

    def test_validation(self, co):
        sys, s = co
        for alpha in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(ValidationError, match="alpha"):
                msd_collision_model(sys, alpha, s.t_b)

    def test_finite_where_t_squared_overflows(self, co):
        # (t / t_b)^2 would overflow beyond about 1.3e154, past the domain's
        # 1e6 s (2.5e19 t_b), which refuses such times naming its bound;
        # toward 1e6 s the model tends to its long-time limit
        sys, s = co
        limit = (breve_closed(sys)
                 + math.sqrt(2 / math.pi) * ALPHA * sys.L * s.v_T * s.t_b)
        with pytest.raises(ValidationError, match=domain_pattern("t_s")):
            msd_collision_model(sys, ALPHA, np.array([1e150, 1e300]) * s.t_b)
        x = np.array([1e15, 1e17, 2e19])
        with np.errstate(over="raise", invalid="raise"):
            got = msd_collision_model(sys, ALPHA, x * s.t_b)
        np.testing.assert_allclose(got, limit, rtol=1e-6, atol=0)

    @pytest.mark.parametrize("n_cells,alpha", [(1, 0.05), (10, 0.35), (80, 3.0)])
    def test_array_equals_scalar_formula(self, co, n_cells, alpha):
        # the array form keeps math.erf and the scalar arithmetic, so it
        # equals the scalar formula bit for bit, t = 0 and -0.0 included
        # the blend of the one ideal MSD and the one plateau
        sys, s = co
        cell = dataclasses.replace(sys, n_cells=n_cells)

        def scalar(t):
            if t == 0.0:
                return 0.0
            g = math.erf(alpha * cell.L / (math.sqrt(2.0) * s.v_T * t))
            return g * msd_ideal(cell, t) + (1.0 - g) * breve_closed(cell)

        ts = np.concatenate(([0.0, -0.0], np.linspace(0.0, 30.0, 301) * s.t_b,
                             np.geomspace(1e-3, 1e5, 300) * s.t_b))
        got = msd_collision_model(cell, alpha, ts)
        np.testing.assert_array_equal(got, [scalar(t) for t in ts])
        assert isinstance(msd_collision_model(cell, alpha, ts[5]), float)


def test_collision_model_is_velocity_average(co_scales):
    # quadrature over the speed distribution reproduces the closed blend;
    # the integrand is rescaled to the plateau so quad's absolute
    # tolerance is meaningful despite the 1e-21 m^2 magnitudes
    sys = PhysicalSystem.from_user_units(28, 190, 256, 10)
    s = derive_scales(sys)
    plateau = breve_closed(sys)
    for x in (1.0, 30.0, 300.0):
        t = x * s.t_b
        free = msd_ideal(sys, t)
        u_star = ALPHA * sys.L / (t * s.v_T)

        def integrand(u):
            # u = v / v_T; values in units of the plateau
            val = free if u < u_star else plateau
            return (val / plateau) * math.sqrt(2 / math.pi) * math.exp(
                -u * u / 2)

        below, _ = quad(integrand, 0, u_star, limit=400)
        above, _ = quad(integrand, u_star, np.inf, limit=400)
        ref = (below + above) * plateau
        assert msd_collision_model(sys, ALPHA, t) == pytest.approx(ref, rel=1e-8, abs=0)
